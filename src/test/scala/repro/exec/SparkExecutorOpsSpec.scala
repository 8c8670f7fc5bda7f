package repro.exec

import repro.SparkSpec
import repro.core._
import repro.core.exec.SparkExecutor
import repro.core.plan._

/** Operator-level tests of the DataFrame executor against hand-built plans
  * (the Fig. 10 semantics, one operator at a time).
  */
class SparkExecutorOpsSpec extends SparkSpec {

  import spark.implicits._

  private lazy val kv = Seq((1L, 10.0), (1L, 5.0), (2L, 7.0), (3L, 1.0)).toDF("k", "v")
  private lazy val dims = Seq((1L, "a"), (2L, "b"), (9L, "z")).toDF("dk", "name")
  private def exec(p: Plan, cat: (String, org.apache.spark.sql.DataFrame)*) =
    new SparkExecutor(cat.toMap).execute(p)

  test("Source + Project with computed columns") {
    val p = Project(Source("kv"), Seq("k" -> ColRef("k"), "v2" -> ArithV("*", ColRef("v"), LitV(2.0, RealTpe))))
    val r = exec(p, "kv" -> kv).collect().map(r => (r.getLong(0), r.getDouble(1))).toSet
    assert(r == Set((1L, 20.0), (1L, 10.0), (2L, 14.0), (3L, 2.0)))
  }

  test("Select filters by condition") {
    val p = Select(Source("kv"), CmpV(">", ColRef("v"), LitV(5.0, RealTpe)))
    assert(exec(p, "kv" -> kv).count() == 2)
  }

  test("Select on a self-equality drops exactly the NULL rows") {
    val withNull = Seq((Some(1L), 1.0), (None, 2.0), (Some(3L), 3.0)).toDF("k", "v")
    val p = Select(Source("kv"), CmpV("==", ColRef("k"), ColRef("k")))
    assert(exec(p, "kv" -> withNull).collect().map(_.getLong(0)).toSet == Set(1L, 3L))
  }

  test("inner join drops non-matching keys") {
    val p = Join(Source("kv"), Source("d"), Seq("k"), Seq("dk"), leftOuter = false)
    assert(exec(p, "kv" -> kv, "d" -> dims).count() == 3)
  }

  test("left outer join pads non-matching keys with NULL") {
    val p = Join(Source("kv"), Source("d"), Seq("k"), Seq("dk"), leftOuter = true)
    val r = exec(p, "kv" -> kv, "d" -> dims)
    assert(r.count() == 4)
    assert(r.filter(r("name").isNull).count() == 1)
  }

  test("join with empty keys is a cross product; outer pads on empty right") {
    val cross = Join(Source("kv"), Source("d"), Seq.empty, Seq.empty, leftOuter = false)
    assert(exec(cross, "kv" -> kv, "d" -> dims).count() == 12)
    val empty = dims.limit(0)
    val outer = Join(Source("kv"), Source("d"), Seq.empty, Seq.empty, leftOuter = true)
    assert(exec(outer, "kv" -> kv, "d" -> empty).count() == 4)
  }

  test("NestBag collects structs per group; presence filters members") {
    val p = NestBag(Source("kv"), Seq("k"), Seq("v" -> "v"), "bag",
      presence = Some(CmpV(">", ColRef("v"), LitV(4.0, RealTpe))))
    val r = exec(p, "kv" -> kv).collect().map(x => x.getLong(0) -> x.getSeq[Any](1).size).toMap
    assert(r == Map(1L -> 2, 2L -> 1, 3L -> 0))
  }

  test("NestSum coalesces empty groups to zero") {
    val p = NestSum(Source("kv"), Seq("k"),
      Seq("s" -> WhenV(CmpV(">", ColRef("v"), LitV(100.0, RealTpe)), ColRef("v"))))
    val r = exec(p, "kv" -> kv).collect().map(x => x.getLong(0) -> x.getDouble(1)).toMap
    assert(r == Map(1L -> 0.0, 2L -> 0.0, 3L -> 0.0))
  }

  test("global NestSum with no group columns") {
    val p = NestSum(Source("kv"), Seq.empty, Seq("s" -> ColRef("v")))
    assert(exec(p, "kv" -> kv).collect()(0).getDouble(0) == 23.0)
  }

  test("Unnest explodes arrays of structs and flattens fields") {
    val nested = Seq((1L, Seq((1L, "x"), (2L, "y"))), (2L, Seq.empty[(Long, String)]))
      .toDF("id", "bag")
    val inner = Unnest(Source("n"), "bag", Seq("_1", "_2"), "e", outer = false, None)
    assert(exec(inner, "n" -> nested).count() == 2)
    val outer = Unnest(Source("n"), "bag", Seq("_1", "_2"), "e", outer = true, Some("e__present"))
    val r = exec(outer, "n" -> nested)
    assert(r.count() == 3)
    assert(r.filter(!r("e__present")).count() == 1)
  }

  test("AddIndex yields distinct ids") {
    val p = AddIndex(Source("kv"), "idx")
    val r = exec(p, "kv" -> kv).select("idx").collect().map(_.getLong(0))
    assert(r.distinct.length == 4)
  }

  test("DedupP removes duplicates, UnionP concatenates") {
    val p = DedupP(UnionP(Project(Source("kv"), Seq("k" -> ColRef("k"))),
      Project(Source("kv"), Seq("k" -> ColRef("k")))))
    assert(exec(p, "kv" -> kv).count() == 3)
  }

  test("LabelV: every component is hashed; NULL gives a non-NULL label") {
    val single = Project(Source("kv"), Seq("l" -> LabelV(Seq(ColRef("k")))))
    val ones = exec(single, "kv" -> kv).select("l").collect().map(_.getLong(0)).toSet
    assert(ones.size == 3 && (ones & Set(1L, 2L, 3L)).isEmpty)
    val multi = Project(Source("kv"), Seq("l" -> LabelV(Seq(ColRef("k"), ColRef("v")))))
    val ls = exec(multi, "kv" -> kv).select("l").collect().map(_.getLong(0))
    assert(ls.distinct.length == 4)
    // NULL in either position, in both, or neither: four different labels.
    val ab = Seq((Some(5L), Some(5L)), (None, Some(5L)), (Some(5L), None), (None, None)).toDF("a", "b")
    for (comps <- Seq(Seq("a"), Seq("a", "b"))) {
      val p = Project(Source("ab"), Seq("l" -> LabelV(comps.map(ColRef))))
      val rows = exec(p, "ab" -> ab).select("l").collect()
      assert(rows.forall(!_.isNullAt(0)), comps)
      assert(rows.map(_.getLong(0)).distinct.length == (if (comps.size == 1) 2 else 4), comps)
    }
  }

  test("IfV evaluates conditionally") {
    val p = Project(Source("kv"), Seq("c" ->
      IfV(CmpV(">", ColRef("v"), LitV(6.0, RealTpe)), LitV("hi", StringTpe), LitV("lo", StringTpe))))
    val r = exec(p, "kv" -> kv).collect().map(_.getString(0))
    assert(r.count(_ == "hi") == 2 && r.count(_ == "lo") == 2)
  }
}
