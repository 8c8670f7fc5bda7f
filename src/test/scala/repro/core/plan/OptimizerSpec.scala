package repro.core.plan

import java.sql.Date
import repro.{SparkSpec, TestData, TestUtil}
import repro.core.exec.SparkExecutor
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** Optimizer correctness: every optimization level produces the same result,
  * and the rewrites change plan shape as intended (E.4 setup).
  */
class OptimizerSpec extends SparkSpec {

  private lazy val t       = TestData.tables(spark)
  private lazy val catalog = NestedTpch.catalog(t)

  /** The test tables plus an order with a NULL key and a second order with
    * key 1: an order key is then a function of the order row's ID, not a key
    * of the orders.
    */
  private lazy val sharedKeyCatalog = {
    import spark.implicits._
    val extra = Seq[(Option[Long], Long, String, Double, Date)](
      (None, 3L, "O", 90.0, Date.valueOf("1997-06-01")),
      (Some(1L), 2L, "F", 45.0, Date.valueOf("1996-01-15"))).toDF(t.orders.columns.toIndexedSeq: _*)
    NestedTpch.catalog(t.copy(orders = t.orders.unionByName(extra)))
  }

  private def countNestSum(p: Plan): Int =
    (p match { case _: NestSum => 1; case _ => 0 }) + p.children.map(countNestSum).sum

  private def hasSumBelowJoin(p: Plan): Boolean = p match {
    case Join(l, r, _, _, _) => countNestSum(l) + countNestSum(r) > 0 ||
      hasSumBelowJoin(l) || hasSumBelowJoin(r)
    case _ => p.children.exists(hasSumBelowJoin)
  }

  test("aggregation pushing introduces a partial sum below the Part join") {
    val plan = Unnester.compile(TpchQueries.nestedToFlat(2, wide = false))
    assert(!hasSumBelowJoin(plan))
    val opt = Optimizer.full(plan)
    assert(hasSumBelowJoin(opt))
    assert(countNestSum(opt) > countNestSum(plan))
  }

  test("full optimization gives the same plan on every call") {
    val plan = Unnester.compile(TpchQueries.nestedToFlat(2, wide = false))
    val opt = Optimizer.full(plan)
    assert(opt.pretty().contains("__pa_1"))
    assert(Optimizer.full(plan) == opt)
  }

  test("projection pushing trims project widths") {
    def maxProj(p: Plan): Int = (p match {
      case Project(_, cols) => cols.size
      case _ => 0
    }).max(p.children.map(maxProj).maxOption.getOrElse(0))
    val plan = Unnester.compile(TpchQueries.nestedToFlat(2, wide = true))
    assert(maxProj(Optimizer.pushProjections(plan)) <= maxProj(plan))
  }

  for (level <- Seq(0, 1, 2); family <- Seq("n2f", "n2n")) {
    test(s"optimization level $level preserves results for $family level-2 narrow") {
      val q = family match {
        case "n2f" => TpchQueries.nestedToFlat(2, wide = false)
        case "n2n" => TpchQueries.nestedToNested(2, wide = false)
      }
      val nested = NestedTpch.nestedInput(t, 2, wide = false)
      val cat = catalog + (NestedTpch.inputName(2, wide = false) -> nested)
      val base = new SparkExecutor(cat).execute(Unnester.compile(q))
      val opt  = new SparkExecutor(cat).execute(Optimizer.level(level)(Unnester.compile(q)))
      TestUtil.assertBagEq(opt, base)
    }
  }

  test("aggregation pushing preserves results on the flat join-aggregate") {
    val q = TpchQueries.nestedToFlat(0, wide = false)
    val base = new SparkExecutor(catalog).execute(Unnester.compile(q))
    val opt  = new SparkExecutor(catalog).execute(Optimizer.full(Unnester.compile(q)))
    TestUtil.assertBagEq(opt, base)
  }

  test("aggregation pushing down a two-join chain preserves results") {
    val q = TpchQueries.nestedToFlat(4, wide = false)
    val nested = NestedTpch.nestedInput(t, 4, wide = false)
    val cat = catalog + (NestedTpch.inputName(4, wide = false) -> nested)
    val plan = Unnester.compile(q)
    val opt  = Optimizer.full(plan)
    TestUtil.assertBagEq(new SparkExecutor(cat).execute(opt),
      new SparkExecutor(cat).execute(plan))
  }

  test("optimizer levels preserve nested-to-nested wide results") {
    val q = TpchQueries.nestedToNested(1, wide = true)
    val nested = NestedTpch.nestedInput(t, 1, wide = true)
    val cat = catalog + (NestedTpch.inputName(1, wide = true) -> nested)
    val base = new SparkExecutor(cat).execute(Unnester.compile(q))
    for (lvl <- 0 to 2) {
      val opt = new SparkExecutor(cat).execute(Optimizer.level(lvl)(Unnester.compile(q)))
      TestUtil.assertBagEq(opt, base)
    }
  }

  // ------------------------------------------- join→nest partitioning reuse

  for (level <- 1 to 4; wide <- Seq(false, true)) {
    val tag = s"flat-to-nested level $level ${if (wide) "wide" else "narrow"}"
    test(s"$tag: every level matches LocalEval on NULL and shared order keys") {
      val q = TpchQueries.flatToNested(level, wide)
      val expected = TestUtil.localEval(q, TestUtil.toLocal(sharedKeyCatalog))
      for (lvl <- 0 to 2) {
        val df = new SparkExecutor(sharedKeyCatalog).execute(Optimizer.level(lvl)(Unnester.compile(q)))
        TestUtil.assertBagEq(df, expected, s"$tag, optimizer level $lvl")
      }
    }
  }

  test("a nest over a join after an outer unnest keeps its key") {
    // T4's Γ+ sits on the Part join, whose left side is outer-μ over the
    // indexed order: the ID there does not fix the lineitem's part key.
    val plan = Unnester.compile(TpchQueries.nestedToNested(2, wide = false))
    def partJoinAfterUnnest(p: Plan): Boolean = p match {
      case Join(_: Unnest, _, Seq("l2__l_partkey"), _, _) => true
      case _ => p.children.exists(partJoinAfterUnnest)
    }
    assert(partJoinAfterUnnest(plan))
    assert(Optimizer.full(plan) == Optimizer.pushProjections(plan))
  }

  test("the full level runs flat-to-nested level 4 wide with one shuffle fewer") {
    val plan = Unnester.compile(TpchQueries.flatToNested(4, wide = true))
    def exchanges(optimize: Plan => Plan) =
      TestUtil.shuffleExchanges(new SparkExecutor(catalog).execute(optimize(plan)))
    assert(exchanges(Optimizer.full) == exchanges(Optimizer.pushProjections) - 1)
  }
}
