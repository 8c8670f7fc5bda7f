package repro.shred

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestData, TestUtil}
import repro.core.SparkValues
import repro.core.NRC.{Expr, Program}
import repro.core.plan.{Join, NestSum, Optimizer, Plan, Project, Select, Source, Unnester}
import repro.core.exec.{Routes, SparkExecutor}
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** End-to-end tests of the shredded compilation route (§4): shred →
  * materialize → execute each flat assignment → unshred, validated against
  * the LocalEval reference and the standard route.
  */
class ShredRouteSpec extends SparkSpec {

  private lazy val t       = TestData.tables(spark)
  private lazy val catalog = NestedTpch.catalog(t)
  private lazy val local   = TestUtil.toLocal(catalog)

  /** The shredded route on unoptimized plans: every assignment of `p`. */
  private def shredRoute(p: Program, cat: Map[String, DataFrame]) =
    Routes.run(p, cat, Optimizer.none)

  /** `q` shredded as `OUT`, run on unoptimized plans and unshredded. */
  private def shredUnshred(q: Expr, cat: Map[String, DataFrame]) =
    Unshredder.unshred("OUT", q.asBag, shredRoute(Shredder.shred("OUT", q), cat))

  private def standard(q: repro.core.NRC.Expr, cat: Map[String, DataFrame]) =
    new SparkExecutor(cat).execute(Unnester.compile(q))

  // ------------------------------------------------------- flat-to-nested

  for (level <- 1 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"flat-to-nested $tag: shred+unshred matches LocalEval") {
      val q  = TpchQueries.flatToNested(level, wide)
      val df = shredUnshred(q, catalog)
      TestUtil.assertBagEq(df, TestUtil.localEval(q, local), tag)
    }
  }

  // ------------------------------------------------------ nested-to-nested

  for (level <- 1 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"nested-to-nested $tag: shred+unshred matches the standard route") {
      val q = TpchQueries.nestedToNested(level, wide)
      val name = NestedTpch.inputName(level, wide)
      val nested = NestedTpch.nestedInput(t, level, wide)
      val shredded = NestedTpch.shreddedInput(t, level, wide)
      val df = shredUnshred(q, catalog ++ shredded)
      TestUtil.assertBagEq(df, standard(q, catalog + (name -> nested)))
    }
  }

  test("nested-to-nested level 2 narrow: shredded components match LocalEval per level") {
    val q = TpchQueries.nestedToNested(2, wide = false)
    val sq = Shredder.shred("OUT", q)
    val out = shredRoute(sq, catalog ++ NestedTpch.shreddedInput(t, 2, wide = false))
    // Lowest dictionary: localized join+aggregate over (label, p_name).
    val loc = TestUtil.localEval(sq("OUT__D_corders_oparts").expr,
      TestUtil.toLocal(catalog ++ NestedTpch.shreddedInput(t, 2, wide = false)))
    TestUtil.assertBagEq(out("OUT__D_corders_oparts"), loc)
  }

  // -------------------------------------------------------- nested-to-flat

  for (level <- 1 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"nested-to-flat $tag: shredded route matches the standard route") {
      val q = TpchQueries.nestedToFlat(level, wide)
      val name = NestedTpch.inputName(level, wide)
      val nested = NestedTpch.nestedInput(t, level, wide)
      val shredded = NestedTpch.shreddedInput(t, level, wide)
      val sq = Shredder.shred("OUT", q)
      val expected = SparkValues.toBag(standard(q, catalog + (name -> nested)))
      for (lvl <- 0 to 2) {
        val out = Routes.run(sq, catalog ++ shredded, Optimizer.level(lvl))(sq.assignments.head.name)
        TestUtil.assertBagEq(out, expected, s"$tag, optimizer level $lvl")
      }
    }
  }

  private def joins(p: Plan): Seq[Join] =
    (p match { case j: Join => Seq(j); case _ => Nil }) ++ p.children.flatMap(joins)

  private def belowProjects(p: Plan): Plan = p match {
    case Project(c, _) => belowProjects(c)
    case Select(c, _)  => belowProjects(c)
    case other         => other
  }

  test("nested-to-flat under full: Part joins the lowest dictionary, and every label join reads a Γ⁺ per label") {
    for (level <- 1 to 4; wide <- Seq(false, true)) {
      val tag = s"level $level ${if (wide) "wide" else "narrow"}"
      val sq = Shredder.shred("OUT", TpchQueries.nestedToFlat(level, wide))
      val plan = Optimizer.full(Unnester.compile(sq.assignments.head.expr))
      val (labelJoins, partJoins) = joins(plan).partition(_.rightKeys.forall(_.endsWith("__label")))
      assert(labelJoins.size == level && partJoins.size == 1, s"$tag\n${plan.pretty()}")
      labelJoins.foreach { j =>
        assert(TestUtil.inputs(j.right).contains("Part"), s"$tag: Part joins above ${j.rightKeys}\n${plan.pretty()}")
        belowProjects(j.right) match {
          case NestSum(_, g, _) => assert(g == j.rightKeys, s"$tag: Γ⁺ keyed by $g under ${j.rightKeys}")
          case other => fail(s"$tag: label join on ${j.rightKeys} reads ${other.pretty()}")
        }
      }
    }
  }

  test("nested-to-nested under full: Part joins only the lowest dictionary") {
    for (level <- 1 to 4; wide <- Seq(false, true)) {
      val sq = Shredder.shred("OUT", TpchQueries.nestedToNested(level, wide))
      val withPart = sq.assignments.filter(a =>
        joins(Optimizer.full(Unnester.compile(a.expr))).exists(j => TestUtil.inputs(j.right).contains("Part")))
      assert(withPart.map(_.name) == Seq(sq.assignments.last.name),
        s"level $level ${if (wide) "wide" else "narrow"}: ${sq.assignments.map(_.name)}")
    }
  }

  test("under full, the Part join reads the un-aggregated lowest dictionary") {
    for (level <- 1 to 4; wide <- Seq(false, true)) {
      val n2f = Shredder.shred("OUT", TpchQueries.nestedToFlat(level, wide)).assignments.head
      val n2n = Shredder.shred("OUT", TpchQueries.nestedToNested(level, wide)).assignments.last
      for (a <- Seq(n2f, n2n)) {
        val plan = Optimizer.full(Unnester.compile(a.expr))
        val partJoins = joins(plan).filter(j => TestUtil.inputs(j.right) == Set("Part"))
        assert(partJoins.map(j => belowProjects(j.left)) match {
          case Seq(Source(dict)) => dict.endsWith("_oparts")
          case _                 => false
        }, s"level $level ${if (wide) "wide" else "narrow"} ${a.name}\n${plan.pretty()}")
      }
    }
  }

  test("under full, T3's shredded top assignment and its standard plan run 7 shuffle exchanges") {
    // 8 each when a Γ⁺[label or c_name, partkey] pre-aggregated the Part join's input.
    val q = TpchQueries.nestedToFlat(2, wide = false)
    val sq = Shredder.shred("T3", q)
    def exchanges(e: repro.core.NRC.Expr, cat: Map[String, DataFrame]) =
      TestUtil.shuffleExchanges(new SparkExecutor(cat).execute(Optimizer.full(Unnester.compile(e))))
    val nested = catalog + (NestedTpch.inputName(2, wide = false) -> NestedTpch.nestedInput(t, 2, wide = false))
    assert(exchanges(sq.assignments.head.expr, catalog ++ NestedTpch.shreddedInput(t, 2, wide = false)) == 7)
    assert(exchanges(q, nested) == 7)
  }

  test("shredded output of flat-to-nested matches the B.1.3 shredded input") {
    // Shredding the flat-to-nested query should reproduce (up to label
    // values) the natural-key shredded input; here labels coincide because
    // domain elimination picks the same natural keys.
    val sq = Shredder.shred("OUT", TpchQueries.flatToNested(2, wide = false))
    val out = shredRoute(sq, catalog)
    val expect = NestedTpch.shreddedInput(t, 2, wide = false)
    TestUtil.assertBagEq(out("OUT__F"), expect("COP2n__F"))
    TestUtil.assertBagEq(out("OUT__D_corders"), expect("COP2n__D_corders"))
    TestUtil.assertBagEq(out("OUT__D_corders_oparts"), expect("COP2n__D_corders_oparts"))
  }

  test("T1's shredded assignments run with no shuffle exchange") {
    // Domain elimination makes each dictionary a projection of one input.
    val sq = Shredder.shred("T1", TpchQueries.flatToNested(4, wide = true))
    val exchanges = sq.assignments.map(a =>
      a.name -> TestUtil.shuffleExchanges(Routes.standard(a.expr, catalog)))
    assert(exchanges.size == 5 && exchanges.forall(_._2 == 0), exchanges)
  }

  test("correlated label-domain materialization computes correctly") {
    import repro.core._
    import repro.core.NRC._
    val xT = TupleTpe("k" -> IntTpe)
    val yT = TupleTpe("v" -> IntTpe)
    val x = VarDef("x", xT); val y = VarDef("y", yT)
    val q = ForUnion(x, InputBag("X", BagTpe(xT)),
      Sng(Tup("k" -> Proj(VarRef(x), "k"),
        "b" -> ForUnion(y, InputBag("Y", BagTpe(yT)),
          Sng(Tup("s" -> Arith("+", Proj(VarRef(y), "v"), Proj(VarRef(x), "k"))))))))
    import spark.implicits._
    val cat = Map(
      "X" -> Seq(1L, 2L, 2L).toDF("k"),
      "Y" -> Seq(10L, 20L).toDF("v"))
    val df = shredUnshred(q, cat)
    TestUtil.assertBagEq(df, TestUtil.localEval(q, TestUtil.toLocal(cat)))
  }

  test("a NULL captured attribute keeps its nested bag") {
    import scala.collection.immutable.ListMap
    import repro.core._
    import repro.core.NRC._
    import spark.implicits._
    // for x in X ∪ {(<attrs> := x.<attrs>, b := for y in Y ∪ {(s := y.v, t_<a> := x.<a>)})}:
    // no equality relates y to x, so b is materialized over a label domain.
    def query(attrs: Seq[String]): Expr = {
      val xT = TupleTpe(ListMap(attrs.map(_ -> (IntTpe: Tpe)): _*))
      val yT = TupleTpe("v" -> IntTpe)
      val x = VarDef("x", xT); val y = VarDef("y", yT)
      val inner = ForUnion(y, InputBag("Y", BagTpe(yT)),
        Sng(Tup(ListMap(("s" -> (Proj(VarRef(y), "v"): Expr)) +:
          attrs.map(a => s"t_$a" -> (Proj(VarRef(x), a): Expr)): _*))))
      ForUnion(x, InputBag("X", BagTpe(xT)),
        Sng(Tup(ListMap(attrs.map(a => a -> (Proj(VarRef(x), a): Expr)) :+ ("b" -> inner): _*))))
    }
    val y = Seq(10L, 20L).toDF("v")
    // (NULL, 5) and (5, NULL) must get different labels, hence bags.
    val inputs = Seq(
      Seq("k")      -> Seq(Some(1L), None, Some(2L)).toDF("k"),
      Seq("k", "j") -> Seq((Some(1L), Some(5L)), (None, Some(5L)), (Some(5L), None)).toDF("k", "j"))
    for ((attrs, x) <- inputs) {
      val q = query(attrs)
      val cat = Map("X" -> x, "Y" -> y)
      val df = shredUnshred(q, cat)
      val tag = s"captured ${attrs.mkString(", ")}"
      TestUtil.assertBagEq(df, TestUtil.localEval(q, TestUtil.toLocal(cat)), tag)
      TestUtil.assertBagEq(df, standard(q, cat))
    }
  }
}
