package repro.exec

import repro.{Oracle, SparkSpec, TestData, TestUtil}
import repro.core._
import repro.core.NRC._
import repro.core.plan.{Optimizer, Unnester}
import repro.core.exec.{RddExecutor, SparkExecutor}
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** End-to-end tests of the standard compilation route (§3): NRC → unnesting
  * → plan → DataFrame execution, validated against the LocalEval reference
  * interpreter and (for flat outputs) the DuckDB oracle.
  */
class StandardRouteSpec extends SparkSpec {

  private lazy val t       = TestData.tables(spark)
  private lazy val catalog = NestedTpch.catalog(t)
  private lazy val local   = TestUtil.toLocal(catalog)

  private def run(q: repro.core.NRC.Expr, cat: Map[String, org.apache.spark.sql.DataFrame] = catalog) =
    new SparkExecutor(cat).execute(Unnester.compile(q))

  // ------------------------------------------------------- flat-to-nested

  for (level <- 0 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"flat-to-nested $tag matches LocalEval") {
      val q = TpchQueries.flatToNested(level, wide)
      TestUtil.assertBagEq(run(q), TestUtil.localEval(q, local), tag)
    }
  }

  // The nested input is the B.1.3 shredded input, unshredded.
  for (level <- 1 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"flat-to-nested $tag matches direct Spark construction") {
      val q = TpchQueries.flatToNested(level, wide)
      TestUtil.assertBagEq(run(q), NestedTpch.nestedInput(t, level, wide))
    }
  }

  test("flat-to-nested preserves the customer with no orders") {
    val df  = run(TpchQueries.flatToNested(2, wide = false))
    val row = df.filter(df("c_name") === "cust_5").collect()
    assert(row.length == 1 && row.head.getSeq(row.head.fieldIndex("corders")).isEmpty)
  }

  test("flat-to-nested preserves the order with no lineitems") {
    val df = run(TpchQueries.flatToNested(1, wide = false)).where("o_orderdate = '1998-04-17'")
    val r  = df.collect()
    assert(r.length == 1 && r.head.getSeq(r.head.fieldIndex("oparts")).isEmpty)
  }

  // ------------------------------------------------------ nested-to-nested

  for (level <- 0 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"nested-to-nested $tag matches LocalEval") {
      val q = TpchQueries.nestedToNested(level, wide)
      val (cat, loc) =
        if (level == 0) (catalog, local)
        else {
          val name = NestedTpch.inputName(level, wide)
          val nested = NestedTpch.nestedInput(t, level, wide)
          (catalog + (name -> nested), local + (name -> repro.core.SparkValues.toBag(nested)))
        }
      TestUtil.assertBagEq(run(q, cat), TestUtil.localEval(q, loc), tag)
    }
  }

  test("nested-to-nested drops lineitems with no Part match but keeps the order") {
    // Order 4 has a single lineitem with part 99 (absent): its oparts must be empty.
    val nested = NestedTpch.nestedInput(t, 1, wide = false)
    val q = TpchQueries.nestedToNested(1, wide = false)
    val df = run(q, catalog + (NestedTpch.inputName(1, wide = false) -> nested))
      .where("o_orderdate = '1996-08-21'")
    val r = df.collect()
    assert(r.length == 1 && r.head.getSeq(r.head.fieldIndex("oparts")).isEmpty)
  }

  // -------------------------------------------------------- nested-to-flat

  for (level <- 0 to 4; wide <- Seq(false, true)) {
    val tag = s"level $level ${if (wide) "wide" else "narrow"}"
    test(s"nested-to-flat $tag matches LocalEval") {
      val q = TpchQueries.nestedToFlat(level, wide)
      val (cat, loc) =
        if (level == 0) (catalog, local)
        else {
          val name = NestedTpch.inputName(level, wide)
          val nested = NestedTpch.nestedInput(t, level, wide)
          (catalog + (name -> nested), local + (name -> repro.core.SparkValues.toBag(nested)))
        }
      TestUtil.assertBagEq(run(q, cat), TestUtil.localEval(q, loc), tag)
    }
  }

  test("nested-to-flat level 0 agrees with the DuckDB oracle") {
    val df = run(TpchQueries.nestedToFlat(0, wide = false))
    Oracle.assertEquivalent(df,
      """SELECT p.p_name AS p_name,
        |       sum(CAST(l.l_quantity AS DOUBLE) * CAST(p.p_retailprice AS DOUBLE)) AS total
        |FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        |GROUP BY p.p_name""".stripMargin,
      "lineitem" -> t.lineitem, "part" -> t.part)
  }

  test("nested-to-flat level 2 narrow agrees with the DuckDB oracle") {
    val nested = NestedTpch.nestedInput(t, 2, wide = false)
    val df = run(TpchQueries.nestedToFlat(2, wide = false),
      catalog + (NestedTpch.inputName(2, wide = false) -> nested))
    Oracle.assertEquivalent(df,
      """SELECT c.c_name AS c_name,
        |       sum(CAST(l.l_quantity AS DOUBLE) * CAST(p.p_retailprice AS DOUBLE)) AS total
        |FROM customer c
        |JOIN orders o   ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON o.o_orderkey = l.l_orderkey
        |JOIN part p     ON l.l_partkey = p.p_partkey
        |GROUP BY c.c_name""".stripMargin,
      "customer" -> t.customer, "orders" -> t.orders,
      "lineitem" -> t.lineitem, "part" -> t.part)
  }

  test("nested-to-flat level 4 narrow agrees with the DuckDB oracle") {
    val nested = NestedTpch.nestedInput(t, 4, wide = false)
    val df = run(TpchQueries.nestedToFlat(4, wide = false),
      catalog + (NestedTpch.inputName(4, wide = false) -> nested))
    Oracle.assertEquivalent(df,
      """SELECT r.r_name AS r_name,
        |       sum(CAST(l.l_quantity AS DOUBLE) * CAST(p.p_retailprice AS DOUBLE)) AS total
        |FROM region r
        |JOIN nation n   ON r.r_regionkey = n.n_regionkey
        |JOIN customer c ON n.n_nationkey = c.c_nationkey
        |JOIN orders o   ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON o.o_orderkey = l.l_orderkey
        |JOIN part p     ON l.l_partkey = p.p_partkey
        |GROUP BY r.r_name""".stripMargin,
      "region" -> t.region, "nation" -> t.nation, "customer" -> t.customer,
      "orders" -> t.orders, "lineitem" -> t.lineitem, "part" -> t.part)
  }

  // ------------------------------------------------ groupBy and ⊎ at the root

  private val l = VarDef("l", NestedTpch.lineitemTpe)
  private val o = VarDef("o", NestedTpch.ordersTpe(wide = false))
  private val lineitem = InputBag("Lineitem", BagTpe(NestedTpch.lineitemTpe))
  private def li(a: String): Expr = Proj(VarRef(l), a)
  private def liTup(attrs: String*): Expr = Sng(Tup(attrs.map(a => a -> li(a)): _*))

  private val groupAndUnion: Seq[(String, Expr)] = Seq(
    "root groupBy" ->
      GroupByE(ForUnion(l, lineitem, liTup("l_orderkey", "l_partkey", "l_quantity")),
        Seq("l_orderkey"), "parts"),
    "groupBy nested under Orders" ->
      ForUnion(o, InputBag("Orders", BagTpe(NestedTpch.ordersTpe(wide = false))),
        Sng(Tup("o_orderdate" -> Proj(VarRef(o), "o_orderdate"),
          "byPart" -> GroupByE(ForUnion(l, lineitem,
            IfThenBag(Cmp("==", li("l_orderkey"), Proj(VarRef(o), "o_orderkey")),
              liTup("l_partkey", "l_quantity"))), Seq("l_partkey"), "qs")))),
    "root ⊎ over Lineitem" ->
      BagUnion(ForUnion(l, lineitem, IfThenBag(Cmp(">", li("l_quantity"), Const(3.0, RealTpe)),
        liTup("l_orderkey", "l_partkey", "l_quantity"))), lineitem))

  for ((name, q) <- groupAndUnion; level <- 0 to 2) {
    test(s"$name at optimizer level $level matches LocalEval on both executors") {
      val plan = Optimizer.level(level)(Unnester.compile(q))
      val exp = TestUtil.localEval(q, local)
      TestUtil.assertBagEq(new SparkExecutor(catalog).execute(plan), exp, name)
      val rdd = new RddExecutor(catalog.map { case (n, df) => n -> RddExecutor.fromDataFrame(df) })
      assert(LocalEval.canon(RddExecutor.toLocal(rdd.execute(plan))) == LocalEval.canon(exp), name)
    }
  }
}
