package repro.queries

import org.apache.spark.sql.{DataFrame, classic}
import org.apache.spark.sql.catalyst.plans.logical.SubqueryAlias
import repro.{SparkSpec, TestUtil}
import repro.core.NRC
import repro.core.NRC.Program
import repro.core.exec.Routes
import repro.core.plan.{Optimizer, Plan, Unnest, Unnester}
import repro.data.BioData
import repro.shred.{Shredder, Unshredder}

/** Correctness of the biomedical pipeline and clinical queries across the
  * standard route, the shredded route and the LocalEval reference.
  */
class BioRouteSpec extends SparkSpec {

  private lazy val t = BioData.tables(spark, sf = 0.003)
  private lazy val catalog = BioData.catalog(t)
  private lazy val local = TestUtil.toLocal(
    catalog.view.filterKeys(k => !k.contains("__")).toMap)

  /** The shredded route's program: every assignment of `p`, shredded. */
  private def shredded(p: Program): Program =
    Program(p.assignments.flatMap(a => Shredder.shred(a.name, a.expr).assignments))

  test("bio generators are deterministic and non-empty") {
    assert(t.samples.count() > 0 && t.occurrences.count() > 0)
    assert(t.network.count() > 0 && t.soImpact.count() == 20)
    val again = BioData.tables(spark, sf = 0.003)
    TestUtil.assertBagEq(again.occurrences, t.occurrences)
  }

  test("nested Occurrences is the three-level nesting of its shredded components") {
    import repro.core._
    import repro.core.NRC._
    import repro.shred.ShredTypes.{LabelCol, components}
    val Seq((occN, occT), (candN, candT), (conseqN, conseqT)) =
      components("Occurrences", BioData.occurrencesTpe)
    val (o, c, k) = (VarDef("o", occT), VarDef("c", candT), VarDef("k", conseqT))
    def p(x: VarDef, a: String) = Proj(VarRef(x), a)
    // for x in dict union if x.label == label then {fields}
    def lookup(x: VarDef, dict: String, elem: TupleTpe, label: Expr)(fields: (String, Expr)*) =
      ForUnion(x, InputBag(dict, BagTpe(elem)),
        IfThenBag(Cmp("==", p(x, LabelCol), label), Sng(Tup(fields: _*))))
    val q = ForUnion(o, InputBag(occN, BagTpe(occT)), Sng(Tup(
      "sample" -> p(o, "sample"), "contig" -> p(o, "contig"), "start" -> p(o, "start"),
      "mutationId" -> p(o, "mutationId"),
      "candidates" -> lookup(c, candN, candT, p(o, "candidates"))(
        "gene" -> p(c, "gene"), "impact" -> p(c, "impact"),
        "sift" -> p(c, "sift"), "poly" -> p(c, "poly"),
        "consequences" -> lookup(k, conseqN, conseqT, p(c, "consequences"))(
          "conseq" -> p(k, "conseq"))))))
    TestUtil.assertBagEq(t.occurrences,
      TestUtil.localEval(q, TestUtil.toLocal(t.occurrencesShredded)))
  }

  test("candidate dictionary is shared across occurrences (App. D premise)") {
    import repro.shred.ShredTypes
    val dict = t.occurrencesShredded(ShredTypes.dictName("Occurrences", Seq("candidates")))
    val occF = t.occurrencesShredded(ShredTypes.topName("Occurrences"))
    val used = dict.join(occF.select(occF("candidates")).distinct(),
      dict(ShredTypes.LabelCol) === occF("candidates")).count()
    val flattened = t.occurrences.selectExpr("explode(candidates)").count()
    // Each referenced dictionary entry appears once; flattening repeats it
    // per occurrence, so the dictionary never exceeds the flattened tuples.
    assert(used <= flattened)
  }

  for ((name, q) <- Seq("Step1" -> BioQueries.step1) ++ BioQueries.clinical.toSeq) {
    test(s"$name: standard route matches LocalEval") {
      TestUtil.assertBagEq(Routes.standard(q, catalog), TestUtil.localEval(q, local), name)
    }
    test(s"$name: shredded route matches the standard route") {
      val sq = Shredder.shred("OUT", q)
      val nested = Unshredder.unshred("OUT", q.asBag, Routes.run(sq, catalog))
      TestUtil.assertBagEq(nested, Routes.standard(q, catalog))
    }
  }

  test("E2E pipeline: standard route matches LocalEval step by step") {
    val localOut = repro.core.LocalEval.evalProgram(BioQueries.e2e,
      repro.core.LocalEval.Env(Map.empty[String, Any], local))
    val sparkOut = Routes.run(BioQueries.e2e, catalog)
    for (step <- Seq("HybridMatrix", "SampleNetwork", "EffectMatrix", "ConnectMatrix", "Connectivity"))
      TestUtil.assertBagEq(sparkOut(step), localOut(step), step)
  }

  test("E2E pipeline: shredded route matches the standard route end-to-end") {
    val std = Routes.run(BioQueries.e2e, catalog)
    val cat = Routes.run(shredded(BioQueries.e2e), catalog)
    // Final output is flat: Connectivity__F is the whole result.
    TestUtil.assertBagEq(cat("Connectivity__F"), std("Connectivity"))
    // An intermediate nested output reassembles identically.
    val hm = Unshredder.unshred("HybridMatrix", BioQueries.e2e("HybridMatrix").expr.asBag, cat)
    TestUtil.assertBagEq(hm, std("HybridMatrix"))
  }

  test("E2E pipeline: the runner feeds each shredded assignment its predecessors' outputs") {
    val p = shredded(BioQueries.e2e)
    val names = p.assignments.map(_.name)
    assert(names.size == 12)
    // `each` records the outputs the assignment read (by the aliases it
    // gave earlier outputs) and returns its output under an alias of its own.
    val calls = Seq.newBuilder[(String, Set[String], DataFrame)]
    val cat = Routes.run(p, catalog, each = (n, df) => {
      val out = df.as(n)
      calls += ((n, aliasesRead(df).filter(names.contains), out))
      out
    })
    val seen = calls.result()
    // Once per assignment, in Shredder order: a step's top bag before its
    // dictionaries, and a dictionary's label domain before the dictionary.
    assert(seen.map(_._1) == names)
    for ((n, j) <- names.zipWithIndex if n.contains("__D_")) {
      assert(names.indexOf(n.take(n.indexOf("__D_")) + "__F") < j, n)
      if (names.contains(n + "__dom")) assert(names.indexOf(n + "__dom") < j, n)
    }
    // Each assignment read its predecessors' outputs as `each` returned
    // them, and only earlier outputs; the catalog holds what `each` returned.
    for (((n, read, out), j) <- seen.zipWithIndex) {
      assert(NRC.inputs(p(n).expr).filter(names.contains).subsetOf(read), n)
      assert(read.subsetOf(names.take(j).toSet), n)
      assert(cat(n) eq out, n)
    }
    // Recording changes no result.
    val plain = Routes.run(p, catalog)
    names.foreach(n => TestUtil.assertBagEq(cat(n), plain(n)))
  }

  test("T5 Step 2 under full: SampleNetwork__D_nodes joins the scores dictionary without flattening") {
    val plan = Optimizer.full(Unnester.compile(shredded(BioQueries.e2e)("SampleNetwork__D_nodes").expr))
    def unnests(p: Plan): Boolean = p.isInstanceOf[Unnest] || p.children.exists(unnests)
    assert(TestUtil.inputs(plan).contains("HybridMatrix__D_scores"), plan.pretty())
    assert(!TestUtil.inputs(plan).contains("HybridMatrix") && !unnests(plan), plan.pretty())
  }

  private def aliasesRead(df: DataFrame): Set[String] =
    df.asInstanceOf[classic.Dataset[_]].queryExecution.analyzed
      .collect { case a: SubqueryAlias => a.alias }.toSet
}
