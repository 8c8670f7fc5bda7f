package repro.exec

import repro.{SparkSpec, TestData, TestUtil}
import repro.core.LocalEval
import repro.core.exec.{RddExecutor, SparkExecutor}
import repro.core.plan.Unnester
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** The RDD executor (Fig. 11) must agree with the Dataset executor (Fig. 10)
  * on identical plans — the premise of the E.1 comparison.
  */
class RddExecutorSpec extends SparkSpec {

  private lazy val t       = TestData.tables(spark)
  private lazy val catalog = NestedTpch.catalog(t)

  private def rddCatalog(cat: Map[String, org.apache.spark.sql.DataFrame]) =
    cat.map { case (n, df) => n -> RddExecutor.fromDataFrame(df) }

  private def compare(q: repro.core.NRC.Expr,
                      cat: Map[String, org.apache.spark.sql.DataFrame]): Unit = {
    val plan = Unnester.compile(q)
    val df   = new SparkExecutor(cat).execute(plan)
    val rdd  = new RddExecutor(rddCatalog(cat)).execute(plan)
    val got  = LocalEval.canon(RddExecutor.toLocal(rdd))
    val exp  = LocalEval.canon(repro.core.SparkValues.toBag(df))
    assert(got == exp, s"\n  rdd: ${got.take(600)}\n  df:  ${exp.take(600)}")
  }

  test("RDD executor matches DataFrame executor on flat-to-nested level 2 narrow") {
    compare(TpchQueries.flatToNested(2, wide = false), catalog)
  }

  test("RDD executor matches DataFrame executor on flat-to-nested level 1 wide") {
    compare(TpchQueries.flatToNested(1, wide = true), catalog)
  }

  test("RDD executor matches DataFrame executor on nested-to-nested level 2 narrow") {
    val nested = NestedTpch.nestedInput(t, 2, wide = false)
    compare(TpchQueries.nestedToNested(2, wide = false),
      catalog + (NestedTpch.inputName(2, wide = false) -> nested))
  }

  test("RDD executor matches DataFrame executor on nested-to-flat level 2 narrow") {
    val nested = NestedTpch.nestedInput(t, 2, wide = false)
    compare(TpchQueries.nestedToFlat(2, wide = false),
      catalog + (NestedTpch.inputName(2, wide = false) -> nested))
  }

  test("RDD executor matches DataFrame executor on nested-to-flat level 0") {
    compare(TpchQueries.nestedToFlat(0, wide = false), catalog)
  }
}
