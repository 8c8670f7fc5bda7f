package repro.baseline

import repro.{SparkSpec, TestData, TestUtil}
import repro.core.exec.Routes
import repro.data.{BioData, NestedTpch}
import repro.queries.{BioQueries, TpchQueries}

/** The hand-written SparkSQL competitor must agree with the compiled routes
  * on every benchmark query (otherwise Fig. 7/8/9 comparisons are moot).
  */
class SparkSQLBaselineSpec extends SparkSpec {

  private lazy val t       = TestData.tables(spark)
  private lazy val catalog = NestedTpch.catalog(t)

  for (level <- 0 to 4) {
    test(s"SparkSQL flat-to-nested level $level narrow matches the standard route") {
      val df = SparkSQLBaseline.flatToNested(spark, t, level, wide = false)
      TestUtil.assertBagEq(df, Routes.standard(TpchQueries.flatToNested(level, wide = false), catalog))
    }
  }

  test("SparkSQL flat-to-nested level 2 wide matches the standard route") {
    val df = SparkSQLBaseline.flatToNested(spark, t, 2, wide = true)
    TestUtil.assertBagEq(df, Routes.standard(TpchQueries.flatToNested(2, wide = true), catalog))
  }

  for (level <- 0 to 4) {
    test(s"SparkSQL nested-to-nested level $level narrow matches the standard route") {
      val nested = NestedTpch.nestedInput(t, level, wide = false)
      val df = SparkSQLBaseline.nestedToNested(spark, nested, t.part, level, wide = false)
      val cat = catalog + (NestedTpch.inputName(level, wide = false) -> nested)
      TestUtil.assertBagEq(df, Routes.standard(TpchQueries.nestedToNested(level, wide = false), cat))
    }
  }

  test("SparkSQL nested-to-nested level 2 wide matches the standard route") {
    val nested = NestedTpch.nestedInput(t, 2, wide = true)
    val df = SparkSQLBaseline.nestedToNested(spark, nested, t.part, 2, wide = true)
    val cat = catalog + (NestedTpch.inputName(2, wide = true) -> nested)
    TestUtil.assertBagEq(df, Routes.standard(TpchQueries.nestedToNested(2, wide = true), cat))
  }

  for (level <- 0 to 4) {
    test(s"SparkSQL nested-to-flat level $level narrow matches the standard route") {
      val nested = NestedTpch.nestedInput(t, level, wide = false)
      val df = SparkSQLBaseline.nestedToFlat(spark, nested, t.part, level, wide = false)
      val cat = catalog + (NestedTpch.inputName(level, wide = false) -> nested)
      TestUtil.assertBagEq(df, Routes.standard(TpchQueries.nestedToFlat(level, wide = false), cat))
    }
  }

  test("SparkSQL bio Step1 matches the standard route") {
    val bio = BioData.tables(spark, sf = 0.003)
    val cat = BioData.catalog(bio)
    val df = SparkSQLBaseline.bioStep1(spark, cat)
    TestUtil.assertBagEq(df, Routes.standard(BioQueries.step1, cat))
  }

  test("SparkSQL bio Step2 matches the standard route") {
    val bio = BioData.tables(spark, sf = 0.003)
    val cat = BioData.catalog(bio)
    val hybrid = Routes.standard(BioQueries.step1, cat)
    val df = SparkSQLBaseline.bioStep2(spark, cat, hybrid)
    TestUtil.assertBagEq(df,
      Routes.standard(BioQueries.step2, cat + ("HybridMatrix" -> hybrid)))
  }
}
