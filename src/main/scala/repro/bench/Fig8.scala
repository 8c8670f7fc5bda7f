package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baseline.SparkSQLBaseline
import repro.core.plan.Optimizer
import repro.data.NestedTpch
import repro.queries.TpchQueries
import repro.skew.{SkewConfig, SkewOps}
import Harness._

/** Fig. 8 / App. E.6 / App. E.7 — skew-handling on the narrow
  * nested-to-nested level-2 query over increasingly skewed inputs.
  *
  * Per the paper's setup: skew-unaware variants run with aggregation
  * pushing (on this query it fires only in Shred's lowest dictionary; the
  * standard plan has nothing it can push); skew-aware variants run without
  * it and rely on the light/heavy split. `pushAggForUnaware = false`
  * reproduces E.6; `skews = Seq(0)` with all variants reproduces the E.7
  * overhead table.
  */
object Fig8 {

  def run(spark: SparkSession, sf: Double, skews: Seq[Int] = 0 to 4,
          pushAggForUnaware: Boolean = true, table: String = "Fig8"): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    val skewCfg = SkewConfig()
    val level = 2

    for (skew <- skews) {
      val cfg = s"skew $skew"
      val t = NestedTpch.tables(spark, sf, skew).map(materialize)
      // Narrow materialized COP input (the paper's skew experiment input).
      val nested = materialize(NestedTpch.nestedInput(t, level, wide = false))
      val shredded = NestedTpch.shreddedInput(t, level, wide = false)
        .map { case (k, v) => k -> materialize(v) }
      val inName = NestedTpch.inputName(level, wide = false)
      val cat = NestedTpch.catalog(t) + (inName -> nested) ++ shredded
      val q = TpchQueries.nestedToNested(level, wide = false)
      val optUnaware = if (pushAggForUnaware) Optimizer.full else Optimizer.pushProjections

      out += measure(spark, table, cfg, "SparkSQL") {
        force(SparkSQLBaseline.nestedToNested(spark, nested, t.part, level, wide = false))
      }
      out ++= measureRoutes(spark, table, cfg, q, cat, optUnaware, unshred = false)
      // Skew-aware: no aggregation pushing, the light/heavy split instead.
      out ++= measureRoutes(spark, table, cfg, q, cat, Optimizer.pushProjections,
        SkewOps.skewJoin(skewCfg), suffix = "_skew", unshred = false)

      nested.unpersist()
      shredded.values.foreach(_.unpersist())
      t.all.foreach(_.unpersist())
    }
    out.result()
  }
}
