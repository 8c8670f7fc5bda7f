package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.SparkSQLBaseline
import repro.core.exec.Routes
import repro.core.plan.Optimizer
import repro.data.NestedTpch
import repro.queries.TpchQueries
import repro.shred.Shredder
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
      val t0 = NestedTpch.tables(spark, sf, skew)
      val t = t0.copy(lineitem = materialize(t0.lineitem), orders = materialize(t0.orders),
        customer = materialize(t0.customer), part = materialize(t0.part))
      val flatCat = NestedTpch.catalog(t)
      // Narrow materialized COP input (the paper's skew experiment input).
      val nested = materialize(NestedTpch.nestedInput(t, level, wide = false))
      val shredded = NestedTpch.shreddedInput(t, level, wide = false)
        .map { case (k, v) => k -> materialize(v) }
      val inName = NestedTpch.inputName(level, wide = false)
      val cat = flatCat + (inName -> nested) ++ shredded
      val q = TpchQueries.nestedToNested(level, wide = false)
      val optUnaware = if (pushAggForUnaware) Optimizer.full else Optimizer.pushProjections
      val optAware   = Optimizer.pushProjections // no aggregation pushing

      out += measure(spark, table, cfg, "SparkSQL") {
        force(SparkSQLBaseline.nestedToNested(spark, nested, t.part, level, wide = false))
      }
      out += measure(spark, table, cfg, "Standard") {
        force(Routes.standard(q, cat, optUnaware))
      }
      out += measure(spark, table, cfg, "Standard_skew") {
        force(Routes.standard(q, cat, optAware, SkewOps.skewJoin(skewCfg)))
      }
      val sq = Shredder.shred("OUT", q)
      var c1: Map[String, DataFrame] = cat
      out += measure(spark, table, cfg, "Shred") {
        c1 = Routes.run(sq.program, cat, optUnaware, each = (_, df) => materialize(df))
      }
      Fig7.unpersistOutputs(sq, c1)
      var c2: Map[String, DataFrame] = cat
      out += measure(spark, table, cfg, "Shred_skew") {
        c2 = Routes.run(sq.program, cat, optAware, SkewOps.skewJoin(skewCfg),
          (_, df) => materialize(df))
      }
      Fig7.unpersistOutputs(sq, c2)

      nested.unpersist()
      shredded.values.foreach(_.unpersist())
      Seq(t.lineitem, t.orders, t.customer, t.part).foreach(_.unpersist())
    }
    out.result()
  }
}
