package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baseline.SparkSQLBaseline
import repro.core.plan.Optimizer
import repro.data.NestedTpch
import repro.queries.TpchQueries
import Harness._

/** Fig. 8 / App. E.6 / App. E.7 — skew-handling on the narrow
  * nested-to-nested level-2 query over increasingly skewed inputs.
  *
  * Per the paper's setup: skew-unaware variants run `Optimizer.full`, with
  * aggregation pushing (on this query it fires on no plan: the standard
  * plan has nothing it can push, and Shred's lowest dictionary would only
  * get a leaf pre-aggregate keyed by more than its join key, which the
  * optimizer does not make); skew-aware variants run `pushProjections` and
  * rely on the light/heavy split. The one plan difference `full` makes
  * here is the partitioned nest stack of the standard plan.
  * `pushAggForUnaware = false` reproduces E.6: the skew-unaware variants
  * run `Optimizer.withoutAggPushing`, `full` without aggregation pushing,
  * so they keep the partitioned nest stack and the E.6 table differs from
  * Fig. 8 in pushing alone. `skews = Seq(0)` with all variants reproduces
  * the E.7 overhead table.
  */
object Fig8 {

  def run(spark: SparkSession, sf: Double, skews: Seq[Int] = 0 to 4,
          pushAggForUnaware: Boolean = true, table: String = "Fig8"): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    val level = 2

    for (skew <- skews) cached { keep =>
      val cfg = s"skew $skew"
      val t = NestedTpch.tables(spark, sf, skew).map(keep)
      // Narrow materialized COP input (the paper's skew experiment input).
      val nested = keep(NestedTpch.nestedInput(t, level, wide = false))
      val shredded = NestedTpch.shreddedInput(t, level, wide = false)
        .map { case (k, v) => k -> keep(v) }
      val inName = NestedTpch.inputName(level, wide = false)
      val cat = NestedTpch.catalog(t) + (inName -> nested) ++ shredded
      val q = query(TpchQueries.nestedToNested(level, wide = false))
      val optUnaware = if (pushAggForUnaware) Optimizer.full else Optimizer.withoutAggPushing

      out += measure(spark, table, cfg, "SparkSQL") {
        force(SparkSQLBaseline.nestedToNested(spark, nested, t.part, level, wide = false))
      }
      out ++= measureRoutes(spark, table, cfg, q, cat, optUnaware, unshred = false)
      // Skew-aware: no aggregation pushing, the light/heavy split instead.
      out ++= measureRoutes(spark, table, cfg, q, cat, Optimizer.pushProjections,
        skew = true, unshred = false)
    }
    out.result()
  }
}
