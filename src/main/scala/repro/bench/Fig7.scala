package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.SparkSQLBaseline
import repro.data.NestedTpch
import repro.queries.TpchQueries
import Harness._

/** Fig. 7 — the nested TPC-H micro-benchmark: flat-to-nested,
  * nested-to-nested and nested-to-flat queries, narrow and wide, nesting
  * levels 0–4, for SparkSQL / Standard / Shred / Unshred.
  *
  * As in the paper, nested-to-* queries read the materialized *wide*
  * flat-to-nested output (narrow queries then exercise projection pushing),
  * and reported runtimes start after inputs are cached. Shred materializes
  * every shredded assignment (dictionary); Unshred reads that catalog.
  */
object Fig7 {

  def run(spark: SparkSession, sf: Double,
          families: Seq[String] = Seq("flat-to-nested", "nested-to-nested", "nested-to-flat"),
          levels: Seq[Int] = 0 to 4,
          widths: Seq[Boolean] = Seq(false, true)): Seq[Result] = {
    val t = NestedTpch.tables(spark, sf).map(materialize)
    val flatCat = NestedTpch.catalog(t)
    val out = Seq.newBuilder[Result]

    for (family <- families; wide <- widths; level <- levels) {
      val cfg = s"$family L$level ${if (wide) "wide" else "narrow"}"
      val tableName = "Fig7"

      family match {
        case "flat-to-nested" =>
          out += measure(spark, tableName, cfg, "SparkSQL") {
            force(SparkSQLBaseline.flatToNested(spark, t, level, wide))
          }
          out ++= measureRoutes(spark, tableName, cfg,
            TpchQueries.flatToNested(level, wide), flatCat)

        case "nested-to-nested" | "nested-to-flat" =>
          // Wide materialized input for both query widths (paper setup).
          // Level 0 reads the flat Lineitem directly.
          val nested =
            if (level == 0) t.lineitem
            else materialize(NestedTpch.nestedInput(t, level, wide = true))
          val shreddedWide =
            if (level == 0) Map.empty[String, DataFrame]
            else NestedTpch.shreddedInput(t, level, wide = true).map {
              case (k, v) =>
                k.replace(NestedTpch.inputName(level, wide = true),
                  NestedTpch.inputName(level, wide)) -> materialize(v)
            }
          val inName = NestedTpch.inputName(level, wide)
          val cat = flatCat + (inName -> nested) ++ shreddedWide
          val toNested = family == "nested-to-nested"
          val q = if (toNested) TpchQueries.nestedToNested(level, wide)
                  else TpchQueries.nestedToFlat(level, wide)

          out += measure(spark, tableName, cfg, "SparkSQL") {
            val df = if (toNested)
              SparkSQLBaseline.nestedToNested(spark, nested, t.part, level, wide)
            else SparkSQLBaseline.nestedToFlat(spark, nested, t.part, level, wide)
            force(df)
          }
          out ++= measureRoutes(spark, tableName, cfg, q, cat, unshred = toNested)
          if (level > 0) { nested.unpersist(); () }
          shreddedWide.values.foreach(_.unpersist())
      }
    }
    t.all.foreach(_.unpersist())
    out.result()
  }
}
