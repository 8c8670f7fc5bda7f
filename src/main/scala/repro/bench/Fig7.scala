package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.SparkSQLBaseline
import repro.core.exec.Routes
import repro.data.NestedTpch
import repro.queries.TpchQueries
import repro.shred.{Shredder, Unshredder}
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

  def unpersistOutputs(sq: Shredder.ShreddedQuery, cat: Map[String, DataFrame]): Unit =
    sq.assignments.foreach(a => cat.get(a.name).foreach(_.unpersist()))

  def run(spark: SparkSession, sf: Double,
          families: Seq[String] = Seq("flat-to-nested", "nested-to-nested", "nested-to-flat"),
          levels: Seq[Int] = 0 to 4,
          widths: Seq[Boolean] = Seq(false, true),
          skewFactor: Int = 0): Seq[Result] = {
    val t0 = NestedTpch.tables(spark, sf, skewFactor)
    val t = NestedTpch.Tables(materialize(t0.lineitem), materialize(t0.orders),
      materialize(t0.customer), materialize(t0.nation), materialize(t0.region),
      materialize(t0.part))
    val flatCat = NestedTpch.catalog(t)
    val out = Seq.newBuilder[Result]

    for (family <- families; wide <- widths; level <- levels) {
      val cfg = s"$family L$level ${if (wide) "wide" else "narrow"}"
      val tableName = "Fig7"

      family match {
        case "flat-to-nested" =>
          val q = TpchQueries.flatToNested(level, wide)
          out += measure(spark, tableName, cfg, "SparkSQL") {
            force(SparkSQLBaseline.flatToNested(spark, t, level, wide))
          }
          out += measure(spark, tableName, cfg, "Standard") {
            force(Routes.standard(q, flatCat))
          }
          val sq = Shredder.shred("OUT", q)
          var shredCat: Map[String, DataFrame] = flatCat
          out += measure(spark, tableName, cfg, "Shred") {
            shredCat = Routes.run(sq.program, flatCat, each = (_, df) => materialize(df))
          }
          out += measure(spark, tableName, cfg, "Unshred") {
            force(Unshredder.unshred("OUT", sq.outTpe, shredCat))
          }
          unpersistOutputs(sq, shredCat)

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
          val q = if (family == "nested-to-nested") TpchQueries.nestedToNested(level, wide)
                  else TpchQueries.nestedToFlat(level, wide)

          out += measure(spark, tableName, cfg, "SparkSQL") {
            val df = if (family == "nested-to-nested")
              SparkSQLBaseline.nestedToNested(spark, nested, t.part, level, wide)
            else SparkSQLBaseline.nestedToFlat(spark, nested, t.part, level, wide)
            force(df)
          }
          out += measure(spark, tableName, cfg, "Standard") {
            force(Routes.standard(q, cat))
          }
          val sq = Shredder.shred("OUT", q)
          var shredCat: Map[String, DataFrame] = cat
          out += measure(spark, tableName, cfg, "Shred") {
            shredCat = Routes.run(sq.program, cat, each = (_, df) => materialize(df))
          }
          if (family == "nested-to-nested") {
            out += measure(spark, tableName, cfg, "Unshred") {
              force(Unshredder.unshred("OUT", sq.outTpe, shredCat))
            }
          }
          unpersistOutputs(sq, shredCat)
          if (level > 0) { nested.unpersist(); () }
          shreddedWide.values.foreach(_.unpersist())
      }
    }
    Seq(t.lineitem, t.orders, t.customer, t.nation, t.region, t.part).foreach(_.unpersist())
    out.result()
  }
}
