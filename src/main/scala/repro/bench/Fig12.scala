package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.exec.Routes
import repro.data.BioData
import repro.queries.BioQueries
import repro.shred.{Shredder, Unshredder}
import Harness._

/** Fig. 12 — clinical exploration queries C1–C3 over a small and a large
  * Occurrences input, for Standard / Shred / Unshred.
  */
object Fig12 {

  def run(spark: SparkSession, sfSmall: Double, sfLarge: Double): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    for ((szName, sf) <- Seq("small" -> sfSmall, "large" -> sfLarge)) {
      val bio = BioData.tables(spark, sf)
      val cat = BioData.catalog(bio).map { case (k, v) => k -> materialize(v) }
      for ((qn, q) <- BioQueries.clinical) {
        val cfg = s"$qn $szName"
        out += measure(spark, "Fig12", cfg, "Standard") {
          force(Routes.standard(q, cat))
        }
        val sq = Shredder.shred("OUT", q)
        var shredCat: Map[String, DataFrame] = cat
        out += measure(spark, "Fig12", cfg, "Shred") {
          shredCat = Routes.run(sq.program, cat, each = (_, df) => materialize(df))
        }
        out += measure(spark, "Fig12", cfg, "Unshred") {
          force(Unshredder.unshred("OUT", sq.outTpe, shredCat))
        }
        Fig7.unpersistOutputs(sq, shredCat)
      }
      cat.values.foreach(_.unpersist())
    }
    out.result()
  }
}
