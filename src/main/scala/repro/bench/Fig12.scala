package repro.bench

import org.apache.spark.sql.SparkSession
import repro.data.BioData
import repro.queries.BioQueries
import Harness._

/** Fig. 12 — clinical exploration queries C1–C3 over a small and a large
  * Occurrences input, for Standard / Shred / Unshred.
  */
object Fig12 {

  def run(spark: SparkSession, sfSmall: Double, sfLarge: Double): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    for ((szName, sf) <- Seq("small" -> sfSmall, "large" -> sfLarge)) cached { keep =>
      val bio = BioData.tables(spark, sf)
      val cat = BioData.catalog(bio).map { case (k, v) => k -> keep(v) }
      for ((qn, q) <- BioQueries.clinical)
        out ++= measureRoutes(spark, "Fig12", s"$qn $szName", query(q), cat)
    }
    out.result()
  }
}
