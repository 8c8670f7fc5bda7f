package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.SparkSQLBaseline
import repro.data.BioData
import repro.queries.BioQueries
import Harness._

/** Fig. 9 — the biomedical E2E pipeline, Steps 1–5, for SparkSQL (Steps 1–2,
  * where the paper's hand-written SQL exists), Standard and Shred. Each
  * step's input is the previous step's materialized output of the same
  * strategy; the final output is flat, so Shred needs no unshredding.
  */
object Fig9 {

  def run(spark: SparkSession, sf: Double): Seq[Result] = cached { keep =>
    val out = Seq.newBuilder[Result]
    val bio = BioData.tables(spark, sf)
    val cat0 = BioData.catalog(bio).map { case (k, v) => k -> keep(v) }

    // SparkSQL (Steps 1–2). Step 1's output is released before the routes run.
    cached { keep =>
      var sqlStep1: Option[DataFrame] = None
      out += measure(spark, "Fig9", "Step1", "SparkSQL") {
        sqlStep1 = Some(keep(SparkSQLBaseline.bioStep1(spark, cat0)))
      }
      out += measure(spark, "Fig9", "Step2", "SparkSQL") {
        sqlStep1 match {
          case Some(h) => force(SparkSQLBaseline.bioStep2(spark, cat0, h))
          case None    => sys.error("Step1 failed")
        }
      }
    }

    out ++= measureRoutes(spark, "Fig9", "Step", BioQueries.e2e, cat0, unshred = false)
    out.result()
  }
}
