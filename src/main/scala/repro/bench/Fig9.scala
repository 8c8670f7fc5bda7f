package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.SparkSQLBaseline
import repro.core.exec.Routes
import repro.data.BioData
import repro.queries.BioQueries
import repro.shred.Shredder
import Harness._

/** Fig. 9 — the biomedical E2E pipeline, Steps 1–5, for SparkSQL (Steps 1–2,
  * where the paper's hand-written SQL exists), Standard and Shred. Each
  * step's input is the previous step's materialized output of the same
  * strategy; the final output is flat, so Shred needs no unshredding.
  */
object Fig9 {

  def run(spark: SparkSession, sf: Double, candSkew: Double = 1.0): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    val bio = BioData.tables(spark, sf, candSkew)
    val cat0 = BioData.catalog(bio).map { case (k, v) => k -> materialize(v) }
    val steps = BioQueries.e2e.assignments

    // SparkSQL (Steps 1–2).
    var sqlStep1: Option[DataFrame] = None
    out += measure(spark, "Fig9", "Step1", "SparkSQL") {
      val df = materialize(SparkSQLBaseline.bioStep1(spark, cat0))
      sqlStep1 = Some(df)
    }
    out += measure(spark, "Fig9", "Step2", "SparkSQL") {
      sqlStep1 match {
        case Some(h) => force(SparkSQLBaseline.bioStep2(spark, cat0, h))
        case None    => sys.error("Step1 failed")
      }
    }
    sqlStep1.foreach(_.unpersist())

    // Standard route, step by step.
    var stdCat = cat0
    val stdOuts = Seq.newBuilder[DataFrame]
    for (a <- steps) {
      out += measure(spark, "Fig9", a.name.replaceAll("HybridMatrix", "Step1")
          .replaceAll("SampleNetwork", "Step2").replaceAll("EffectMatrix", "Step3")
          .replaceAll("ConnectMatrix", "Step4").replaceAll("Connectivity", "Step5"),
          "Standard") {
        val df = materialize(Routes.standard(a.expr, stdCat))
        stdCat = stdCat + (a.name -> df)
        stdOuts += df
      }
    }
    stdOuts.result().foreach(_.unpersist())

    // Shredded route, step by step; outputs stay shredded.
    var shCat = cat0
    val shOuts = Seq.newBuilder[DataFrame]
    for ((a, i) <- steps.zipWithIndex) {
      out += measure(spark, "Fig9", s"Step${i + 1}", "Shred") {
        shCat = Routes.run(Shredder.shred(a.name, a.expr).program, shCat,
          each = (_, df) => { val m = materialize(df); shOuts += m; m })
      }
    }
    shOuts.result().foreach(_.unpersist())
    cat0.values.foreach(_.unpersist())
    out.result()
  }
}
