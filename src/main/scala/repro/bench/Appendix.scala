package repro.bench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.exec.{RddExecutor, Routes, SparkExecutor}
import repro.core.plan.{Optimizer, Unnester}
import repro.data.{BioData, NestedTpch}
import repro.queries.TpchQueries
import repro.shred.ShredTypes
import Harness._

/** App. D — succinct representation and sharing: tuple counts of the
  * flattened candidates (standard route: annotations duplicated per
  * occurrence) versus the candidates dictionary (shredded: one entry per
  * distinct mutation).
  */
object AppD {

  final case class Counts(occurrences: Long, flattenedCandidates: Long,
                          dictCandidates: Long)

  def run(spark: SparkSession, sf: Double): Counts = {
    val bio = BioData.tables(spark, sf)
    val occ = bio.occurrences.persist(); occ.count()
    val dict = bio.occurrencesShredded(ShredTypes.dictName("Occurrences", Seq("candidates")))
    val occF = bio.occurrencesShredded(ShredTypes.topName("Occurrences"))
    val flattened = occ.select(explode(col("candidates"))).count()
    val used = dict.join(occF.select(col("candidates")).distinct(),
      dict(ShredTypes.LabelCol) === col("candidates")).count()
    val c = Counts(occ.count(), flattened, used)
    occ.unpersist()
    c
  }
}

/** App. E.4 — standard-route optimization levels: none / pushed projections /
  * full, on flat-to-nested and nested-to-nested queries.
  */
object E4 {

  def run(spark: SparkSession, sf: Double, levels: Seq[Int] = Seq(0, 1, 2),
          widths: Seq[Boolean] = Seq(false, true)): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    val t = NestedTpch.tables(spark, sf).map(materialize)
    val flatCat = NestedTpch.catalog(t)

    for (wide <- widths; level <- levels) {
      val w = if (wide) "wide" else "narrow"
      for (opt <- 0 to 2) {
        val strat = Seq("Std(no opt)", "Std(proj)", "Std(full)")(opt)
        out += measure(spark, "E4", s"flat-to-nested L$level $w", strat) {
          force(Routes.standard(TpchQueries.flatToNested(level, wide), flatCat, Optimizer.level(opt)))
        }
      }
      if (level >= 1) {
        val nested = materialize(NestedTpch.nestedInput(t, level, wide = true))
        val cat = flatCat + (NestedTpch.inputName(level, wide) -> nested)
        for (opt <- 0 to 2) {
          val strat = Seq("Std(no opt)", "Std(proj)", "Std(full)")(opt)
          out += measure(spark, "E4", s"nested-to-nested L$level $w", strat) {
            force(Routes.standard(TpchQueries.nestedToNested(level, wide), cat, Optimizer.level(opt)))
          }
        }
        nested.unpersist()
      }
    }
    t.all.foreach(_.unpersist())
    out.result()
  }
}

/** App. E.1 — RDD vs Dataset executors on identical plans. */
object E1 {

  def run(spark: SparkSession, sf: Double, levels: Seq[Int] = Seq(0, 1, 2)): Seq[Result] = {
    val out = Seq.newBuilder[Result]
    val t = NestedTpch.tables(spark, sf).map(materialize)
    val flatCat = NestedTpch.catalog(t)

    for (level <- levels) {
      for ((family, mkQ) <- Seq(
        "flat-to-nested" -> ((l: Int) => TpchQueries.flatToNested(l, wide = false)),
        "nested-to-nested" -> ((l: Int) => TpchQueries.nestedToNested(l, wide = false)))) {
        val (cat, cleanup) =
          if (family == "flat-to-nested" || level == 0) (flatCat, () => ())
          else {
            val nested = materialize(NestedTpch.nestedInput(t, level, wide = false))
            (flatCat + (NestedTpch.inputName(level, wide = false) -> nested),
              () => { nested.unpersist(); () })
          }
        val plan = Optimizer.full(Unnester.compile(mkQ(level)))
        out += measure(spark, "E1", s"$family L$level narrow", "Dataset") {
          force(new SparkExecutor(cat).execute(plan))
        }
        // RDD conversion of cached inputs is untimed (both executors start
        // from cached inputs; the conversion is the Fig. 11 representation).
        val rddCat = cat.map { case (n, df) => n -> RddExecutor.fromDataFrame(df).cache() }
        rddCat.values.foreach(_.count())
        out += measure(spark, "E1", s"$family L$level narrow", "RDD") {
          new RddExecutor(rddCat).execute(plan).foreach(_ => ())
        }
        rddCat.values.foreach(_.unpersist())
        cleanup()
      }
    }
    t.all.foreach(_.unpersist())
    out.result()
  }
}
