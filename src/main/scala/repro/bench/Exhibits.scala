package repro.bench

import org.apache.spark.sql.SparkSession
import Harness._

/** The evaluation tables (DESIGN.md T1–T11) that print benchmark rows, each
  * with its parameters stated once: the `bench/` suites and
  * `repro.jobs.TableJob` both run them from here. T7 (App. D) counts tuples,
  * not rows, and stays outside.
  */
object Exhibits {

  final case class Exhibit(id: String, title: String, run: (SparkSession, Double) => Seq[Result]) {
    /** Run at scale factor `sf` and print the rows as a table. */
    def report(spark: SparkSession, sf: Double): Seq[Result] = {
      val rows = run(spark, sf)
      printTable(s"$id $title", rows)
      rows
    }
  }

  val all: Seq[Exhibit] = Seq(
    Exhibit("T1", "Fig. 7 flat-to-nested (narrow+wide, levels 0-4)",
      Fig7.run(_, _, "flat-to-nested")),
    Exhibit("T2", "Fig. 7 nested-to-nested (narrow+wide, levels 0-4)",
      Fig7.run(_, _, "nested-to-nested")),
    Exhibit("T3", "Fig. 7 nested-to-flat (narrow+wide, levels 0-4)",
      Fig7.run(_, _, "nested-to-flat")),
    Exhibit("T4", "Fig. 8 skew-handling (nested-to-nested narrow L2, skew 0-4)",
      Fig8.run(_, _)),
    Exhibit("T5", "Fig. 9 biomedical E2E pipeline (Steps 1-5)", Fig9.run(_, _)),
    Exhibit("T6", "Fig. 12 clinical queries C1-C3 (small+large)",
      (spark, sf) => Fig12.run(spark, sf, sf * 5)),
    Exhibit("T8", "App. E.4 standard-route optimization levels", E4.run(_, _)),
    Exhibit("T9", "App. E.6 skew-handling without aggregation pushing",
      Fig8.run(_, _, skews = Seq(0, 2, 4), pushAggForUnaware = false, table = "E6")),
    Exhibit("T10", "App. E.7 skew-handling overhead on non-skewed data",
      Fig8.run(_, _, skews = Seq(0), table = "E7")),
    Exhibit("T11", "App. E.1 RDD vs Dataset executors", E1.run(_, _)),
  )

  def apply(id: String): Exhibit = all.find(_.id == id).getOrElse(
    throw new IllegalArgumentException(
      s"unknown table '$id'; valid: ${all.map(_.id).mkString(", ")}"))
}
