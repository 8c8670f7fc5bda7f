package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench._

/** The one Spark session builder (the tests use it too): broadcast joins
  * off; AQE and its skew-join splitting pinned to Spark 4.1's defaults. */
object JobSession {
  def get(name: String): SparkSession =
    SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.adaptive.enabled", true)
      .config("spark.sql.adaptive.skewJoin.enabled", true)
      .getOrCreate()
}

/** spark-submit entrypoints: `TableJob <id> [sf]` runs an evaluation table
  * of [[repro.bench.Exhibits]] (T1–T6, T8–T11) and prints its rows;
  * `AppDJob [sf]` prints the App. D sharing counts (T7). Examples:
  *
  * {{{
  * spark-submit --class repro.jobs.TableJob repro.jar T4 0.1
  * spark-submit --class repro.jobs.AppDJob  repro.jar 0.1
  * }}}
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val exhibit = Exhibits(args.headOption.getOrElse(""))
    val sf = if (args.length > 1) args(1).toDouble else Harness.sf
    val spark = JobSession.get(exhibit.id)
    exhibit.report(spark, sf)
    spark.stop()
  }
}

object AppDJob {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("appD")
    val c = AppD.run(spark, sf)
    println(s"occurrences=${c.occurrences} flattened=${c.flattenedCandidates} dict=${c.dictCandidates}")
    spark.stop()
  }
}
