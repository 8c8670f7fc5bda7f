package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench._
import repro.bench.Harness._

/** spark-submit entrypoints, one per evaluation table. Examples:
  *
  * {{{
  * spark-submit --class repro.jobs.Fig7Job  repro.jar nested-to-nested 0.1
  * spark-submit --class repro.jobs.Fig8Job  repro.jar 0.1
  * spark-submit --class repro.jobs.Fig9Job  repro.jar 0.1
  * spark-submit --class repro.jobs.Fig12Job repro.jar 0.1
  * spark-submit --class repro.jobs.AppDJob  repro.jar 0.1
  * spark-submit --class repro.jobs.E4Job    repro.jar 0.1
  * spark-submit --class repro.jobs.E1Job    repro.jar 0.1
  * }}}
  */
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

object Fig7Job {
  def main(args: Array[String]): Unit = {
    val families = if (args.nonEmpty && args(0) != "all") Seq(args(0))
                   else Seq("flat-to-nested", "nested-to-nested", "nested-to-flat")
    val sf = if (args.length > 1) args(1).toDouble else Harness.sf
    val spark = JobSession.get("fig7")
    printTable("Fig7", Fig7.run(spark, sf, families))
    spark.stop()
  }
}

object Fig8Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("fig8")
    printTable("Fig8", Fig8.run(spark, sf))
    spark.stop()
  }
}

object Fig9Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("fig9")
    printTable("Fig9", Fig9.run(spark, sf))
    spark.stop()
  }
}

object Fig12Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("fig12")
    printTable("Fig12", Fig12.run(spark, sf, sf * 5))
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

object E4Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("e4")
    printTable("E4", E4.run(spark, sf))
    spark.stop()
  }
}

object E6Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("e6")
    printTable("E6", Fig8.run(spark, sf, skews = Seq(0, 2, 4), pushAggForUnaware = false, table = "E6"))
    spark.stop()
  }
}

object E7Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("e7")
    printTable("E7", Fig8.run(spark, sf, skews = Seq(0), table = "E7"))
    spark.stop()
  }
}

object E1Job {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else Harness.sf
    val spark = JobSession.get("e1")
    printTable("E1", E1.run(spark, sf))
    spark.stop()
  }
}
