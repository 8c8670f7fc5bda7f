package nestbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.concurrent.duration._
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
  * or `--selftest`. Prints one JSON result object as the last line of
  * standard output; see README.md for the load model and the metrics.
  */
object Main {
  final case class Args(workload: String = "", seed: Long = 1, seconds: Int = 10,
                        trace: Boolean = false, selftest: Boolean = false)

  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, a.copy(seconds = v.toInt))
    case "--trace" :: v :: rest => parse(rest, a.copy(trace = v == "1"))
    case "--selftest" :: rest => parse(rest, a.copy(selftest = true))
    case Nil => a
    case other => throw new IllegalArgumentException(s"unexpected arguments: ${other.mkString(" ")}")
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val workDir = Paths.get(sys.props.getOrElse("nestbench.work", ".bench_build/nestbench")).toAbsolutePath
    Files.createDirectories(workDir)
    val spark = Session.create(workDir.toString)
    val code =
      try {
        if (a.selftest) SelfTest.run(spark)
        else {
          val w = Workloads(a.workload)
          val r = new Bench(spark, w, a).run()
          val file = workDir.resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
          Files.write(file, r.record.getBytes(StandardCharsets.UTF_8))
          println(r.config)
          if (a.trace) println(r.assignments)
          println(r.result)
          0
        }
      } finally spark.stop()
    sys.exit(code)
  }
}

/** The pinned Spark configuration, recorded with every result. */
object Session {
  /** Two task threads. Every route here is bound by per-job overhead (cores
    * 25–40 % busy at four), and leaving cores to the driver, JIT and
    * collector threads cut the run-to-run spread of route times from
    * 12–16 % to 3–9 % of the median.
    */
  val cores: Int = math.min(2, Runtime.getRuntime.availableProcessors)

  def settings(workDir: String): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[$cores]",
    // spark.range's partition count, and so SynthData's rand(seed) columns,
    // follow this value; pinning it keeps inputs equal across hosts.
    "spark.default.parallelism" -> "4",
    // At the benchmark's scale, 64 partitions (the tests' value) make
    // per-partition shuffle-file overhead dominate every route.
    "spark.sql.shuffle.partitions" -> "8",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.enabled" -> "true",
    "spark.sql.adaptive.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.coalescePartitions.enabled" -> "true",
    "spark.sql.adaptive.coalescePartitions.parallelismFirst" -> "true",
    "spark.sql.adaptive.coalescePartitions.minPartitionSize" -> "1MB",
    "spark.sql.adaptive.advisoryPartitionSizeInBytes" -> "64MB",
    "spark.sql.adaptive.localShuffleReader.enabled" -> "true",
    "spark.sql.adaptive.skewJoin.enabled" -> "true",
    "spark.sql.adaptive.skewJoin.skewedPartitionFactor" -> "5.0",
    "spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes" -> "256MB",
    "spark.sql.adaptive.optimizeSkewsInRebalancePartitions.enabled" -> "true",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> s"$workDir/spark-local",
    "spark.sql.warehouse.dir" -> s"$workDir/warehouse",
  )

  def create(workDir: String): SparkSession = {
    val b = SparkSession.builder.appName("nestbench")
    settings(workDir).foreach { case (k, v) => b.config(k, v) }
    b.getOrCreate()
  }
}

/** Checks the operation runner itself: a deliberately slow operation times
  * out, its jobs are cancelled, and the next operation's counters exclude
  * its work.
  */
object SelfTest {
  def run(spark: SparkSession): Int = {
    import org.apache.spark.sql.functions._
    val ops = new OpRunner(spark)
    def probe(): Unit = spark.range(0, 200000, 1, 4).repartition(8)
      .select((col("id") % 7).as("k")).groupBy("k").count()
      .write.format("noop").mode("overwrite").save()
    val nap = udf((x: Long) => { Thread.sleep(100); x })
    val alone = ops.run(60.seconds)(_ => probe())
    val t0 = System.nanoTime()
    val slow = ops.run(1500.millis)(_ => spark.range(0, 400, 1, 4).select(nap(col("id")).as("x"))
      .repartition(4).write.format("noop").mode("overwrite").save())
    val slowS = (System.nanoTime() - t0) / 1e9
    val next = ops.run(60.seconds)(_ => probe())
    ops.shutdown()
    val checks = Seq(
      "baseline ran" -> (alone.value.isRight && alone.counters.shuffleWrite > 0),
      "slow operation timed out" -> slow.value.left.exists(_.isInstanceOf[java.util.concurrent.TimeoutException]),
      "its jobs were cancelled" -> (slow.counters.failedJobs >= 1),
      "cancellation was prompt" -> (slowS < 15),
      "next operation succeeded" -> next.value.isRight,
      "next shuffle bytes exclude it" -> (next.counters.shuffleWrite == alone.counters.shuffleWrite),
      "next jobs and tasks exclude it" ->
        (next.counters.jobs == alone.counters.jobs && next.counters.tasks == alone.counters.tasks),
      "final plan has both exchanges" -> (alone.exchanges == 2 && next.exchanges == 2))
    checks.foreach { case (n, ok) => Console.err.println(s"[selftest] ${if (ok) "ok  " else "FAIL"} $n") }
    val pass = checks.forall(_._2)
    println(Json.obj(Seq("selftest" -> Json.str(if (pass) "pass" else "fail"),
      "slow_op_s" -> Json.num(slowS), "slow_op_shuffle_bytes" -> slow.counters.shuffleWrite.toString,
      "next_shuffle_bytes" -> next.counters.shuffleWrite.toString,
      "alone_shuffle_bytes" -> alone.counters.shuffleWrite.toString)))
    if (pass) 0 else 1
  }
}

/** Cached workload inputs and how long making them took. */
final case class Inputs(catalog: Map[String, DataFrame], genNs: Long, cacheNs: Long, rows: Long) {
  def unpersist(): Unit = catalog.values.foreach(_.unpersist(blocking = true))
}

object Inputs {
  /** Generate the flat inputs into the cache, then derive and cache the
    * nested and shredded ones from them.
    */
  def make(spark: SparkSession, w: Workload, sf: Double, seed: Long): Inputs = {
    def cache(m: Map[String, DataFrame]): (Map[String, DataFrame], Long) = {
      val c = m.map { case (k, v) => k -> v.persist() }
      (c, c.values.map(_.count()).sum)
    }
    val g = w.generate(spark, sf, seed)
    val t0 = System.nanoTime()
    val (flat, n1) = cache(g.flat)
    val t1 = System.nanoTime()
    val (derived, n2) = cache(g.derive(flat))
    val t2 = System.nanoTime()
    Inputs(flat ++ derived, t1 - t0, t2 - t1, n1 + n2)
  }
}

object Stats {
  /** NaN (reported as null) for no samples, so a route that never
    * succeeded cannot read as a gain.
    */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }
}
