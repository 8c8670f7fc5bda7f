package repro.bench

import java.util.concurrent.TimeoutException
import scala.concurrent.{Await, Future}
import scala.concurrent.duration._
import scala.concurrent.ExecutionContext.Implicits.global
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.NRC.Expr
import repro.core.exec.{Routes, SparkExecutor}
import repro.core.plan.{Optimizer, Plan}
import repro.shred.{Shredder, Unshredder}

/** Benchmark harness: wall-clock + shuffle-write bytes per run (billed by
  * job tag through `Meter`), with a cancel-on-timeout guard that
  * reports `FAIL` — standing in for the paper's out-of-memory crashes, which
  * a 48 GB single-node heap does not reproduce at SF≈0.1.
  *
  * Runs force full materialization through the `noop` data source (a count
  * would let Catalyst prune the nested columns under test).
  */
object Harness {

  final case class Result(table: String, config: String, strategy: String,
                          millis: Long, shuffleMB: Double, ok: Boolean, note: String = "") {
    def row: String = {
      val t = if (ok) f"${millis / 1000.0}%8.2f" else "    FAIL"
      f"| $config%-28s | $strategy%-14s | $t | ${shuffleMB}%10.1f | $note"
    }
  }

  def timeoutSeconds: Int = sys.env.getOrElse("BENCH_TIMEOUT_S", "300").toInt

  /** Time `action` (which must force its own computation); capture shuffle.
    * The action's jobs carry this call's job tag, billed by `Meter`: the tag
    * is set on the thread that runs the action, so a pooled thread never
    * carries an earlier call's tag, and a timeout cancels exactly its jobs.
    */
  def measure(spark: SparkSession, table: String, config: String, strategy: String)
             (action: => Unit): Result = {
    val sc = spark.sparkContext
    val tag = s"$table/$config/$strategy"
    val ((outcome, ms), work) = Meter.bill(spark, tag) {
      val t0 = System.nanoTime()
      val fut = Future {
        sc.setInterruptOnCancel(true)
        sc.addJobTag(tag)
        try action finally sc.removeJobTag(tag)
      }
      val outcome = Try(Await.result(fut, timeoutSeconds.seconds))
      val ms = (System.nanoTime() - t0) / 1000000
      // Timed out: cancel this call's jobs until the run ends. A job the
      // action starts after one cancellation is cancelled on the next pass.
      while (!fut.isCompleted) {
        sc.cancelJobsWithTag(tag)
        Try(Await.ready(fut, 1.second))
      }
      (outcome, ms)
    }
    val mb = work.shuffleWriteBytes / 1e6
    outcome match {
      case Success(_) => Result(table, config, strategy, ms, mb, ok = true)
      case Failure(_: TimeoutException) =>
        Result(table, config, strategy, ms, mb, ok = false, note = s"timeout ${timeoutSeconds}s")
      case Failure(e) =>
        Result(table, config, strategy, ms, mb, ok = false,
          note = e.getClass.getSimpleName + ": " + Option(e.getMessage).getOrElse("").take(80))
    }
  }

  /** The route sequence of every §6 exhibit: Standard, then Shred with every
    * dictionary materialized, then (if `unshred`) Unshred of Shred's output.
    * Strategy names end in `suffix`. Shred's outputs are released before
    * this returns, also those of a run that failed part-way.
    */
  def measureRoutes(spark: SparkSession, table: String, config: String, q: Expr,
                    cat: Map[String, DataFrame],
                    optimize: Plan => Plan = Optimizer.full,
                    joinImpl: SparkExecutor.JoinImpl = SparkExecutor.defaultJoin,
                    suffix: String = "", unshred: Boolean = true): Seq[Result] = {
    val std = measure(spark, table, config, "Standard" + suffix) {
      force(Routes.standard(q, cat, optimize, joinImpl))
    }
    val sq = Shredder.shred("OUT", q)
    val dicts = Seq.newBuilder[DataFrame]
    var shredCat = cat
    val shred = measure(spark, table, config, "Shred" + suffix) {
      shredCat = Routes.run(sq.program, cat, optimize, joinImpl,
        (_, df) => { val m = materialize(df); dicts += m; m })
    }
    val unsh = if (unshred) Seq(measure(spark, table, config, "Unshred" + suffix) {
      force(Unshredder.unshred("OUT", sq.outTpe, shredCat))
    }) else Nil
    dicts.result().foreach(_.unpersist())
    std +: shred +: unsh
  }

  /** Force a DataFrame fully (all columns, no pruning). */
  def force(df: DataFrame): Unit =
    df.write.format("noop").mode("overwrite").save()

  /** Persist and materialize (input caching, untimed — paper counts runtime
    * after caching inputs).
    */
  def materialize(df: DataFrame): DataFrame = {
    val p = df.persist()
    p.count()
    p
  }

  def printTable(title: String, rows: Seq[Result]): Unit = {
    println()
    println(s"==== $title ====")
    println(f"| ${"config"}%-28s | ${"strategy"}%-14s | ${"time_s"}%8s | ${"shuffleMB"}%10s | note")
    rows.foreach(r => println(r.row))
    println(s"==== end $title ====")
  }

  def sf: Double = sys.env.getOrElse("BENCH_SF", "0.1").toDouble
}
