package repro.bench

import java.util.concurrent.{ConcurrentLinkedQueue, TimeoutException}
import scala.concurrent.{Await, Future}
import scala.concurrent.duration._
import scala.concurrent.ExecutionContext.Implicits.global
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.NRC
import repro.core.NRC.{Assignment, Expr, Program}
import repro.core.exec.{Routes, SparkExecutor}
import repro.core.plan.{Optimizer, Plan}
import repro.shred.{Shredder, Unshredder}
import repro.skew.SkewOps

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
      f"| $config%-28s | $strategy%-14s | $t | ${shuffleMB}%10.3f | $note"
    }
  }

  def timeoutSeconds: Int = sys.env.getOrElse("BENCH_TIMEOUT_S", "300").toInt

  /** Time `action` (which must force its own computation); capture shuffle.
    * The action's jobs carry this call's job tag, billed by `Meter`: the tag
    * is set on the thread that runs the action, so a pooled thread never
    * carries an earlier call's tag, and a timeout (`timeout` seconds)
    * cancels exactly its jobs.
    */
  def measure(spark: SparkSession, table: String, config: String, strategy: String,
              timeout: Int = timeoutSeconds)(action: => Unit): Result = {
    val sc = spark.sparkContext
    val tag = s"$table/$config/$strategy"
    val ((outcome, ms), work) = Meter.bill(spark, tag) {
      val t0 = System.nanoTime()
      val fut = Future {
        sc.setInterruptOnCancel(true)
        sc.addJobTag(tag)
        try action finally sc.removeJobTag(tag)
      }
      val outcome = Try(Await.result(fut, timeout.seconds))
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
        Result(table, config, strategy, ms, mb, ok = false, note = s"timeout ${timeout}s")
      case Failure(e) =>
        Result(table, config, strategy, ms, mb, ok = false,
          note = e.getClass.getSimpleName + ": " + Option(e.getMessage).getOrElse("").take(80))
    }
  }

  /** The route sequence of every §6 exhibit over program `p`, one row per
    * assignment: Standard, then Shred with every dictionary materialized,
    * then (if `unshred`) Unshred of Shred's outputs. Each step reads the
    * earlier outputs of its own route, so a step that reads a failed step's
    * output fails too. Assignment i (from 1) of a program of several reports
    * config `config + i`; a program of one reports `config`. `skew` runs the
    * light/heavy skew join, and its strategy names end in `_skew`.
    *
    * Standard caches an output only if a later assignment reads it, and
    * forces the others. The steps run in one `cached` scope, so everything
    * this call cached is released before it returns, also after a run that
    * failed part-way, and an input whose plan an output shares (T4's top
    * bag passes its shredded input through) stays cached.
    */
  def measureRoutes(spark: SparkSession, table: String, config: String, p: Program,
                    cat: Map[String, DataFrame],
                    optimize: Plan => Plan = Optimizer.full,
                    skew: Boolean = false, unshred: Boolean = true): Seq[Result] = {
    val joinImpl = if (skew) SkewOps.skewJoin() else SparkExecutor.defaultJoin
    val read = p.assignments.flatMap(a => NRC.inputs(a.expr)).toSet
    // One row per assignment; `step` returns the catalog the next step reads.
    def steps(strategy: String)(step: (Assignment, Map[String, DataFrame]) => Map[String, DataFrame]) = {
      var c = cat
      val rows = p.assignments.zipWithIndex.map { case (a, i) =>
        val cfg = if (p.assignments.size == 1) config else s"$config${i + 1}"
        measure(spark, table, cfg, strategy + (if (skew) "_skew" else "")) { c = step(a, c) }
      }
      (rows, c)
    }
    cached { keep =>
      val (std, _) = steps("Standard") { (a, c) =>
        val df = Routes.standard(a.expr, c, optimize, joinImpl)
        if (read(a.name)) c + (a.name -> keep(df)) else { force(df); c }
      }
      val (shred, shredCat) = steps("Shred") { (a, c) =>
        Routes.run(Shredder.shred(a.name, a.expr), c, optimize, joinImpl, (_, df) => keep(df))
      }
      val unsh = if (unshred) steps("Unshred") { (a, c) =>
        force(Unshredder.unshred(a.name, a.expr.asBag, shredCat)); c
      }._1 else Nil
      std ++ shred ++ unsh
    }
  }

  /** `q` as a program of one assignment, named `OUT`. */
  def query(q: Expr): Program = Program(Seq(Assignment("OUT", q)))

  /** Force a DataFrame fully (all columns, no pruning). */
  def force(df: DataFrame): Unit =
    df.write.format("noop").mode("overwrite").save()

  /** Runs `body` in a cache scope (§6 times routes over cached inputs, and
    * Shred materializes every dictionary). `keep(df)` persists `df`, fills
    * its cache with `force` (a `count()` would add an exchange of its own,
    * billed to the row that caches) and returns it; it fills also when the
    * plan is cached already. When `body` returns or throws, every
    * DataFrame `keep` cached is released, one whose fill failed included.
    * A DataFrame whose plan was cached already when `keep` saw it shares
    * that cache entry and is not released: `unpersist` drops every entry
    * of the same plan, so it would evict the earlier one too. `keep` may
    * run on another thread, such as `measure`'s action thread.
    */
  def cached[A](body: (DataFrame => DataFrame) => A): A = {
    val kept = new ConcurrentLinkedQueue[DataFrame]
    def keep(df: DataFrame): DataFrame = {
      if (df.storageLevel == StorageLevel.NONE) kept.add(df)
      force(df.persist())
      df
    }
    try body(keep) finally kept.forEach(_.unpersist())
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
