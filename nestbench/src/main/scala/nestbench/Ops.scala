package nestbench

import java.util.Properties
import java.util.concurrent.{Callable, CountDownLatch, ExecutionException, Executors, TimeUnit, TimeoutException}
import scala.collection.mutable
import scala.concurrent.{Await, Promise}
import scala.concurrent.duration._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{CommandResultExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.datasources.v2.V2TableWriteExec
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeLike, ShuffleExchangeLike}
import org.apache.spark.sql.util.QueryExecutionListener

/** Spark work done under one job tag. Times are executor milliseconds. */
final class Counters {
  var jobs, failedJobs, stages, tasks = 0L
  var runMs, gcMs, shuffleWrite, shuffleRead, spill, peakMem = 0L
}

/** Attributes stage and task metrics to the benchmark's job tags.
  *
  * A job carries the tags of the thread that submitted it (Spark copies the
  * thread's local properties into every job, including the jobs AQE and
  * broadcasts submit from their own threads), so work is billed to the
  * operation that caused it no matter when its events arrive.
  */
final class TagListener(prefix: String) extends SparkListener {
  private val byTag = mutable.Map.empty[String, Counters]
  private val stageTags = mutable.Map.empty[Int, Seq[String]]
  private val openJobs = mutable.Map.empty[Int, Seq[String]]
  private val ended = mutable.Map.empty[String, Promise[Unit]]

  private def ours(p: Properties): Seq[String] =
    Option(p).flatMap(x => Option(x.getProperty("spark.job.tags"))).toSeq
      .flatMap(_.split(",")).filter(_.startsWith(prefix))

  private def c(tag: String): Counters = byTag.getOrElseUpdate(tag, new Counters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tags = ours(e.properties)
    openJobs(e.jobId) = tags
    tags.foreach(c(_).jobs += 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    openJobs.remove(e.jobId).foreach { tags =>
      if (e.jobResult != JobSucceeded) tags.foreach(c(_).failedJobs += 1)
      tags.foreach(t => ended.remove(t).foreach(_.trySuccess(())))
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageTags(e.stageInfo.stageId) = ours(e.properties)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageTags.get(e.stageInfo.stageId).foreach(_.foreach(c(_).stages += 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) stageTags.get(e.stageId).foreach(_.foreach { t =>
      val k = c(t)
      k.tasks += 1
      k.runMs += m.executorRunTime
      k.gcMs += m.jvmGCTime
      k.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      k.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      k.spill += m.memoryBytesSpilled + m.diskBytesSpilled
      k.peakMem = math.max(k.peakMem, m.peakExecutionMemory)
    })
  }

  /** Completes when the next job carrying `tag` ends. */
  def onEnd(tag: String): Promise[Unit] = synchronized { ended.getOrElseUpdate(tag, Promise[Unit]()) }

  /** Jobs carrying `tag` whose end event has not been seen yet. */
  def open(tag: String): Int = synchronized { openJobs.values.count(_.contains(tag)) }

  /** Removes and returns what was billed to `tag`. */
  def take(tag: String): Counters = synchronized { byTag.remove(tag).getOrElse(new Counters) }
}

/** What the final (post-AQE) physical plans of the forcing actions show:
  * exchange and broadcast counts of a `noop` write or of the `count` that
  * fills a cache, and the rows each `noop` write wrote.
  */
final case class PlanShape(exchanges: Int, broadcasts: Int, written: Long)

final class PlanListener extends QueryExecutionListener {
  private val seen = mutable.ArrayBuffer.empty[PlanShape]

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val shape = funcName match {
      case "count" =>
        // The plan that filled the cache, not the count's own aggregate.
        PlanListener.nodes(qe.executedPlan).collectFirst { case s: InMemoryTableScanExec => s }
          .map(s => PlanListener.shape(s.relation.cacheBuilder.cachedPlan))
      case "overwrite" => Some(PlanListener.shape(qe.executedPlan)) // the noop write
      case _ => None
    }
    shape.foreach(s => synchronized { seen += s })
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** The shapes of the actions since the last call, summed. */
  def drain(): PlanShape = synchronized {
    val r = PlanShape(seen.map(_.exchanges).sum, seen.map(_.broadcasts).sum, seen.map(_.written).sum)
    seen.clear()
    r
  }
}

object PlanListener {
  /** All nodes of an executed plan, looking through AQE wrappers but not
    * into cached inputs (their plans ran during set-up).
    */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case c: CommandResultExec => nodes(c.commandPhysicalPlan)
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case s: QueryStageExec => nodes(s.plan)
    case other => other +: other.children.flatMap(nodes)
  }

  /** Rows written are read from the write node's commit record, which
    * counts what the write tasks returned, not a plan estimate.
    */
  def shape(p: SparkPlan): PlanShape = {
    val ns = nodes(p)
    PlanShape(ns.count(_.isInstanceOf[ShuffleExchangeLike]), ns.count(_.isInstanceOf[BroadcastExchangeLike]),
      ns.collect { case w: V2TableWriteExec => w.commitProgress.fold(0L)(_.numOutputRows) }.sum)
  }
}

/** The outcome of one operation: its value or failure, its wall time and
  * the Spark work billed to its job tag.
  */
final case class OpResult[A](id: Int, value: Either[Throwable, A], wallNs: Long, cpuNs: Long, counters: Counters,
                             plan: PlanShape, sub: Map[String, Counters]) {
  def exchanges: Int = plan.exchanges
  def broadcasts: Int = plan.broadcasts
}

/** Runs operations closed-loop, one at a time, each on the single operation
  * thread under a job tag of its own.
  *
  * The thread sets its own tag, so every job of the operation carries it.
  * On timeout the operation's jobs are cancelled by tag until its thread
  * has returned, and it counts as failed. Before the counters are read, a
  * fence job is run and its end event awaited: listener events are
  * delivered in order, so by then every event of the operation's jobs has
  * been seen. Nothing sleeps to let events drain.
  */
final class OpRunner(spark: SparkSession) {
  private val sc: SparkContext = spark.sparkContext
  val prefix = "nestbench-"
  val tags = new TagListener(prefix)
  val plans = new PlanListener
  sc.addSparkListener(tags)
  spark.listenerManager.register(plans)

  private val pool = Executors.newSingleThreadExecutor { (r: Runnable) =>
    val t = new Thread(r, "nestbench-op"); t.setDaemon(true); t
  }
  private var n = 0
  private var subTags = Set.empty[String]

  /** Bills the jobs of `body`, run on the operation thread, additionally to
    * `name` (e.g. one shredded assignment).
    */
  def sub[A](name: String)(body: => A): A = {
    val t = s"${prefix}op-$n-$name"
    subTags += t
    sc.addJobTag(t)
    try body finally sc.removeJobTag(t)
  }

  def run[A](timeout: FiniteDuration)(body: Int => A): OpResult[A] = {
    fence()
    plans.drain()
    n += 1
    val id = n
    val tag = s"${prefix}op-$id"
    subTags = Set.empty
    val done = new CountDownLatch(1)
    val t0 = System.nanoTime()
    val cpu0 = OpRunner.processCpuNs()
    val fut = pool.submit(new Callable[A] {
      def call(): A =
        try {
          sc.addJobTag(tag)
          sc.setInterruptOnCancel(true)
          try body(id) finally sc.removeJobTag(tag)
        } finally done.countDown()
    })
    val value: Either[Throwable, A] =
      try Right(fut.get(timeout.toNanos, TimeUnit.NANOSECONDS))
      catch {
        case e: TimeoutException =>
          // Cancel by tag, then interrupt. A driver-side loop may submit
          // new jobs after a cancel, so keep cancelling until the thread has
          // returned and no job of the operation is still open.
          val giveUp = System.nanoTime() + 60.seconds.toNanos
          sc.cancelJobsWithTag(tag)
          fut.cancel(true)
          while ((!done.await(50, TimeUnit.MILLISECONDS) || { fence(); tags.open(tag) > 0 }) &&
                 System.nanoTime() < giveUp)
            sc.cancelJobsWithTag(tag)
          if (done.getCount > 0) throw new IllegalStateException(s"operation $id ignored cancellation")
          Left(e)
        case e: ExecutionException => Left(e.getCause)
      }
    val wall = System.nanoTime() - t0
    val cpu = OpRunner.processCpuNs() - cpu0
    fence()
    require(tags.open(tag) == 0, s"operation $id has jobs that never ended")
    val shape = plans.drain()
    val subs = subTags.toSeq.map(t => t.stripPrefix(s"${prefix}op-$id-") -> tags.take(t)).toMap
    OpResult(id, value, wall, cpu, tags.take(tag), shape, subs)
  }

  private var fences = 0

  /** Runs a one-task job and waits for its end event. */
  def fence(): Unit = {
    fences += 1
    val tag = s"${prefix}fence-$fences"
    val ended = tags.onEnd(tag)
    sc.addJobTag(tag)
    try sc.parallelize(Seq(1), 1).count() finally sc.removeJobTag(tag)
    Await.result(ended.future, 60.seconds)
    tags.take(tag)
    ()
  }

  def shutdown(): Unit = {
    pool.shutdownNow()
    pool.awaitTermination(30, TimeUnit.SECONDS)
    ()
  }
}

object OpRunner {
  /** CPU time of the whole JVM: the driver and the local executors. */
  def processCpuNs(): Long =
    java.lang.management.ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime
}
