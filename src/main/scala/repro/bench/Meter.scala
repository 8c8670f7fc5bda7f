package repro.bench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spark work billed to one job tag: the jobs carrying the tag, the stages
  * those jobs ran (skipped stages excluded) and the bytes the stages wrote
  * to shuffle.
  */
final case class SparkWork(jobs: Int, stages: Int, shuffleWriteBytes: Long)

/** Bills Spark work by job tag. Jobs that do not carry the tag — run
  * concurrently on other threads, or stragglers of an earlier, cancelled
  * run — are not counted, however their events interleave with the tagged
  * ones.
  */
object Meter {

  /** Counts the jobs, stages and shuffle-write bytes of jobs carrying `tag`,
    * and opens `fenced` when the job carrying `fence` ends.
    */
  private final class Listener(tag: String, fence: String) extends SparkListener {
    val fenced = new CountDownLatch(1)
    private var jobs, stages = 0
    private var bytes = 0L
    private val stageIds = mutable.Set.empty[Int]
    private var fenceJob = -1

    private def carries(p: java.util.Properties, t: String): Boolean =
      Option(p).flatMap(x => Option(x.getProperty("spark.job.tags"))).exists(_.split(",").contains(t))

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (carries(e.properties, tag)) jobs += 1
      if (carries(e.properties, fence)) fenceJob = e.jobId
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (e.jobId == fenceJob) fenced.countDown()
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      if (carries(e.properties, tag)) { stages += 1; stageIds += e.stageInfo.stageId }
      ()
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      val m = e.stageInfo.taskMetrics
      if (stageIds(e.stageInfo.stageId) && m != null) bytes += m.shuffleWriteMetrics.bytesWritten
    }

    def work: SparkWork = synchronized(SparkWork(jobs, stages, bytes))
  }

  /** Runs `block` and returns its value with the Spark work of the jobs
    * that carry `tag` (the block tags its own jobs). The block must not
    * return while a tagged job still runs. Listener events arrive in order,
    * so once a fence job started after the block has ended, every event of
    * the tagged jobs has been seen.
    */
  def bill[A](spark: SparkSession, tag: String)(block: => A): (A, SparkWork) = {
    val sc = spark.sparkContext
    val fence = s"$tag/fence"
    val listener = new Listener(tag, fence)
    sc.addSparkListener(listener)
    try {
      val value = block
      sc.addJobTag(fence)
      try sc.parallelize(Seq(1), 1).count() finally sc.removeJobTag(fence)
      assert(listener.fenced.await(60, TimeUnit.SECONDS), s"fence job's end event for '$tag' never arrived")
      (value, listener.work)
    } finally sc.removeSparkListener(listener)
  }
}
