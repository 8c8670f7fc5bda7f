package repro

import java.util.UUID
import java.util.concurrent.{CountDownLatch, TimeUnit}
import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.Assertions._
import repro.core.{LocalEval, SparkValues}
import repro.core.NRC.Expr

/** Spark work done by one block: the jobs it ran, the stages those jobs
  * ran (skipped stages excluded) and the bytes the stages wrote to shuffle.
  */
final case class SparkWork(jobs: Int, stages: Int, shuffleWriteBytes: Long)

/** Shared assertions for comparing Spark results against the LocalEval
  * reference interpreter, order-insensitively and recursively on nested bags,
  * and for observing the Spark work a block does.
  */
object TestUtil {

  def assertBagEq(actual: DataFrame, expected: LocalEval.Bag, hint: String = ""): Unit = {
    val got = LocalEval.canon(SparkValues.toBag(actual))
    val exp = LocalEval.canon(expected)
    assert(got == exp, s"$hint\n  spark: ${got.take(800)}\n  local: ${exp.take(800)}")
  }

  def assertBagEq(actual: DataFrame, expected: DataFrame): Unit = {
    val got = LocalEval.canon(SparkValues.toBag(actual))
    val exp = LocalEval.canon(SparkValues.toBag(expected))
    assert(got == exp, s"\n  left:  ${got.take(800)}\n  right: ${exp.take(800)}")
  }

  def localEval(q: Expr, inputs: Map[String, LocalEval.Bag]): LocalEval.Bag =
    LocalEval.evalBag(q, LocalEval.Env(Map.empty[String, Any], inputs))

  def toLocal(catalog: Map[String, DataFrame]): Map[String, LocalEval.Bag] =
    catalog.map { case (n, df) => n -> SparkValues.toBag(df) }

  /** Counts the jobs, stages and shuffle-write bytes of jobs carrying `tag`,
    * and opens `fenced` when the job carrying `fence` ends.
    */
  private final class WorkListener(tag: String, fence: String) extends SparkListener {
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

  /** Runs `block` under a fresh job tag and returns its value with the
    * Spark work billed to that tag. Jobs a block submits from threads it
    * starts count too (they inherit the tag).
    */
  def sparkWork[A](spark: SparkSession)(block: => A): (A, SparkWork) = {
    val sc = spark.sparkContext
    val tag = s"testutil-${UUID.randomUUID()}"
    val fence = s"$tag-fence"
    val listener = new WorkListener(tag, fence)
    sc.addSparkListener(listener)
    try {
      sc.addJobTag(tag)
      val value = try block finally sc.removeJobTag(tag)
      // Listener events arrive in order, so once the fence job's end is
      // seen, every event of the block's jobs has been seen too.
      sc.addJobTag(fence)
      try sc.parallelize(Seq(1), 1).count() finally sc.removeJobTag(fence)
      assert(listener.fenced.await(60, TimeUnit.SECONDS), "fence job's end event never arrived")
      (value, listener.work)
    } finally sc.removeSparkListener(listener)
  }
}
