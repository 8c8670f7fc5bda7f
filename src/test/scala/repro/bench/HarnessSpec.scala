package repro.bench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec

/** The benchmark harness bills each measured run's Spark jobs to that run. */
class HarnessSpec extends SparkSpec {

  test("every job of a measured run carries that run's job tag") {
    val sc = spark.sparkContext
    // (run that submitted the job, the job's tags)
    val jobs = new ConcurrentLinkedQueue[(String, String)]
    val listener = new SparkListener {
      override def onJobStart(js: SparkListenerJobStart): Unit = {
        val run = js.properties.getProperty("harness.spec.run")
        if (run != null)
          jobs.add(run -> Option(js.properties.getProperty("spark.job.tags")).getOrElse(""))
        ()
      }
    }
    sc.addSparkListener(listener)
    try {
      for (i <- 1 to 4) Harness.measure(spark, "T", s"c$i", "S") {
        sc.setLocalProperty("harness.spec.run", s"c$i")
        sc.parallelize(1 to 10, 2).count()
        sc.parallelize(1 to 10, 2).count()
      }
      val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
      while (jobs.size < 8 && System.nanoTime() < deadline) Thread.sleep(50)
    } finally sc.removeSparkListener(listener)

    val seen = jobs.asScala.toSeq
    assert(seen.size == 8, seen)
    seen.foreach { case (run, tags) =>
      assert(tags.split(",").contains(s"T/$run/S"), s"job of $run tagged '$tags'")
    }
  }
}
