package repro.bench

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{SparkSpec, TestData}
import repro.core.plan.Optimizer
import repro.data.NestedTpch
import repro.queries.TpchQueries
import repro.skew.SkewOps

/** The benchmark harness bills each measured run's Spark jobs to that run,
  * measures the route sequence of every exhibit, and names the exhibits.
  */
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

  test("a shuffle job run untagged on another thread is not billed to a measured run") {
    val sc = spark.sparkContext
    val started, done = new CountDownLatch(1)
    // Built on this (untagged) thread, so its jobs carry no run's tag.
    val other = new Thread(() => {
      started.await()
      sc.parallelize(1 to 10000, 4).map(i => (i % 100, i)).reduceByKey(_ + _).count()
      done.countDown()
    })
    other.start()
    val r = Harness.measure(spark, "T", "concurrent", "S") {
      sc.parallelize(1 to 10, 2).count()
      started.countDown()
      assert(done.await(60, TimeUnit.SECONDS), "the other thread's job never finished")
    }
    other.join()
    assert(r.ok, r)
    assert(r.shuffleMB == 0, r)
  }

  test("measureRoutes measures Standard, Shred and Unshred, and releases Shred's outputs") {
    val cat = NestedTpch.catalog(TestData.tables(spark))
    val q = TpchQueries.flatToNested(2, wide = false)
    val persisted = spark.sparkContext.getPersistentRDDs.size
    val rows = Harness.measureRoutes(spark, "T", "L2", q, cat)
    assert(rows.map(_.strategy) == Seq("Standard", "Shred", "Unshred") && rows.forall(_.ok), rows)
    val skew = Harness.measureRoutes(spark, "T", "L2", q, cat, Optimizer.pushProjections,
      SkewOps.skewJoin(), suffix = "_skew", unshred = false)
    assert(skew.map(_.strategy) == Seq("Standard_skew", "Shred_skew") && skew.forall(_.ok), skew)
    assert(spark.sparkContext.getPersistentRDDs.size == persisted)
  }

  test("exhibit ids are unique, and an unknown id fails listing the valid ones") {
    val ids = Exhibits.all.map(_.id)
    assert(ids.distinct == ids)
    val e = intercept[IllegalArgumentException](Exhibits("T7"))
    assert(e.getMessage.contains(ids.mkString(", ")), e.getMessage)
  }
}
