package repro.bench

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.JobExecutionStatus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestData}
import repro.core.plan.Optimizer
import repro.data.{BioData, NestedTpch}
import repro.queries.{BioQueries, TpchQueries}

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

  test("a run that times out is cancelled, and the next run is billed as if it ran alone") {
    val sc = spark.sparkContext
    // Meter.bill on the run's own tag counts the jobs the run billed.
    def small(strategy: String) = Meter.bill(spark, s"T/small/$strategy") {
      Harness.measure(spark, "T", "small", strategy) {
        Harness.force(spark.range(0, 1000, 1, 4).selectExpr("id % 10 AS k").groupBy("k").count())
      }
    }
    val (alone, aloneWork) = small("alone")
    // Its tasks sleep 60 s: measure returns sooner only if it cancelled them.
    val t0 = System.nanoTime()
    val slow = Harness.measure(spark, "T", "slow", "S", timeout = 1) {
      sc.parallelize(1 to 4, 4).map { i => Thread.sleep(60000); i }.count()
    }
    val elapsedS = (System.nanoTime() - t0) / 1e9
    assert(!slow.ok && slow.note == "timeout 1s" && elapsedS < 30, (slow, elapsedS))
    val tracker = sc.statusTracker
    assert(tracker.getJobIdsForTag("T/slow/S").nonEmpty)
    def running = tracker.getJobIdsForTag("T/slow/S")
      .filter(id => tracker.getJobInfo(id).exists(_.status == JobExecutionStatus.RUNNING))
    // The status store hears of the cancellation on its own listener queue.
    val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
    while (running.nonEmpty && System.nanoTime() < deadline) Thread.sleep(50)
    assert(running.isEmpty, s"jobs still running: ${running.toSeq}")
    val (next, nextWork) = small("next")
    assert(alone.ok && next.ok, (alone, next))
    assert(aloneWork.jobs > 0 && aloneWork.shuffleWriteBytes > 0, aloneWork)
    assert(nextWork == aloneWork && next.shuffleMB == alone.shuffleMB, (aloneWork, nextWork))
  }

  test("measureRoutes measures Standard, Shred and Unshred, and releases Shred's outputs") {
    val cat = NestedTpch.catalog(TestData.tables(spark))
    val q = TpchQueries.flatToNested(2, wide = false)
    val persisted = spark.sparkContext.getPersistentRDDs.size
    val rows = Harness.measureRoutes(spark, "T", "L2", Harness.query(q), cat)
    assert(rows.map(r => (r.config, r.strategy)) == Seq("Standard", "Shred", "Unshred").map("L2" -> _)
      && rows.forall(_.ok), rows)
    val skew = Harness.measureRoutes(spark, "T", "L2", Harness.query(q), cat, Optimizer.pushProjections,
      skew = true, unshred = false)
    assert(skew.map(_.strategy) == Seq("Standard_skew", "Shred_skew") && skew.forall(_.ok), skew)
    assert(spark.sparkContext.getPersistentRDDs.size == persisted)
  }

  test("measureRoutes keeps a cached input whose plan a Shred output shares") {
    // T4's top bag passes COP2n__F through, so OUT__F shares its cache entry.
    val t = TestData.tables(spark)
    Harness.cached { keep =>
      val nested = keep(NestedTpch.nestedInput(t, 2, wide = false))
      val shredded = NestedTpch.shreddedInput(t, 2, wide = false).map { case (k, v) => k -> keep(v) }
      val cat = NestedTpch.catalog(t) + (NestedTpch.inputName(2, wide = false) -> nested) ++ shredded
      val rows = Harness.measureRoutes(spark, "T", "L2",
        Harness.query(TpchQueries.nestedToNested(2, wide = false)), cat, unshred = false)
      assert(rows.forall(_.ok), rows)
      val evicted = shredded.collect { case (k, v) if !v.storageLevel.useMemory => k }
      assert(evicted.isEmpty, s"evicted inputs: $evicted")
    }
  }

  test("measureRoutes measures a program step by step, and a step after a failed one fails") {
    // BioRouteSpec's scale; each step reads the one before it (Step 3 reads
    // Steps 1 and 2).
    Harness.cached { keep =>
      val cat = BioData.catalog(BioData.tables(spark, sf = 0.003)).map { case (k, v) => k -> keep(v) }
      val persisted = spark.sparkContext.getPersistentRDDs.size
      val steps = (1 to 5).map(i => s"Step$i")
      val rows = Harness.measureRoutes(spark, "T5", "Step", BioQueries.e2e, cat, unshred = false)
      assert(rows.map(r => (r.config, r.strategy)) ==
        steps.map(_ -> "Standard") ++ steps.map(_ -> "Shred") && rows.forall(_.ok), rows)
      assert(spark.sparkContext.getPersistentRDDs.size == persisted)
      // Only Step 1 reads CopyNumber: without it, Step 1 has no output.
      val failed = Harness.measureRoutes(spark, "T5", "Step", BioQueries.e2e, cat - "CopyNumber",
        unshred = false)
      assert(failed.map(r => (r.config, r.strategy)) == rows.map(r => (r.config, r.strategy))
        && failed.forall(!_.ok), failed)
      assert(spark.sparkContext.getPersistentRDDs.size == persisted)
    }
  }

  /** The persistent RDDs and the storage level of each of `dfs`. */
  private def cacheState(dfs: DataFrame*) =
    (spark.sparkContext.getPersistentRDDs.keySet, dfs.map(_.storageLevel))

  test("a cache scope releases what it cached when its body returns, when it throws, and when a fill fails") {
    val ok = spark.range(0, 100, 1, 4).toDF("id")
    val failing = spark.range(0, 100, 1, 4).selectExpr("id", "raise_error('fill failed') AS e")
    val before = cacheState(ok, failing)
    assert(Harness.cached(keep => keep(ok).count()) == 100)
    assert(cacheState(ok, failing) == before)
    val body = intercept[IllegalStateException](Harness.cached { keep =>
      keep(ok)
      throw new IllegalStateException("body failed")
    })
    assert(body.getMessage == "body failed")
    assert(cacheState(ok, failing) == before)
    val fill = intercept[Exception](Harness.cached(keep => keep(failing)))
    assert(fill.getMessage.contains("fill failed"), fill)
    assert(cacheState(ok, failing) == before)
  }

  test("keep fills every partition of the cache and bills no shuffle to a plan without one") {
    val df = spark.range(0, 1000, 1, 8).selectExpr("id", "id * 2 AS x")
    Harness.cached { keep =>
      val persisted = spark.sparkContext.getPersistentRDDs.keySet
      val r = Harness.measure(spark, "T", "keep", "S") { keep(df) }
      assert(r.ok && r.shuffleMB == 0, r)
      val Seq(id) = (spark.sparkContext.getPersistentRDDs.keySet -- persisted).toSeq
      // The status store hears of cached blocks on its own listener queue.
      def info = spark.sparkContext.getRDDStorageInfo.find(_.id == id)
      val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
      while (!info.exists(_.numCachedPartitions == 8) && System.nanoTime() < deadline) Thread.sleep(50)
      assert(info.exists(i => i.numPartitions == 8 && i.numCachedPartitions == 8), info)
    }
  }

  test("an inner cache scope releases only what it cached, and keeps what was cached before it opened") {
    val outer = spark.range(0, 10, 1, 2).toDF("a")
    val inner = spark.range(0, 20, 1, 2).toDF("b")
    val before = cacheState(outer, inner)
    Harness.cached { keep =>
      keep(outer)
      Harness.cached { keep =>
        keep(outer) // shares the outer scope's entry
        keep(inner)
        assert(outer.storageLevel.useMemory && inner.storageLevel.useMemory)
      }
      assert(outer.storageLevel.useMemory && inner.storageLevel == StorageLevel.NONE)
    }
    assert(cacheState(outer, inner) == before)
  }

  test("exhibit ids are unique, and an unknown id fails listing the valid ones") {
    val ids = Exhibits.all.map(_.id)
    assert(ids.distinct == ids)
    val e = intercept[IllegalArgumentException](Exhibits("T7"))
    assert(e.getMessage.contains(ids.mkString(", ")), e.getMessage)
  }
}
