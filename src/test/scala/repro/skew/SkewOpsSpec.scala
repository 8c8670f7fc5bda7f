package repro.skew

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData, TestData, TestUtil}
import repro.core.exec.{Routes, SparkExecutor}
import repro.core.plan.{Optimizer, Unnester}
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** Skew-resilient processing tests: heavy-key detection on Zipf data and
  * result-equivalence of the skew-aware operators (Fig. 6).
  */
class SkewOpsSpec extends SparkSpec {

  private val cfg = SkewConfig(sampleFraction = 0.5)

  /** The heavy-key rule as a grouped Spark query over the same seeded
    * sample: keys holding at least max(1, threshold × total) sampled rows,
    * by descending count, at most `maxHeavyKeys`, NULL keys dropped.
    * Returns each key with its count.
    */
  private def referenceHeavyKeys(df: DataFrame, keys: Seq[String], cfg: SkewConfig): Seq[(Seq[Any], Long)] = {
    val sample = df.select(keys.map(col): _*).sample(withReplacement = false, cfg.sampleFraction, cfg.seed)
    val counts = sample.groupBy(keys.map(col): _*).count()
    val total = counts.agg(sum("count")).head()
    if (total.isNullAt(0)) return Seq.empty
    val cutoff = math.max(1L, (cfg.threshold * total.getLong(0)).toLong)
    counts.filter(col("count") >= cutoff).orderBy(col("count").desc).limit(cfg.maxHeavyKeys).collect().toSeq
      .map(r => keys.indices.map(r.get) -> r.getLong(keys.size))
      .filterNot(_._1.contains(null))
  }

  /** Same keys as the reference, in an order the counts allow (keys with
    * equal counts may come in either order).
    */
  private def assertSameHeavyKeys(df: DataFrame, keys: Seq[String], cfg: SkewConfig): Seq[Seq[Any]] = {
    val ref = referenceHeavyKeys(df, keys, cfg)
    val hk = SkewOps.heavyKeys(df, keys, cfg)
    assert(hk.toSet == ref.map(_._1).toSet && hk.size == ref.size, s"\n  got: $hk\n  ref: $ref")
    val count = ref.toMap
    assert(hk.map(count) == ref.map(_._2), s"\n  got: $hk\n  ref: $ref")
    hk
  }

  test("heavy keys found on Zipf-distributed data") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
    val hk = SkewOps.heavyKeys(df, Seq("k"), cfg)
    assert(hk.nonEmpty, "expected heavy keys under Zipf")
    assert(hk.map(_.head).contains(1L), "rank-1 key must be heavy")
    assert(hk.size <= cfg.maxHeavyKeys)
  }

  test("no heavy keys on uniform data") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 1000)
    assert(SkewOps.heavyKeys(df, Seq("k"), cfg).isEmpty)
  }

  test("heavy-key detection runs one Spark job and writes no shuffle") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
    val (hk, work) = TestUtil.sparkWork(spark)(SkewOps.heavyKeys(df, Seq("k"), cfg))
    assert(hk.nonEmpty)
    assert(work.jobs == 1, work)
    assert(work.shuffleWriteBytes == 0, work)
  }

  test("heavy keys equal the grouped-count rule's on a Zipf key, also when capped") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
    assert(assertSameHeavyKeys(df, Seq("k"), cfg).size > 1)
    assert(assertSameHeavyKeys(df, Seq("k"), cfg.copy(maxHeavyKeys = 1)).size == 1)
  }

  test("heavy keys equal the grouped-count rule's on a two-column key") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
      .select(col("k"), (col("v") * 3).cast("long") as "j")
    assert(assertSameHeavyKeys(df, Seq("k", "j"), cfg).nonEmpty)
  }

  test("heavy keys equal the grouped-count rule's when keys include NULLs") {
    // Rank 1, the heaviest key, becomes NULL. It is dropped after the cap,
    // so with a cap of 1 no key is left.
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
      .select(when(col("k") =!= 1L, col("k")) as "k")
    assert(assertSameHeavyKeys(df, Seq("k"), cfg).nonEmpty)
    assert(assertSameHeavyKeys(df, Seq("k"), cfg.copy(maxHeavyKeys = 1)).isEmpty)
  }

  test("heavy keys equal the grouped-count rule's on a sample smaller than 1/threshold") {
    // About 20 sampled rows: the cutoff is 1, so every sampled key is heavy.
    val df = SynthData.uniformKeys(spark, rows = 200, nKeys = 1000)
    val hk = assertSameHeavyKeys(df, Seq("k"), SkewConfig())
    assert(hk.nonEmpty && hk.size < 40)
  }

  test("split partitions the bag exactly") {
    val df = SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, alpha = 1.3)
    val t  = SkewOps.split(df, Seq("k"), SkewOps.heavyKeys(df, Seq("k"), cfg))
    assert(t.heavyKeys.nonEmpty)
    assert(t.light.count() + t.heavy.count() == df.count())
    // Heavy component contains only heavy keys, light none of them.
    val hkSet = t.heavyKeys.map(_.head).toSet
    assert(t.heavy.select("k").distinct().collect().forall(r => hkSet(r.get(0))))
    assert(t.light.select("k").distinct().collect().forall(r => !hkSet(r.get(0))))
  }

  test("skew-aware inner join equals the plain join on skewed data") {
    val l = SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, alpha = 1.3)
    val r = SynthData.uniformKeys(spark, rows = 300, nKeys = 100, seed = 9)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    val plain = SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), false)
    val skew  = SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), false)
    TestUtil.assertBagEq(skew, plain)
  }

  test("skew-aware left-outer join equals the plain join (padding preserved)") {
    val l = SynthData.zipfKeys(spark, rows = 5000, nKeys = 200, alpha = 1.3)
    // Right side covers only half the key space → outer padding on the rest.
    val r = SynthData.uniformKeys(spark, rows = 200, nKeys = 100, seed = 5)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    val plain = SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), true)
    val skew  = SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), true)
    TestUtil.assertBagEq(skew, plain)
  }

  test("skew-aware join on uniform data degrades to the plain join") {
    val l = SynthData.uniformKeys(spark, rows = 2000, nKeys = 500)
    val r = SynthData.uniformKeys(spark, rows = 100, nKeys = 500, seed = 7)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    TestUtil.assertBagEq(
      SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), false),
      SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), false))
  }

  test("no heavy keys when the sample is empty") {
    val empty = SynthData.uniformKeys(spark, rows = 100, nKeys = 10).limit(0)
    assert(SkewOps.heavyKeys(empty, Seq("k"), cfg) == Seq.empty)
  }

  test("skew-aware join equals the plain join when the sample is empty") {
    import spark.implicits._
    val l = Seq((1L, 10L), (2L, 20L)).toDF("k", "v")
    val r = Seq((1L, 100L)).toDF("k2", "w")
    val tiny = SkewConfig(sampleFraction = 0.0001)
    for (outer <- Seq(false, true))
      TestUtil.assertBagEq(
        SkewOps.skewJoin(tiny)(l, r, Seq("k"), Seq("k2"), outer),
        SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), outer))
  }

  test("standard route with skew-aware joins preserves results end-to-end") {
    val t = TestData.tables(spark)
    val catalog = NestedTpch.catalog(t)
    val nested = NestedTpch.nestedInput(t, 2, wide = false)
    val cat = catalog + (NestedTpch.inputName(2, wide = false) -> nested)
    val q = TpchQueries.nestedToNested(2, wide = false)
    val plan = Unnester.compile(q)
    val base = new SparkExecutor(cat).execute(plan)
    val skew = new SparkExecutor(cat, SkewOps.skewJoin(SkewConfig(sampleFraction = 1.0)))
      .execute(plan)
    TestUtil.assertBagEq(skew, base)
  }

  test("shredded route with skew-aware joins preserves results end-to-end") {
    val t = TestData.tables(spark)
    val catalog = NestedTpch.catalog(t)
    val q = TpchQueries.nestedToFlat(2, wide = false)
    val sq = repro.shred.Shredder.shred("OUT", q)
    val shredded = NestedTpch.shreddedInput(t, 2, wide = false)
    val base = Routes.run(sq, catalog ++ shredded, Optimizer.none)(sq.assignments.head.name)
    val skew = Routes.run(sq, catalog ++ shredded, Optimizer.none,
      SkewOps.skewJoin(SkewConfig(sampleFraction = 1.0)))(sq.assignments.head.name)
    TestUtil.assertBagEq(skew, base)
  }
}
