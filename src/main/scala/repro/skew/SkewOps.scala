package repro.skew

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.exec.SparkExecutor

/** Skew-resilient processing (§5, Fig. 6).
  *
  * A relation is split by sampled *heavy keys* into a light component
  * (shuffled/partitioned as usual) and a heavy component (kept in place,
  * joined by broadcasting the matching tuples of the other side). The
  * threshold bounds the number of heavy keys (2.5% ⇒ at most 40 per sampled
  * partition), keeping the broadcast cheap.
  */
final case class SkewConfig(
    /** Fraction of sampled tuples a key must reach to be heavy (paper: 2.5%). */
    threshold: Double = 0.025,
    /** Sampling fraction used for heavy-key detection (paper: 10%). */
    sampleFraction: Double = 0.1,
    /** Safety bound on the number of heavy keys broadcast. */
    maxHeavyKeys: Int = 64,
    seed: Long = 42)

/** A bag split by heavy keys: the paper's skew-triple. */
final case class SkewTriple(light: DataFrame, heavy: DataFrame, heavyKeys: Seq[Seq[Any]])

object SkewOps {

  /** Detect heavy key values of `keys` in `df` by sampling. */
  def heavyKeys(df: DataFrame, keys: Seq[String], cfg: SkewConfig = SkewConfig()): Seq[Seq[Any]] = {
    val sample = df.select(keys.map(col): _*).sample(withReplacement = false, cfg.sampleFraction, cfg.seed)
    val counts = sample.groupBy(keys.map(col): _*).count().persist()
    try {
      // The sum is NULL when the sample is empty: then no key is heavy.
      val sumRow = counts.agg(sum("count")).collect()(0)
      val total = if (sumRow.isNullAt(0)) 0L else sumRow.getLong(0)
      if (total == 0) return Seq.empty
      val cutoff = math.max(1L, (cfg.threshold * total).toLong)
      counts.filter(col("count") >= cutoff)
        .orderBy(col("count").desc)
        .limit(cfg.maxHeavyKeys)
        .collect()
        .map(r => keys.indices.map(r.get).toSeq)
        .toSeq
        // NULL keys come from outer-padding rows; they never match a join
        // partner, so splitting them to the heavy side is pointless (and
        // `===` cannot select them).
        .filterNot(_.contains(null))
    } finally { counts.unpersist(); () }
  }

  private def keyMatch(keys: Seq[String], hk: Seq[Seq[Any]]): Column =
    hk.map(t => keys.zip(t).map { case (k, v) => col(k) === lit(v) }.reduce(_ && _))
      .reduce(_ || _)

  /** Split a bag into its skew-triple given its heavy keys. */
  def split(df: DataFrame, keys: Seq[String], hk: Seq[Seq[Any]]): SkewTriple =
    if (hk.isEmpty) SkewTriple(df, df.limit(0), Seq.empty)
    else {
      // coalesce: a NULL key compares as NULL — such rows belong to the
      // light component (outer padding must survive the split).
      val m = coalesce(keyMatch(keys, hk), lit(false))
      SkewTriple(df.filter(!m), df.filter(m), hk)
    }

  /** Skew-aware join (Fig. 6): the light components shuffle-join; the heavy
    * component of the (larger) left side stays in place and the matching
    * right tuples are broadcast to it.
    */
  def skewJoin(cfg: SkewConfig = SkewConfig()): SparkExecutor.JoinImpl =
    (l, r, lk, rk, leftOuter) => {
      if (lk.isEmpty) SparkExecutor.defaultJoin(l, r, lk, rk, leftOuter)
      else {
        val hk = heavyKeys(l, lk, cfg)
        if (hk.isEmpty) SparkExecutor.defaultJoin(l, r, lk, rk, leftOuter)
        else {
          val lt = split(l, lk, hk)
          val rt = split(r, rk, hk)
          val light = SparkExecutor.defaultJoin(lt.light, rt.light, lk, rk, leftOuter)
          val cond  = lk.zip(rk).map { case (a, b) => lt.heavy(a) === rt.heavy(b) }.reduce(_ && _)
          val heavy = lt.heavy.join(broadcast(rt.heavy), cond,
            if (leftOuter) "left_outer" else "inner")
          light.unionByName(heavy)
        }
      }
    }
}
