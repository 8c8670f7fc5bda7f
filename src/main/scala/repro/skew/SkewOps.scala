package repro.skew

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.exec.SparkExecutor

/** Skew-resilient processing (§5, Fig. 6).
  *
  * A relation is split by sampled *heavy keys* into a light component
  * (shuffled/partitioned as usual) and a heavy component (kept in place,
  * joined by broadcasting the matching tuples of the other side). The
  * threshold bounds the number of heavy keys (2.5% of the whole sample ⇒
  * about 40 keys overall; `maxHeavyKeys` caps what rounding the cutoff down
  * admits on a small sample), keeping the broadcast cheap.
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

  /** Detect heavy key values of `keys` in `df` by sampling.
    *
    * A key is heavy when it holds at least `threshold` of the whole sample.
    * The sample is counted in one Spark job with no shuffle: each partition
    * counts its sampled keys locally and the driver adds up the partial
    * counts (one row per distinct key per partition, the rows a partial
    * aggregation would write into its shuffle).
    */
  def heavyKeys(df: DataFrame, keys: Seq[String], cfg: SkewConfig = SkewConfig()): Seq[Seq[Any]] = {
    val sample = df.select(keys.map(col): _*).sample(withReplacement = false, cfg.sampleFraction, cfg.seed)
    val counts = sample.rdd.mapPartitions { rows =>
      val local = mutable.HashMap.empty[Seq[Any], Long]
      rows.foreach { r => val k = r.toSeq; local(k) = local.getOrElse(k, 0L) + 1 }
      local.iterator
    }.collect().groupMapReduce(_._1)(_._2)(_ + _)
    val total = counts.values.sum
    if (total == 0) return Seq.empty
    val cutoff = math.max(1L, (cfg.threshold * total).toLong)
    counts.toSeq.filter(_._2 >= cutoff)
      .sortBy(-_._2)
      .take(cfg.maxHeavyKeys)
      .map(_._1)
      // NULL keys come from outer-padding rows; they never match a join
      // partner, so splitting them to the heavy side is pointless (and
      // `===` cannot select them).
      .filterNot(_.contains(null))
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
