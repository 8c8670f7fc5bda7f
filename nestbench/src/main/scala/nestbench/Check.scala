package nestbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.core.{LocalEval, SparkValues}
import repro.shred.ShredTypes

/** An order-insensitive summary of a (nested) result: its row count, the
  * multiset of its non-floating-point content, and a weighted sum of its
  * floating-point values.
  *
  * Every bag is summarized as the sum of its elements' hashes, so neither
  * row order nor element order inside nested bags matters. Floating-point
  * values are compared with a relative tolerance, because routes sum them
  * in different orders; each is weighted by a hash of the tuple holding it,
  * so a value moved to the wrong tuple changes the sum.
  */
final case class Fingerprint(rows: Long, keys: Long, values: Double) {
  def matches(o: Fingerprint): Boolean =
    rows == o.rows && keys == o.keys &&
      math.abs(values - o.values) <= 1e-6 * math.max(1.0, math.max(math.abs(values), math.abs(o.values)))
}

object Fingerprint {
  private val P = 2147483647L

  /** Collects the result (small at the benchmark's scale) and summarizes it. */
  def of(df: DataFrame): Fingerprint = {
    val rows = df.collect()
    val (k, v) = bag(rows.toSeq)
    Fingerprint(rows.length, k, v)
  }

  private def bag(rows: Seq[Row]): (Long, Double) =
    rows.foldLeft((0L, 0.0)) { case ((k, v), r) =>
      val (rk, rv) = tuple(r)
      (k + math.floorMod(rk, P), v + rv)
    }

  /** (hash of the non-floating content, weighted sum of floating values) of
    * one tuple. Fields are visited by name; integers of any width hash alike.
    */
  private def tuple(r: Row): (Long, Double) = {
    var h = 17L
    var own = 0.0
    var nested = 0.0
    def mix(x: Long): Unit = h = avalanche(h * 31 + x)
    for ((f, i) <- r.schema.fields.zipWithIndex.sortBy(_._1.name)) {
      mix(f.name.hashCode)
      if (r.isNullAt(i)) mix(-1)
      else f.dataType match {
        case ArrayType(_: StructType, _) =>
          val elems = r.getSeq[Row](i)
          val (k, v) = bag(elems)
          mix(elems.size)
          mix(k)
          nested += v
        case DoubleType | FloatType | _: DecimalType =>
          mix(1)
          own += r.get(i).asInstanceOf[Number].doubleValue
        case ByteType | ShortType | IntegerType | LongType =>
          mix(r.get(i).asInstanceOf[Number].longValue)
        case _ =>
          mix(r.get(i).toString.hashCode)
      }
    }
    (h, own * (math.floorMod(h, 997L) + 1) + nested)
  }

  /** The splitmix64 finalizer. */
  private def avalanche(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** The result of a shredded run for one output: reassembled if nested,
    * else the top bag itself.
    */
  def shreddedOutput(a: repro.core.NRC.Assignment, cat: Map[String, DataFrame]): DataFrame =
    if (a.expr.asBag.isFlat) cat(ShredTypes.topName(a.name))
    else repro.shred.Unshredder.unshred(a.name, a.expr.asBag, cat)
}

/** The reduced-scale reference check: every route's output against the
  * `LocalEval` interpreter, which shares no code with the compiler's
  * routes but runs nested loops, so only small inputs are feasible.
  */
object LocalCheck {
  def inputs(cat: Map[String, DataFrame]): Map[String, LocalEval.Bag] =
    cat.collect { case (n, df) if !n.contains("__") => n -> SparkValues.toBag(df) }

  def expected(w: Workload, local: Map[String, LocalEval.Bag]): Map[String, String] =
    (w.program.assignments ++ w.skewProgram.assignments).distinctBy(_.name)
      .map(a => a.name -> LocalEval.canon(LocalEval.evalBag(a.expr, LocalEval.Env(Map.empty[String, Any], local))))
      .toMap

  def canon(df: DataFrame): String = LocalEval.canon(SparkValues.toBag(df))
}
