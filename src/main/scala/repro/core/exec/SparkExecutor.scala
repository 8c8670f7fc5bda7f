package repro.core.exec

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.plan._

/** Executes a plan as the DataFrame program of paper Fig. 10.
  *
  * Each plan operator maps one-to-one onto the Dataset operation the paper's
  * code generator would emit; interpreting the plan therefore measures the
  * same Catalyst/Tungsten execution the generated code would. Nested bags are
  * `array<struct<…>>` columns.
  *
  * @param catalog  named input DataFrames
  * @param joinImpl pluggable join execution — the default is a plain
  *                 (outer) equi-join; [[repro.skew.SkewOps]] substitutes the
  *                 skew-aware light/heavy implementation of Fig. 6.
  */
final class SparkExecutor(
    catalog: Map[String, DataFrame],
    joinImpl: SparkExecutor.JoinImpl = SparkExecutor.defaultJoin) {

  def execute(plan: Plan): DataFrame = plan match {
    case Source(name) =>
      catalog.getOrElse(name, sys.error(s"executor catalog has no input '$name'"))

    case Select(child, cond) =>
      execute(child).filter(toCol(cond))

    case Project(child, cols) =>
      execute(child).select(cols.map { case (n, e) => toCol(e).as(n) }: _*)

    case Join(l, r, lk, rk, leftOuter) =>
      joinImpl(execute(l), execute(r), lk, rk, leftOuter)

    case Unnest(child, bagCol, fields, prefix, outer, presenceCol) =>
      val df  = execute(child)
      val tmp = s"__el_$prefix"
      val exploded =
        if (outer) df.withColumn(tmp, explode_outer(col(bagCol)))
        else df.withColumn(tmp, explode(col(bagCol)))
      val keep = df.columns.filterNot(_ == bagCol).map(col).toSeq
      val elemCols = fields.map(f => col(tmp)(f).as(s"${prefix}__$f"))
      val presCols = presenceCol.toSeq.map(p => col(tmp).isNotNull.as(p))
      exploded.select(keep ++ elemCols ++ presCols: _*)

    case AddIndex(child, c) =>
      execute(child).withColumn(c, monotonically_increasing_id())

    case NestBag(child, groupCols, structCols, outCol, presence) =>
      val df = execute(child)
      val elem   = struct(structCols.map { case (out, in) => col(in).as(out) }: _*)
      val member = presence.map(p => when(toCol(p), elem)).getOrElse(elem)
      // collect_list drops NULL entries, so an all-absent group becomes the
      // empty bag — the Γ⊎ NULL-casting of §2.2.
      df.groupBy(groupCols.map(col): _*)
        .agg(collect_list(member).as(outCol))

    case NestSum(child, groupCols, sums) =>
      val df = execute(child)
      val aggs = sums.map { case (n, v) => coalesce(sum(toCol(v)), lit(0.0)).as(n) }
      if (groupCols.isEmpty) df.agg(aggs.head, aggs.tail: _*)
      else df.groupBy(groupCols.map(col): _*).agg(aggs.head, aggs.tail: _*)

    case DedupP(child) =>
      execute(child).distinct()

    case UnionP(l, r) =>
      execute(l).unionByName(execute(r))

    // No partition count, so AQE coalesces this exchange like any other.
    case Partition(child, keys) =>
      execute(child).repartition(keys.map(col): _*)
  }

  def toCol(e: ValExpr): Column = SparkExecutor.toCol(e)
}

object SparkExecutor {

  type JoinImpl = (DataFrame, DataFrame, Seq[String], Seq[String], Boolean) => DataFrame

  /** Plain (outer) equi-join — X.join(Y, f === g[, "left_outer"]). Empty key
    * lists mean a (correlated) cross product, expressed as a join on TRUE so
    * the outer variant still pads unmatched left tuples.
    */
  val defaultJoin: JoinImpl = (l, r, lk, rk, leftOuter) => {
    val cond = lk.zip(rk).map { case (a, b) => l(a) === r(b) }
      .reduceOption(_ && _).getOrElse(lit(true))
    l.join(r, cond, if (leftOuter) "left_outer" else "inner")
  }

  def toCol(e: ValExpr): Column = e match {
    case ColRef(n)       => col(n)
    case LitV(v, DateTpe) => lit(v.toString).cast("date")
    case LitV(v, _)      => lit(v)
    case ArithV(op, l, r) =>
      val (a, b) = (toCol(l), toCol(r))
      op match { case "+" => a + b; case "-" => a - b; case "*" => a * b; case "/" => a / b }
    // x == x (left by domain elimination) keeps exactly the non-NULL rows;
    // saying so spares Spark a trivially true self-equality.
    case CmpV("==", l, r) if l == r => toCol(l).isNotNull
    case CmpV(op, l, r) =>
      val (a, b) = (toCol(l), toCol(r))
      op match {
        case "==" => a === b; case "!=" => a =!= b
        case "<" => a < b; case "<=" => a <= b; case ">" => a > b; case ">=" => a >= b
      }
    case AndV(l, r)    => toCol(l) && toCol(r)
    case OrV(l, r)     => toCol(l) || toCol(r)
    case NotV(x)       => !toCol(x)
    case IfV(c, t, f)  => when(toCol(c), toCol(t)).otherwise(toCol(f))
    // xxhash64 skips NULL inputs, so each component's NULL flag is hashed too.
    case LabelV(as)    => xxhash64(as.map(toCol).flatMap(c => Seq(c, c.isNull)): _*)
    case IsNotNullV(x) => toCol(x).isNotNull
    case WhenV(c, v)   => when(toCol(c), toCol(v))
  }
}
