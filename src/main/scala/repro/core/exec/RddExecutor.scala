package repro.core.exec

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core.{LocalEval, SparkValues}
import repro.core.plan._

/** Plan execution over RDDs of generic tuples (paper Fig. 11) — the
  * comparison point of App. E.1 against the Dataset/DataFrame executor.
  * Tuples are `Map[String, Any]`; bags inside tuples are `Seq[Map]`; absent
  * attributes read as NULL (outer-join padding).
  */
final class RddExecutor(catalog: Map[String, RDD[Map[String, Any]]]) {

  import RddExecutor._

  def execute(plan: Plan): RDD[Map[String, Any]] = plan match {
    case Source(name) =>
      catalog.getOrElse(name, sys.error(s"RDD catalog has no input '$name'"))

    case Select(c, cond) =>
      execute(c).filter(m => evalVal(cond, m) == true)

    case Project(c, cols) =>
      execute(c).map(m => cols.map { case (n, v) => n -> evalVal(v, m) }.toMap)

    case Join(l, r, lk, rk, leftOuter) =>
      val lr = execute(l); val rr = execute(r)
      if (lk.isEmpty) {
        val prod = lr.cartesian(rr).map { case (a, b) => a ++ b }
        if (!leftOuter) prod
        else {
          // left-outer cartesian: pad when the right side is empty.
          val rEmpty = rr.sparkContext.broadcast(rr.isEmpty())
          if (rEmpty.value) lr else prod
        }
      } else {
        // A NULL key equals no key, as in Spark: right rows with one never
        // match, so a left row with one is padded (outer) or dropped (inner).
        val kl = lr.keyBy(m => lk.map(k => norm(m.getOrElse(k, null))))
        val kr = rr.keyBy(m => rk.map(k => norm(m.getOrElse(k, null))))
          .filter { case (key, _) => !key.contains(null) }
        if (leftOuter)
          kl.leftOuterJoin(kr).map { case (_, (a, ob)) => a ++ ob.getOrElse(Map.empty) }
        else kl.join(kr).map { case (_, (a, b)) => a ++ b }
      }

    case Unnest(c, bagCol, fields, prefix, outer, presenceCol) =>
      execute(c).flatMap { m =>
        val bag = m.getOrElse(bagCol, null) match {
          case null => Seq.empty[Map[String, Any]]
          case s: scala.collection.Seq[_] => s.toSeq.asInstanceOf[Seq[Map[String, Any]]]
        }
        val base = m - bagCol
        if (bag.isEmpty) {
          if (outer) Seq(base ++ presenceCol.map(_ -> (false: Any)))
          else Seq.empty
        } else bag.map { el =>
          base ++ fields.map(f => s"${prefix}__$f" -> el.getOrElse(f, null)) ++
            presenceCol.map(_ -> (true: Any))
        }
      }

    case AddIndex(c, col) =>
      execute(c).zipWithUniqueId().map { case (m, id) => m + (col -> id) }

    case NestBag(c, groupCols, structCols, outCol, presence) =>
      execute(c)
        .keyBy(m => groupCols.map(k => norm(m.getOrElse(k, null))))
        .aggregateByKey((Vector.empty[Map[String, Any]], Option.empty[Map[String, Any]]))(
          { case ((acc, rep), m) =>
            val keep = presence.forall(p => evalVal(p, m) == true)
            val el = if (keep) acc :+ structCols.map { case (o, i) => o -> m.getOrElse(i, null) }.toMap
                     else acc
            (el, rep.orElse(Some(m)))
          },
          { case ((a1, r1), (a2, r2)) => (a1 ++ a2, r1.orElse(r2)) })
        .map { case (_, (bag, rep)) =>
          val m = rep.get
          groupCols.map(k => k -> m.getOrElse(k, null)).toMap + (outCol -> bag)
        }

    case NestSum(c, groupCols, sums) =>
      execute(c)
        .keyBy(m => groupCols.map(k => norm(m.getOrElse(k, null))))
        .aggregateByKey((Map.empty[String, Double], Option.empty[Map[String, Any]]))(
          { case ((acc, rep), m) =>
            val acc2 = sums.foldLeft(acc) { case (a, (n, v)) =>
              evalVal(v, m) match {
                case null => a
                case x    => a + (n -> (a.getOrElse(n, 0.0) + toD(x)))
              }
            }
            (acc2, rep.orElse(Some(m)))
          },
          { case ((a1, r1), (a2, r2)) =>
            (sums.map { case (n, _) => n -> (a1.getOrElse(n, 0.0) + a2.getOrElse(n, 0.0)) }.toMap,
              r1.orElse(r2))
          })
        .map { case (_, (acc, rep)) =>
          val m = rep.get
          groupCols.map(k => k -> m.getOrElse(k, null)).toMap ++
            sums.map { case (n, _) => n -> (acc.getOrElse(n, 0.0): Any) }
        }

    case DedupP(c)    => execute(c).distinct()
    case UnionP(l, r) => execute(l).union(execute(r))
    // Each nest above groups by its own key, so the partitioning is moot.
    case Partition(c, _) => execute(c)
  }
}

object RddExecutor {

  /** DataFrame → RDD of generic tuples (done outside timed regions). */
  def fromDataFrame(df: DataFrame): RDD[Map[String, Any]] = df.rdd.map(SparkValues.rowToTuple)

  /** RDD result → local bag for comparisons. */
  def toLocal(rdd: RDD[Map[String, Any]]): LocalEval.Bag = rdd.collect().toSeq

  private def toD(v: Any): Double = v match {
    case d: Double => d; case f: Float => f.toDouble
    case i: Int => i.toDouble; case l: Long => l.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case other => sys.error(s"not numeric: $other")
  }

  /** Normalize numeric key values so Int/Long/Double keys co-group. */
  private def norm(v: Any): Any = v match {
    case i: Int => i.toLong
    case s: Short => s.toLong
    case other => other
  }

  /** Three-valued evaluation: NULL-propagating like Catalyst. */
  def evalVal(e: ValExpr, m: Map[String, Any]): Any = e match {
    case ColRef(n)  => m.getOrElse(n, null)
    case LitV(v, _) => v
    case ArithV(op, l, r) =>
      (evalVal(l, m), evalVal(r, m)) match {
        case (null, _) | (_, null) => null
        case (a, b) =>
          val (x, y) = (toD(a), toD(b))
          op match { case "+" => x + y; case "-" => x - y; case "*" => x * y; case "/" => x / y }
      }
    case CmpV(op, l, r) =>
      (evalVal(l, m), evalVal(r, m)) match {
        case (null, _) | (_, null) => null
        case (a, b) =>
          val c = (a, b) match {
            case (x: String, y: String) => x.compareTo(y)
            case (x, y) if numeric(x) && numeric(y) => toD(x).compareTo(toD(y))
            case (x, y) => x.toString.compareTo(y.toString)
          }
          op match {
            case "==" => c == 0; case "!=" => c != 0
            case "<" => c < 0; case "<=" => c <= 0; case ">" => c > 0; case ">=" => c >= 0
          }
      }
    case AndV(l, r) =>
      (evalVal(l, m), evalVal(r, m)) match {
        case (false, _) | (_, false) => false
        case (true, true)            => true
        case _                       => null
      }
    case OrV(l, r) =>
      (evalVal(l, m), evalVal(r, m)) match {
        case (true, _) | (_, true) => true
        case (false, false)        => false
        case _                     => null
      }
    case NotV(x) => evalVal(x, m) match { case null => null; case b: Boolean => !b }
    case IfV(c, t, f)  => if (evalVal(c, m) == true) evalVal(t, m) else evalVal(f, m)
    case WhenV(c, v)   => if (evalVal(c, m) == true) evalVal(v, m) else null
    case IsNotNullV(x) => evalVal(x, m) != null
    case LabelV(as)    => LocalEval.hashLabel(as.map(evalVal(_, m)))
  }

  private def numeric(v: Any): Boolean = v match {
    case _: Int | _: Long | _: Double | _: Float | _: Short | _: java.math.BigDecimal => true
    case _ => false
  }
}
