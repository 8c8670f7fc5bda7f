package repro.core.plan

import repro.core.ScalarTpe

/** Column-level expressions of the plan language. Columns are referenced by
  * name; the unnester guarantees globally unique column names by prefixing
  * every attribute with its comprehension variable (`x__a`).
  */
sealed trait ValExpr {
  /** Column names referenced by this expression. */
  def cols: Set[String] = this match {
    case ColRef(n)         => Set(n)
    case LitV(_, _)        => Set.empty
    case ArithV(_, l, r)   => l.cols ++ r.cols
    case CmpV(_, l, r)     => l.cols ++ r.cols
    case AndV(l, r)        => l.cols ++ r.cols
    case OrV(l, r)         => l.cols ++ r.cols
    case NotV(e)           => e.cols
    case IfV(c, t, e)      => c.cols ++ t.cols ++ e.cols
    case LabelV(as)        => as.flatMap(_.cols).toSet
    case IsNotNullV(e)     => e.cols
    case WhenV(c, v)       => c.cols ++ v.cols
  }
}
final case class ColRef(name: String)                          extends ValExpr
final case class LitV(value: Any, tpe: ScalarTpe)              extends ValExpr
final case class ArithV(op: String, l: ValExpr, r: ValExpr)    extends ValExpr
final case class CmpV(op: String, l: ValExpr, r: ValExpr)      extends ValExpr
final case class AndV(l: ValExpr, r: ValExpr)                  extends ValExpr
final case class OrV(l: ValExpr, r: ValExpr)                   extends ValExpr
final case class NotV(e: ValExpr)                              extends ValExpr
final case class IfV(cond: ValExpr, thn: ValExpr, els: ValExpr) extends ValExpr
/** Label construction: a non-NULL hash of all components, NULLs included. */
final case class LabelV(components: Seq[ValExpr])              extends ValExpr
final case class IsNotNullV(e: ValExpr)                        extends ValExpr
/** `when(cond, value)` with NULL otherwise — masks values of absent rows. */
final case class WhenV(cond: ValExpr, value: ValExpr)          extends ValExpr

object ValExpr {
  def all(conds: Seq[ValExpr]): ValExpr =
    conds.reduceOption(AndV(_, _)).getOrElse(LitV(true, repro.core.BoolTpe))
}

/** Algebraic plan language of §2.2: selection, projection, (outer) join,
  * (outer) unnest, nest Γ⁺/Γ⊎, dedup and union, plus the unique-ID operator
  * used by outer-unnest and the hash partitioning the optimizer places under
  * a stack of nests. Executed by [[repro.core.exec.SparkExecutor]]
  * (DataFrames, Fig. 10) and [[repro.core.exec.RddExecutor]] (RDDs, Fig. 11).
  */
sealed trait Plan {
  def children: Seq[Plan] = this match {
    case _: Source                => Seq.empty
    case Select(c, _)             => Seq(c)
    case Project(c, _)            => Seq(c)
    case Join(l, r, _, _, _)      => Seq(l, r)
    case Unnest(c, _, _, _, _, _) => Seq(c)
    case AddIndex(c, _)           => Seq(c)
    case NestBag(c, _, _, _, _)   => Seq(c)
    case NestSum(c, _, _)         => Seq(c)
    case DedupP(c)                => Seq(c)
    case UnionP(l, r)             => Seq(l, r)
    case Partition(c, _)          => Seq(c)
  }

  /** Output columns (Sources are always wrapped in a Project by the
    * unnester, so the traversal is complete).
    */
  def outputCols: Set[String] = this match {
    case _: Source            => Set.empty
    case Project(_, cols)     => cols.map(_._1).toSet
    case Select(c, _)         => c.outputCols
    case Join(l, r, _, _, _)  => l.outputCols ++ r.outputCols
    case Unnest(c, bagCol, fields, prefix, _, pres) =>
      c.outputCols - bagCol ++ fields.map(f => s"${prefix}__$f") ++ pres
    case AddIndex(c, col)     => c.outputCols + col
    case NestBag(_, g, _, out, _) => g.toSet + out
    case NestSum(_, g, sums)  => g.toSet ++ sums.map(_._1)
    case DedupP(c)            => c.outputCols
    case UnionP(l, _)         => l.outputCols
    case Partition(c, _)      => c.outputCols
  }

  /** This operator over `f` of each child. */
  def mapChildren(f: Plan => Plan): Plan = this match {
    case s: Source            => s
    case Select(c, cond)      => Select(f(c), cond)
    case Project(c, cols)     => Project(f(c), cols)
    case Join(l, r, lk, rk, o) => Join(f(l), f(r), lk, rk, o)
    case Unnest(c, b, fs, pr, o, pc) => Unnest(f(c), b, fs, pr, o, pc)
    case AddIndex(c, col)     => AddIndex(f(c), col)
    case NestBag(c, g, sc, out, pres) => NestBag(f(c), g, sc, out, pres)
    case NestSum(c, g, sums)  => NestSum(f(c), g, sums)
    case DedupP(c)            => DedupP(f(c))
    case UnionP(l, r)         => UnionP(f(l), f(r))
    case Partition(c, keys)   => Partition(f(c), keys)
  }

  /** Operator count — used in tests asserting plan shapes. */
  def size: Int = 1 + children.map(_.size).sum

  def pretty(indent: Int = 0): String = {
    val pad = "  " * indent
    val head = this match {
      case Source(n)            => s"Source($n)"
      case Select(_, c)         => s"σ[$c]"
      case Project(_, cols)     => s"π[${cols.map(_._1).mkString(",")}]"
      case Join(_, _, lk, rk, o) => s"${if (o) "⟕" else "⋈"}[${lk.mkString(",")} = ${rk.mkString(",")}]"
      case Unnest(_, b, _, p, o, _) => s"${if (o) "outer-μ" else "μ"}[$b → $p]"
      case AddIndex(_, c)       => s"addIndex[$c]"
      case NestBag(_, g, _, out, _) => s"Γ⊎[key=${g.mkString(",")} → $out]"
      case NestSum(_, g, s)     => s"Γ+[key=${g.mkString(",")} → ${s.map(_._1).mkString(",")}]"
      case DedupP(_)            => "dedup"
      case UnionP(_, _)         => "⊎"
      case Partition(_, keys)   => s"partition[${keys.mkString(",")}]"
    }
    (pad + head) + children.map("\n" + _.pretty(indent + 1)).mkString
  }
}

/** Named input collection, looked up in the executor's catalog. */
final case class Source(name: String) extends Plan

/** σ — filter by a boolean expression. */
final case class Select(child: Plan, cond: ValExpr) extends Plan

/** π — projection with optional computation and renaming. */
final case class Project(child: Plan, cols: Seq[(String, ValExpr)]) extends Plan

/** ⋈ / ⟕ — equi-join on pre-computed key columns. `leftOuter = true` keeps
  * unmatched left tuples with NULL right columns (the outer-join variant the
  * unnesting algorithm emits below the root level).
  */
final case class Join(left: Plan, right: Plan, leftKeys: Seq[String],
                      rightKeys: Seq[String], leftOuter: Boolean) extends Plan

/** μ / outer-μ — unnest a bag-valued column of struct elements. Each element
  * field `f` becomes column `<prefix>__f`; `presenceCol` (outer variant)
  * records whether the row carries a real element (false for the padding row
  * of an empty bag).
  */
final case class Unnest(child: Plan, bagCol: String, fields: Seq[String],
                        prefix: String, outer: Boolean,
                        presenceCol: Option[String]) extends Plan

/** Attach a unique tuple identifier (outer-unnest/nest bookkeeping). */
final case class AddIndex(child: Plan, col: String) extends Plan

/** Γ⊎ — group by `groupCols`, collecting `(outField, inputCol)*` structs into
  * the array column `outCol`; rows whose `presence` is false contribute
  * nothing (an all-absent group yields the empty bag, per §2.2 NULL casting).
  */
final case class NestBag(child: Plan, groupCols: Seq[String],
                         structCols: Seq[(String, String)], outCol: String,
                         presence: Option[ValExpr]) extends Plan

/** Γ⁺ — group by `groupCols`, summing each value expression; NULLs from outer
  * operators are cast to 0.
  */
final case class NestSum(child: Plan, groupCols: Seq[String],
                         sums: Seq[(String, ValExpr)]) extends Plan

/** dedup — multiplicities to one. */
final case class DedupP(child: Plan) extends Plan

/** ⊎ — additive union (by column name). */
final case class UnionP(l: Plan, r: Plan) extends Plan

/** Hash-partition the rows by `keys`; the rows themselves are unchanged.
  * Placed by the optimizer where one exchange serves a stack of nests
  * grouped by supersets of `keys`.
  */
final case class Partition(child: Plan, keys: Seq[String]) extends Plan
