package repro.core.plan

import repro.core.RealTpe

/** Plan-level optimizations (§3.3, App. E.4):
  *
  *  - **Projection pushing** (column pruning): required columns are computed
  *    top-down and every `Project` is trimmed to them, so wide tuples shed
  *    unused attributes before shuffles.
  *  - **Aggregation pushing** (eager aggregation): a Γ⁺ over a join whose
  *    summed expression factors into `l_expr * r_expr` (sides disjoint) is
  *    rewritten to pre-aggregate the left side grouped by its join keys and
  *    retained grouping attributes — the partial-sums-before-the-Part-join
  *    rewrite of Example 2 — applied recursively down join chains.
  *    A left pre-aggregate is made only where it pays without statistics:
  *    it is keyed by the join's left keys alone, or the left side holds a
  *    join the partial sum pushes further into. A leaf pre-aggregate keyed
  *    by more than the join keys (`Γ⁺[label, partkey]` under T3's and T4's
  *    Part join) is shuffled by its own key and then again by the join key;
  *    on TPC-H its groups are nearly single rows, so it would shuffle them
  *    twice and save nothing. Such a Γ⁺ stays above the join, and the leaf
  *    rows are shuffled once. The guard loses where that leaf's
  *    groups average more than about two rows: the pre-aggregate would then
  *    have saved shuffle. A pre-aggregate over a join is kept, because it
  *    carries the sum below that join too (C3's consequences dictionary).
  *    Bottom-up label chains: before pushing, the Γ⁺'s inner-join chain is
  *    rotated, `(a ⋈ b) ⋈ c` → `a ⋈ (b ⋈ c)`, wherever both joins are
  *    inner and the upper join's left keys are non-empty and all columns
  *    of `b`. Inner equi-joins are associative, so the rows do not change.
  *    The rotated chain is kept where the Γ⁺'s grouping columns all come
  *    from `a` and a partial sum can be pushed into it (under the guard
  *    above, so no rotation is kept for a push that is then refused): what is
  *    pre-aggregated on the right is then keyed by the join keys alone. In
  *    a shredded nested-to-flat chain the Part join so sits in the lowest
  *    dictionary and only per-label sums cross each label join (§4). Every
  *    other plan keeps its join order. There is no cost model: a rotation
  *    whose pre-aggregate also groups by a right-side column can grow the
  *    joins below the Γ⁺ (the bio pipeline's `SampleNetwork__D_nodes`,
  *    rotated, shuffled 8 % more), and one without a Γ⁺ above it can give
  *    up the selectivity of the upper-left input.
  *  - **Join→nest partitioning reuse** (the cogroup of §3.3): a Γ⊎/Γ⁺
  *    that sits on a join through Projects and Selects only, and whose key
  *    holds the unique ID an `addIndex` gave the join's left side, also
  *    groups by the join's left keys. The ID fixes its left row, so the
  *    keys are a function of the ID and the groups do not change. The key
  *    then contains the join's hash partitioning, and Spark runs the nest
  *    in the join's stage: one shuffle, as a cogroup, not two. Every nest
  *    feeds, directly or through a join, a Project or an enclosing nest
  *    that names its columns, so the extra column never reaches the
  *    output. AQE's skew-join handling cannot split such a join
  *    without a second shuffle, so it leaves it whole; skew is the job of
  *    the §5 skew-aware route, which runs at `pushProjections`.
  *  - **Nest→nest partitioning reuse**: the standard route rebuilds a
  *    nested output bottom-up, one nest per level, and each lower nest's
  *    key contains the key of the nest above it. A hash partitioning on a
  *    subset of a grouping's columns satisfies that grouping (Zhou, Larson
  *    & Chaiken, ICDE 2010; Spark's `EnsureRequirements` honours it), so one
  *    exchange on the top key serves a whole stack. For a stack N₁ (top) …
  *    Nₖ, each reached from the one above through Projects that pass N₁'s
  *    non-empty key unchanged and each grouped by a superset of that key,
  *    a `Partition` on N₁'s key goes directly under Nₖ: the k exchanges of
  *    the stack become one. Where Nₖ keeps its own exchange, the
  *    `Partition` goes directly above Nₖ instead, and the k − 1 exchanges
  *    above it become one. Nₖ keeps its exchange where it already runs in
  *    its join's stage (its key holds the join's left keys, as the cogroup
  *    makes it), and where it is a Γ⁺: a `Partition` under a Γ⁺ would
  *    shuffle the Γ⁺'s whole input before Spark's map-side partial sum,
  *    which loses wherever that sum's groups are large (the biomedical
  *    steps' (sample, gene) sums over many joined rows). The rule is made
  *    only where it removes an exchange: standard T1's four Γ⊎, T4's
  *    Γ⊎/Γ⊎/Γ⁺ stack (the two Γ⊎ above the Γ⁺) and C1–C3's three-nest
  *    stacks. A Γ⊎ over a Γ⁺ alone, as in biomedical Steps 1, 2 and 4,
  *    is left as it is, and no shredded benchmark assignment has a stack,
  *    as each builds a flat bag. The cost is parallelism: the stack then
  *    runs in at most as many tasks as the top key has values (5 regions
  *    for T1, whose top Γ⊎ already had that limit). That cost is not
  *    measured: every run so far had no more cores than the top key has
  *    values.
  *
  * `Optimizer.level` mirrors the E.4 experiment: 0 = none, 1 = pushed
  * projections, 2 = full (projections, aggregation pushing and both
  * partitioning reuses).
  */
object Optimizer {

  val none: Plan => Plan = identity

  val pushProjections: Plan => Plan = p => prune(p, None)

  /** `full` without aggregation pushing: the level of App. E.6's
    * skew-unaware variants.
    */
  val withoutAggPushing: Plan => Plan = p => prune(partitionStacks(cogroup(p)), None)

  val full: Plan => Plan = p => withoutAggPushing(pushAgg(p))

  def level(n: Int): Plan => Plan = n match {
    case 0 => none
    case 1 => pushProjections
    case 2 => full
    case _ => sys.error(s"unknown optimization level $n")
  }

  // --------------------------------------------------- projection pushing

  /** Trim every `Project` to the columns required above it. `needed = None`
    * at the root keeps the full output.
    */
  private def prune(p: Plan, needed: Option[Set[String]]): Plan = p match {
    case Project(c, cols) =>
      val kept = needed match {
        case None    => cols
        case Some(n) => cols.filter { case (name, _) => n(name) }
      }
      Project(prune(c, Some(kept.flatMap(_._2.cols).toSet)), kept)

    case Select(c, cond) =>
      Select(prune(c, needed.map(_ ++ cond.cols)), cond)

    case Join(l, r, lk, rk, o) =>
      // Column names are globally unique, so both sides prune with the same
      // set; each keeps only what it actually produces.
      val n2 = needed.map(_ ++ lk ++ rk)
      Join(prune(l, n2), prune(r, n2), lk, rk, o)

    case Unnest(c, bagCol, fields, prefix, o, pres) =>
      val produced = fields.map(f => s"${prefix}__$f").toSet ++ pres
      Unnest(prune(c, needed.map(_ -- produced + bagCol)), bagCol, fields, prefix, o, pres)

    case AddIndex(c, col) =>
      AddIndex(prune(c, needed.map(_ - col)), col)

    case NestBag(c, g, sc, out, pres) =>
      val below = g.toSet ++ sc.map(_._2) ++ pres.toSeq.flatMap(_.cols)
      NestBag(prune(c, Some(below)), g, sc, out, pres)

    case NestSum(c, g, sums) =>
      val below = g.toSet ++ sums.flatMap(_._2.cols)
      NestSum(prune(c, Some(below)), g, sums)

    case Partition(c, keys) => Partition(prune(c, needed.map(_ ++ keys)), keys)
    case DedupP(c)   => DedupP(prune(c, needed))
    case UnionP(l, r) => UnionP(prune(l, needed), prune(r, needed))
    case s: Source   => s
  }

  // --------------------------------------------------- aggregation pushing

  /** Aggregation pushing. Partial-sum columns are numbered per call, so a
    * plan's rewrite does not depend on the rewrites made before it.
    */
  private def pushAgg(p: Plan): Plan = {
    var ctr = 0
    def fresh(): String = { ctr += 1; s"__pa_$ctr" }
    def push(p: Plan): Plan = p match {
      case ns @ NestSum(child, group, Seq((out, v))) =>
        val (chain, mapping) = resolveThroughProjects(child)
        val groupInner = group.map(g => mapping.getOrElse(g, ColRef(g)))
        val vInner     = substVal(v, mapping)
        // Bottom-up label chains: the rotated chain (see `rotate`) where the
        // grouping stays in its left input and a partial sum pushes into it.
        val base = rotate(chain) match {
          case j @ Join(l, r, lk, _, _)
              if groupInner.forall(_.cols.subsetOf(l.outputCols)) &&
                (vInner.cols.nonEmpty && vInner.cols.subsetOf(r.outputCols) ||
                  factor(vInner, l.outputCols, r.outputCols).nonEmpty &&
                    preAggregates(l, groupInner.flatMap(_.cols), lk)) => j
          case _ => chain
        }
        base match {
          case Join(l, r, lk, rk, joinOuter) =>
            if (!groupInner.forall(_.isInstanceOf[ColRef]))
              return ns.mapChildren(push)
            val gInner = groupInner.map { case ColRef(n) => n; case _ => sys.error("unreachable") }
            def restore(inner: Plan): Plan =
              Project(inner, group.zip(gInner).map { case (g, n) => g -> (ColRef(n): ValExpr) } :+
                (out -> (ColRef(out): ValExpr)))
            val (lc, rc) = (l.outputCols, r.outputCols)
            if (vInner.cols.nonEmpty && vInner.cols.subsetOf(rc) && !joinOuter) {
              // The summed expression lives entirely on the right side:
              // pre-aggregate it below the join — this is what localizes the
              // aggregation onto the lowest dictionary in shredded
              // nested-to-flat chains (§4.6).
              val rGroup = (gInner.filter(rc) ++ rk).distinct
              val tmp    = fresh()
              val rAgg   = push(NestSum(r, rGroup, Seq(tmp -> vInner)))
              restore(NestSum(Join(l, rAgg, lk, rk, joinOuter), gInner, Seq(out -> ColRef(tmp))))
            } else factor(vInner, lc, rc) match {
              case Some((lExpr, rExpr)) if preAggregates(l, gInner, lk) =>
                val lGroup = (gInner.filter(lc) ++ lk).distinct
                val tmp    = fresh()
                // Pre-aggregate the left side, then recurse: the partial sum
                // may push further down a join chain.
                val lAgg = push(NestSum(l, lGroup, Seq(tmp -> lExpr)))
                restore(NestSum(Join(lAgg, r, lk, rk, joinOuter), gInner,
                  Seq(out -> ArithV("*", ColRef(tmp), rExpr))))
              case _ => ns.mapChildren(push)
            }
          case _ => ns.mapChildren(push)
        }
      case other => other.mapChildren(push)
    }
    push(p)
  }

  /** Whether the left pre-aggregate of a Γ⁺ grouped by `group` pays: it is
    * keyed by the join's left keys `lk` alone, so it shuffles as the join
    * does, or `l` holds a join the partial sum can push further into.
    */
  private def preAggregates(l: Plan, group: Seq[String], lk: Seq[String]): Boolean =
    group.filter(l.outputCols).forall(lk.contains) || hasJoin(l)

  private def hasJoin(p: Plan): Boolean = p.isInstanceOf[Join] || p.children.exists(hasJoin)

  /** `(a ⋈ b) ⋈ c` → `a ⋈ (b ⋈ c)` for inner joins whose upper keys are
    * non-empty and all b's: inner equi-joins are associative.
    */
  private def rotate(p: Plan): Plan = p match {
    case Join(Join(a, b, lk1, rk1, false), c, lk2, rk2, false)
        if lk2.nonEmpty && lk2.toSet.subsetOf(b.outputCols) =>
      rotate(Join(a, rotate(Join(b, c, lk2, rk2, false)), lk1, rk1, false))
    case other => other
  }

  // ------------------------------------------- join→nest partitioning reuse

  private def cogroup(p: Plan): Plan = p.mapChildren(cogroup) match {
    case NestBag(c, g, sc, out, pres) =>
      val (c2, g2) = groupOnJoinKeys(c, g)
      NestBag(c2, g2, sc, out, pres)
    case NestSum(c, g, sums) =>
      val (c2, g2) = groupOnJoinKeys(c, g)
      NestSum(c2, g2, sums)
    case other => other
  }

  /** The nest input and group with the join's missing left keys added, when
    * `child` reaches a join through Projects and Selects whose left side
    * reaches an `addIndex` with its ID in `group`, every Project on the way
    * passing the ID unchanged.
    */
  private def groupOnJoinKeys(child: Plan, group: Seq[String]): (Plan, Seq[String]) = {
    def index(p: Plan): Option[String] = p match {
      case AddIndex(_, id)  => Some(id)
      case Select(c, _)     => index(c)
      case Project(c, cols) => index(c).filter(id => cols.contains(id -> ColRef(id)))
      case _                => None
    }
    def join(p: Plan): Option[(String, Seq[String])] = p match {
      case Join(l, _, lk, _, _) if lk.nonEmpty => index(l).map(_ -> lk)
      case Select(c, _)     => join(c)
      case Project(c, cols) => join(c).filter { case (id, _) => cols.contains(id -> ColRef(id)) }
      case _                => None
    }
    def keep(p: Plan, cols: Seq[String]): Plan = p match {
      case Project(c, pc) =>
        Project(keep(c, cols), pc ++ cols.filterNot(pc.map(_._1).contains).map(k => k -> ColRef(k)))
      case Select(c, cond) => Select(keep(c, cols), cond)
      case j               => j
    }
    join(child) match {
      case Some((id, lk)) if group.contains(id) =>
        val extra = lk.filterNot(group.contains)
        (keep(child, extra), group ++ extra)
      case _ => (child, group)
    }
  }

  // ------------------------------------------ nest→nest partitioning reuse

  /** At each stack of nests N₁ (top) … Nₖ whose keys all contain N₁'s
    * non-empty key, one `Partition` on that key: under Nₖ, or above it when
    * Nₖ keeps its own exchange (it runs in its join's stage, or it is a Γ⁺
    * whose map-side partial sum comes before that exchange). Placed only
    * where it removes an exchange.
    */
  private def partitionStacks(p: Plan): Plan = {
    val key   = groupCols(p)
    val stack = if (key.isEmpty) Nil else nestsBelow(p, key)
    stack.lastOption match {
      case Some(low) if stack.size >= 3 && keepsExchange(low) =>
        placeAt(p, low, Partition(low.mapChildren(partitionStacks), key))
      case Some(low) if stack.size >= 2 && !keepsExchange(low) =>
        placeAt(p, low, low.mapChildren(c => Partition(partitionStacks(c), key)))
      case _ => p.mapChildren(partitionStacks)
    }
  }

  private def keepsExchange(low: Plan): Boolean = low.isInstanceOf[NestSum] || inJoinStage(low)

  private def groupCols(p: Plan): Seq[String] = p match {
    case NestBag(_, g, _, _, _) => g
    case NestSum(_, g, _)       => g
    case _                      => Nil
  }

  /** `nest` and the nests below it, each reached from the one above through
    * Projects that pass `key` unchanged and grouped by a superset of `key`.
    */
  private def nestsBelow(nest: Plan, key: Seq[String]): List[Plan] = {
    def next(p: Plan): Option[Plan] = p match {
      case Project(c, cols) if key.forall(k => cols.contains(k -> ColRef(k))) => next(c)
      case n @ (_: NestBag | _: NestSum) if key.forall(groupCols(n).contains) => Some(n)
      case _ => None
    }
    nest :: nest.children.headOption.flatMap(next).map(nestsBelow(_, key)).getOrElse(Nil)
  }

  /** Whether `nest` groups by the left keys of a join it reaches through
    * Projects and Selects, so Spark runs it in that join's stage.
    */
  private def inJoinStage(nest: Plan): Boolean = {
    def leftKeys(p: Plan): Seq[String] = p match {
      case Join(_, _, lk, _, _) => lk
      case Select(c, _)         => leftKeys(c)
      case Project(c, cols)     =>
        val lk = leftKeys(c)
        if (lk.forall(k => cols.contains(k -> ColRef(k)))) lk else Nil
      case _                    => Nil
    }
    val lk = nest.children.flatMap(leftKeys)
    lk.nonEmpty && lk.forall(groupCols(nest).contains)
  }

  /** `p` with the nest `low` of its stack replaced by `by`. */
  private def placeAt(p: Plan, low: Plan, by: Plan): Plan =
    if (p eq low) by else p.mapChildren(placeAt(_, low, by))

  /** Peel `Project` layers, composing their column definitions. */
  private def resolveThroughProjects(p: Plan): (Plan, Map[String, ValExpr]) = p match {
    case Project(c, cols) =>
      val (base, inner) = resolveThroughProjects(c)
      (base, cols.map { case (n, v) => n -> substVal(v, inner) }.toMap)
    case other => (other, Map.empty)
  }

  private def substVal(v: ValExpr, m: Map[String, ValExpr]): ValExpr = v match {
    case ColRef(n)        => m.getOrElse(n, v)
    case ArithV(op, a, b) => ArithV(op, substVal(a, m), substVal(b, m))
    case CmpV(op, a, b)   => CmpV(op, substVal(a, m), substVal(b, m))
    case AndV(a, b)       => AndV(substVal(a, m), substVal(b, m))
    case OrV(a, b)        => OrV(substVal(a, m), substVal(b, m))
    case NotV(a)          => NotV(substVal(a, m))
    case IfV(c, t, e)     => IfV(substVal(c, m), substVal(t, m), substVal(e, m))
    case LabelV(as)       => LabelV(as.map(substVal(_, m)))
    case IsNotNullV(a)    => IsNotNullV(substVal(a, m))
    case WhenV(c, a)      => WhenV(substVal(c, m), substVal(a, m))
    case _: LitV          => v
  }

  /** Split `v` into `lExpr * rExpr` with column sets on opposite join sides;
    * an expression entirely on one side pairs with the literal 1.
    */
  private def factor(v: ValExpr, lCols: Set[String], rCols: Set[String]): Option[(ValExpr, ValExpr)] =
    v match {
      case _ if v.cols.nonEmpty && v.cols.subsetOf(lCols) => Some((v, LitV(1.0, RealTpe)))
      case ArithV("*", a, b) if a.cols.subsetOf(lCols) && a.cols.nonEmpty &&
                                b.cols.subsetOf(rCols) && b.cols.nonEmpty => Some((a, b))
      case ArithV("*", a, b) if b.cols.subsetOf(lCols) && b.cols.nonEmpty &&
                                a.cols.subsetOf(rCols) && a.cols.nonEmpty => Some((b, a))
      case _ => None
    }
}
