package nestbench

import Routes._

/** Turns the recorded operations into the reported metrics: end-to-end
  * metrics from untraced rounds, per-layer metrics from traced ones.
  * Medians are over a route's successful operations.
  */
final class Metrics(recs: Seq[OpRec], setups: Seq[Inputs], heavy: Map[String, Seq[Int]],
                    outRows: Map[String, Long], gcPerRoundS: Double, attempted: Int, failed: Int) {
  type M = (String, Double, String)

  /** Shredded assignments reported one by one: as many as every workload
    * has (tpch_skew: 3), so each name means something on every workload.
    * The run record lists all of them.
    */
  val ReportedAssignments = 3

  private def of(route: String, traced: Boolean) = recs.filter(r => r.route == route && r.ok && r.traced == traced)
  private def med(rs: Seq[OpRec])(f: OpRec => Double): Double = Stats.median(rs.map(f))
  private val MB = 1e6

  /** `ok_frac` counts every operation of the run, checks included. */
  def endToEnd: Seq[M] = {
    val untraced = recs.filterNot(_.traced)
    Seq(("setup_s", Stats.median(setups.map(s => (s.genNs + s.cacheNs) / 1e9)), "s")) ++
      Routes.all.map(r => (s"${r}_s", med(of(r, traced = false))(_.wallS), "s")) ++
      Routes.all.map(r => (s"${r}_shuffle_mb", med(of(r, traced = false))(_.res.counters.shuffleWrite / MB), "MB")) ++
      Seq(
        ("peak_task_mem_mb", untraced.map(_.res.counters.peakMem / MB).maxOption.getOrElse(0.0), "MB"),
        ("ok_frac", 1 - failed.toDouble / math.max(1, attempted), "ratio"))
  }

  /** Every shredded assignment of the `shred` route, in execution order:
    * name, then medians over traced operations of seconds, shuffle-write MB
    * and rows.
    */
  def assignments: Seq[(String, Double, Double, Double)] = {
    val rs = of(shredR, true)
    rs.headOption.flatMap(_.out).fold(Seq.empty[(String, Double, Double, Double)]) { first =>
      first.assignments.indices.map { i =>
        def at(f: (AssignmentRun, Counters) => Double) = med(rs) { r =>
          r.out.flatMap(_.assignments.lift(i)).fold(0.0)(a => f(a, r.res.sub.getOrElse(s"a$i", new Counters)))
        }
        (first.assignments(i).name, at((a, _) => a.ns / 1e9), at((_, c) => c.shuffleWrite / MB), at((a, _) => a.rows.toDouble))
      }
    }
  }

  def perLayer: Seq[M] = {
    val traced = recs.filter(_.traced)
    def spanS(r: OpRec, names: String*) = r.spans.filter(s => names.contains(s.name)).map(_.durNs).sum / 1e9
    val rounds = traced.map(_.round).distinct.size.max(1)

    val data = Seq(
      ("data.gen_s", Stats.median(setups.map(_.genNs / 1e9)), "s"),
      ("data.cache_s", Stats.median(setups.map(_.cacheNs / 1e9)), "s"),
      ("data.input_rows", setups.last.rows.toDouble, "count"))

    val shred = Seq(shredR, shredSkewR).map(r => (s"$r.shred_ms", med(of(r, true))(spanS(_, "shred") * 1e3), "ms")) :+
      (("shred.assignments", med(of(shredR, true))(_.out.fold(0.0)(_.assignments.size)), "count"))

    val plan = Seq(standardR, shredR, standardSkewR, shredSkewR).flatMap { r =>
      val rs = of(r, true)
      Seq((s"$r.unnest_ms", med(rs)(spanS(_, "unnest") * 1e3), "ms"),
        (s"$r.optimize_ms", med(rs)(spanS(_, "optimize") * 1e3), "ms"),
        (s"$r.plan_ops", med(rs)(_.out.fold(0.0)(_.planOps)), "count"))
    }

    val exec = Routes.all.flatMap { r =>
      val rs = of(r, true)
      val c = (f: Counters => Double) => med(rs)(x => f(x.res.counters))
      Seq(
        (s"$r.build_ms", med(rs)(spanS(_, "build", "unshred") * 1e3), "ms"),
        (s"$r.action_s", med(rs)(spanS(_, "action")), "s"),
        (s"$r.jobs", c(_.jobs.toDouble), "count"),
        (s"$r.stages", c(_.stages.toDouble), "count"),
        (s"$r.tasks", c(_.tasks.toDouble), "count"),
        (s"$r.task_s", c(_.runMs / 1e3), "s"),
        (s"$r.core_util", med(rs)(x => x.res.counters.runMs / 1e3 / (x.wallS * Session.cores)), "ratio"),
        (s"$r.shuffle_read_mb", c(_.shuffleRead / MB), "MB"),
        (s"$r.exchanges", med(rs)(_.res.exchanges.toDouble), "count")) ++
        (if (isSkew(r)) Seq((s"$r.broadcasts", med(rs)(_.res.broadcasts.toDouble), "count")) else Nil) :+
        ((s"$r.out_rows", outRows.getOrElse(r, 0L).toDouble, "count"))
    } ++ Seq(
      ("exec.spill_mb", traced.map(_.res.counters.spill / MB).sum / rounds, "MB"),
      ("exec.gc_s", gcPerRoundS, "s"))

    val perAssignment = assignments.take(ReportedAssignments).zipWithIndex.flatMap { case ((_, t, mb, rows), i) =>
      Seq((s"shred.a$i.s", t, "s"), (s"shred.a$i.shuffle_mb", mb, "MB"), (s"shred.a$i.rows", rows, "count"))
    }

    val skew = Seq(standardSkewR, shredSkewR).flatMap { r =>
      val hk = heavy.getOrElse(r, Nil)
      Seq((s"$r.join_calls", med(of(r, true))(_.out.fold(0.0)(_.skewCalls.size)), "count"),
        (s"$r.sample_s", med(of(r, true))(spanS(_, "skew")), "s"),
        (s"$r.heavy_keys", hk.sum.toDouble, "count"),
        (s"$r.sample_hit_ratio", if (hk.isEmpty) 0.0 else hk.count(_ > 0).toDouble / hk.size, "ratio"))
    }

    // Self time per layer, per traced round.
    val self = Tracer.selfTimes(traced.flatMap(_.spans))
    val layerOf = Map("op" -> "other", "shred" -> "shred", "unnest" -> "plan", "optimize" -> "plan",
      "build" -> "build", "skew" -> "skew", "action" -> "action", "unshred" -> "unshred")
    val layers = Seq("shred", "plan", "build", "skew", "action", "unshred", "other").map { l =>
      (s"layer.${l}_s", self.collect { case (n, ns) if layerOf.get(n).contains(l) => ns }.sum / 1e9 / rounds, "s")
    }

    def roundWall(t: Boolean) = Stats.median(recs.filter(_.traced == t).groupBy(_.round).values
      .filter(_.forall(_.ok)).map(_.map(_.wallS).sum).toSeq)
    val overhead = Seq(("trace.overhead_pct", (roundWall(true) / roundWall(false) - 1) * 100, "%"))

    data ++ shred ++ plan ++ exec ++ perAssignment ++ skew ++ layers ++ overhead
  }
}
