package nestbench

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.core.exec.SparkExecutor
import repro.core.plan.{Optimizer, Plan, Unnester}
import repro.shred.{Shredder, Unshredder}
import repro.skew.{SkewConfig, SkewOps}

/** What one run of a route leaves: the outputs to verify (shredded routes
  * leave theirs shredded in `catalog`), the DataFrames it cached (released
  * after verification), row counts of the cached outputs, and the layer
  * counts the trace reports.
  */
final case class RouteOut(
    outputs: Map[String, DataFrame],
    catalog: Map[String, DataFrame],
    cached: Seq[DataFrame],
    rows: Map[String, Long],
    planOps: Int,
    assignments: Seq[AssignmentRun],
    skewCalls: Seq[(DataFrame, Seq[String])]) {
  def unpersist(): Unit = cached.foreach(_.unpersist(blocking = true))
}

/** One shredded assignment as the `shred` route ran it. */
final case class AssignmentRun(name: String, ns: Long, rows: Long)

/** The routes of the benchmark, composed from the compiler's public entry
  * points exactly as `Routes.standard`, `ShredPipeline.run` and
  * `Fig7.runShred` compose them, with a span around every call into a
  * layer: `Shredder.shred`, `Unnester.compile`, the `Optimizer` level,
  * `SparkExecutor.execute`, the skew `JoinImpl`, `Unshredder.unshred`, and
  * the action that forces the result.
  */
final class Routes(tr: Tracer, ops: OpRunner) {
  import Routes._

  private def plan(e: repro.core.NRC.Expr, route: String): Plan = {
    val p = tr.span("unnest")(Unnester.compile(e))
    tr.span("optimize")(optimizer(route)(p))
  }

  private def joinImpl(route: String, calls: mutable.Buffer[(DataFrame, Seq[String])]): SparkExecutor.JoinImpl =
    if (!isSkew(route)) SparkExecutor.defaultJoin
    else {
      val skew = SkewOps.skewJoin(SkewConfig())
      (l, r, lk, rk, outer) => {
        calls += (l -> lk)
        tr.span("skew")(skew(l, r, lk, rk, outer))
      }
    }

  /** When set, results are forced by computing their fingerprints (stored
    * here by output name) instead of by a `noop` write: the verification
    * round checks outputs without computing them twice.
    */
  var fingerprints: Option[mutable.Map[String, Fingerprint]] = None

  /** Force every row and column of a result without caching it. */
  def force(name: String, df: DataFrame): Unit = tr.span("action") {
    fingerprints match {
      case Some(fps) => fps(name) = Fingerprint.of(df)
      case None => df.write.format("noop").mode("overwrite").save()
    }
  }

  /** Cache a result and count it, as the paper's shredded measurement does. */
  def materialize(df: DataFrame): (DataFrame, Long) = tr.span("action") {
    val p = df.persist()
    (p, p.count())
  }

  /** `standard` or `standard_skew` over the route's program. The `standard`
    * route bills each assignment's jobs to a tag of its own (its name).
    */
  def standard(w: Workload, inputs: Map[String, DataFrame], route: String): RouteOut = {
    val calls = mutable.Buffer.empty[(DataFrame, Seq[String])]
    val join = joinImpl(route, calls)
    var planOps = 0
    val out = w.programFor(route).assignments.map { a =>
      val p = plan(a.expr, route)
      planOps += p.size
      val df = tr.span("build")(new SparkExecutor(inputs, join).execute(p))
      if (route == standardR) ops.sub(a.name)(force(a.name, df)) else force(a.name, df)
      a.name -> df
    }
    RouteOut(out.toMap, inputs, Nil, Map.empty, planOps, Nil, calls.toSeq)
  }

  /** `shred` or `shred_skew`: shred each assignment, then compile, run and
    * materialize every shredded assignment in order. Outputs stay shredded.
    * The `shred` route bills each shredded assignment's jobs to a tag of its
    * own (`a0`, `a1`, … in execution order).
    */
  def shred(w: Workload, inputs: Map[String, DataFrame], route: String): RouteOut = {
    val calls = mutable.Buffer.empty[(DataFrame, Seq[String])]
    val join = joinImpl(route, calls)
    var cat = inputs
    val cached = mutable.Buffer.empty[DataFrame]
    val rows = mutable.Map.empty[String, Long]
    val asgs = mutable.Buffer.empty[AssignmentRun]
    var planOps = 0
    for (a <- w.programFor(route).assignments) {
      val sq = tr.span("shred")(Shredder.shred(a.name, a.expr))
      for (s <- sq.assignments) {
        val t0 = System.nanoTime()
        def run(): (DataFrame, Long) = {
          val p = plan(s.expr, route)
          planOps += p.size
          materialize(tr.span("build")(new SparkExecutor(cat, join).execute(p)))
        }
        val (m, n) = if (route == "shred") ops.sub(s"a${asgs.size}")(run()) else run()
        asgs += AssignmentRun(s.name, System.nanoTime() - t0, n)
        cat += s.name -> m
        cached += m
        rows(s.name) = n
      }
    }
    RouteOut(Map.empty, cat, cached.toSeq, rows.toMap, planOps, asgs.toSeq, calls.toSeq)
  }

  /** Reassemble every nested output of a shredded run and force it. */
  def unshred(w: Workload, shredded: RouteOut): RouteOut = {
    val out = nestedOutputs(w).map { a =>
      val df = tr.span("unshred")(Unshredder.unshred(a.name, a.expr.asBag, shredded.catalog))
      force(a.name, df)
      a.name -> df
    }
    RouteOut(out.toMap, shredded.catalog, Nil, Map.empty, 0, Nil, Nil)
  }
}

object Routes {
  val standardR = "standard"
  val shredR = "shred"
  val unshredR = "unshred"
  val standardSkewR = "standard_skew"
  val shredSkewR = "shred_skew"

  /** Execution order within a round: `unshred` reads what `shred` cached. */
  val all: Seq[String] = Seq(standardR, shredR, unshredR, standardSkewR, shredSkewR)

  def isSkew(route: String): Boolean = route.endsWith("_skew")

  /** Fig. 8 setup: the skew-aware routes run without aggregation pushing. */
  def optimizer(route: String): Plan => Plan = if (isSkew(route)) Optimizer.pushProjections else Optimizer.full

  def nestedOutputs(w: Workload): Seq[repro.core.NRC.Assignment] =
    w.program.assignments.filterNot(_.expr.asBag.isFlat)
}
