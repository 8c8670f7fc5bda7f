package nestbench

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.skew.{SkewConfig, SkewOps}
import Routes._

/** One operation as recorded: which route, in which round, whether it was
  * traced, its outcome, its spans, and whether its output checked out.
  */
final case class OpRec(route: String, round: Int, traced: Boolean, res: OpResult[RouteOut],
                       spans: Seq[Span], ok: Boolean) {
  def wallS: Double = res.wallNs / 1e9
  def out: Option[RouteOut] = res.value.toOption
}

/** What a route's measured operations must reproduce: the row counts of
  * the outputs it cached, and the rows its `noop` writes wrote.
  */
final case class Expected(cached: Map[String, Long], written: Long)

/** One run of one workload.
  *
  *  1. A traced run first checks every route against `LocalEval` at reduced
  *     scale. (An untraced run skips this, so that most of it measures.)
  *  2. Set-up three times (generate and cache the inputs); report the median.
  *  3. At benchmark size, run one round of all routes and check every
  *     output's fingerprint against the hand-written SparkSQL baseline's.
  *     This round is the warm-up at full size; no metric times it.
  *  4. Measure: rounds of all routes, closed loop, until the operations
  *     have taken `seconds` in all. A traced run traces every other round,
  *     so that the rounds in between give the tracing overhead.
  */
final class Bench(spark: SparkSession, w: Workload, a: Main.Args) {
  private val ops = new OpRunner(spark)
  private val tr = new Tracer
  private val routes = new Routes(tr, ops)
  private val timeout = 90.seconds
  private var attempted = 0
  private var failed = 0
  private val problems = mutable.Buffer.empty[String]

  private var last = System.nanoTime() -
    java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime * 1000000L
  private val phases = mutable.Buffer.empty[(String, Double)]
  private def phase(name: String): Unit = {
    val now = System.nanoTime()
    phases += name -> (now - last) / 1e9
    val up = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    Console.err.println(f"[nestbench] $name: ${(now - last) / 1e9}%.1f s (JVM up $up%.1f s)")
    last = now
  }

  private def problem(msg: String): Boolean = {
    problems += msg
    Console.err.println(s"[nestbench] $msg")
    false
  }

  /** Runs one round of every route; `check` sees each successful output
    * before what the route cached is released.
    */
  private def round(in: Inputs, n: Int, traced: Boolean, fingerprint: Boolean = false)
                   (check: (String, OpResult[RouteOut]) => Boolean): Seq[OpRec] = {
    var shredded: Option[RouteOut] = None
    Routes.all.map { route =>
      routes.fingerprints = if (fingerprint) Some(mutable.Map.empty) else None
      tr.on = traced
      val res = ops.run(timeout) { id =>
        tr.beginOp(id)
        tr.span("op") {
          route match {
            case `standardR` | `standardSkewR` => routes.standard(w, in.catalog, route)
            case `shredR` | `shredSkewR` => routes.shred(w, in.catalog, route)
            case `unshredR` =>
              routes.unshred(w, shredded.getOrElse(throw new IllegalStateException("shred route failed")))
          }
        }
      }
      tr.on = false
      attempted += 1
      val c0 = System.nanoTime()
      val ok = res.value match {
        case Left(e) => problem(s"$route failed in round $n: $e")
        case Right(_) =>
          try check(route, res)
          catch { case NonFatal(e) => problem(s"$route output check failed in round $n: $e") }
      }
      Console.err.println(f"[nestbench]   round $n $route: ${res.wallNs / 1e9}%.2f s, check ${(System.nanoTime() - c0) / 1e9}%.2f s")
      if (!ok) failed += 1
      res.value.foreach { out =>
        if (route == shredR) shredded = Some(out) else out.unpersist()
      }
      if (route == unshredR) shredded.foreach(_.unpersist())
      OpRec(route, n, traced, res, if (traced) tr.ofOp(res.id) else Nil, ok)
    }
  }

  /** The routes' outputs for every assignment the route reports. */
  private def outputs(route: String, out: RouteOut) = route match {
    case `shredR` | `shredSkewR` =>
      w.programFor(route).assignments.map(asg => asg.name -> Fingerprint.shreddedOutput(asg, out.catalog))
    case _ => out.outputs.toSeq
  }

  private def localCheck(): Unit = {
    val small = Inputs.make(spark, w, w.checkSf, a.seed)
    val local = LocalCheck.inputs(small.catalog)
    // The interpreter needs no Spark; it runs while the routes do.
    val expected = Future(LocalCheck.expected(w, local))(ExecutionContext.global)
    round(small, 0, traced = false) { (route, res) =>
      outputs(route, res.value.toOption.get).forall { case (name, df) =>
        LocalCheck.canon(df) == Await.result(expected, 5.minutes)(name) ||
          problem(s"$route output $name differs from LocalEval at scale ${w.checkSf}")
      }
    }
    small.unpersist()
  }

  /** Checks every output's fingerprint against the SparkSQL baseline's,
    * with results forced by fingerprinting them. A `shred` run's nested
    * outputs are checked through the `unshred` run that reassembles them.
    * Returns what each route's measured operations must reproduce, and
    * each route's output rows.
    */
  private def verifyRound(in: Inputs): (Map[String, Expected], Map[String, Long]) = {
    val ref = w.sql(spark, in.catalog).map { case (k, v) => k -> Fingerprint.of(v) }
    phase("sql reference")
    val expected = mutable.Map.empty[String, Expected]
    val outRows = mutable.Map.empty[String, Long]
    round(in, 0, traced = false, fingerprint = true) { (route, res) =>
      val out = res.value.toOption.get
      val fps = route match {
        case `shredR` => w.program.assignments.filter(_.expr.asBag.isFlat)
          .map(a => a.name -> Fingerprint.of(Fingerprint.shreddedOutput(a, out.catalog)))
        case `shredSkewR` => w.skewProgram.assignments
          .map(a => a.name -> Fingerprint.of(Fingerprint.shreddedOutput(a, out.catalog)))
        case _ => routes.fingerprints.get.toSeq
      }
      // An output that is not cached is forced by a noop write, which
      // writes its top-level rows.
      val fpRows = fps.map(_._2.rows).sum
      expected(route) = Expected(out.rows, if (out.rows.isEmpty) fpRows else 0L)
      outRows(route) = if (out.rows.nonEmpty) out.rows.values.sum else fpRows
      fps.forall { case (k, fp) =>
        fp.matches(ref(k)) || problem(s"$route output $k: fingerprint $fp, SparkSQL baseline ${ref(k)}")
      }
    }
    routes.fingerprints = None
    (expected.toMap, outRows.toMap)
  }

  /** Garbage-collection time of the whole JVM (driver and local executors). */
  private def gcMs(): Long = {
    import scala.jdk.CollectionConverters._
    java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  }

  def run(): Bench.Result = {
    phase("spark start")
    if (a.trace) {
      localCheck()
      phase("local check")
    }
    val setups = (1 to 3).map { i =>
      val in = Inputs.make(spark, w, w.sf, a.seed)
      if (i < 3) in.unpersist()
      Console.err.println(f"[nestbench] set-up $i: generate ${in.genNs / 1e9}%.2f s, derive ${in.cacheNs / 1e9}%.2f s")
      in
    }
    val in = setups.last
    phase("setup")
    val (expected, outRows) = verifyRound(in)
    phase("verify round")

    val heavy = mutable.Map.empty[String, Seq[Int]]
    def check(route: String, res: OpResult[RouteOut]): Boolean = {
      val out = res.value.toOption.get
      // Heavy keys found per skew join, recomputed with SkewOps' own
      // (seeded, deterministic) sampling outside the timed operation.
      if (a.trace && isSkew(route) && !heavy.contains(route))
        heavy(route) = out.skewCalls.map { case (l, k) => SkewOps.heavyKeys(l, k, SkewConfig()).size }
      val got = Expected(out.rows, res.plan.written)
      expected.get(route).contains(got) ||
        problem(s"$route cached and wrote $got, the verified round ${expected.get(route)}")
    }

    val recs = mutable.Buffer.empty[OpRec]
    val start = System.nanoTime()
    val gc0 = gcMs()
    var n = 0
    // The window counts operation time only, not the checks between them.
    // On a slow host the run still ends in time: no round starts after
    // the deadline.
    def measured = recs.map(_.res.wallNs).sum
    def late = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime > Bench.DeadlineMs
    while (n < Bench.MinRounds || (measured < a.seconds * 1000000000L && !late)) {
      n += 1
      recs ++= round(in, n, traced = a.trace && n % 2 == 1)(check)
    }
    val windowS = (System.nanoTime() - start) / 1e9
    val gcPerRoundS = (gcMs() - gc0) / 1e3 / n
    phase(s"measure ($n rounds)")
    ops.shutdown()

    val m = new Metrics(recs.toSeq, setups, heavy.toMap, outRows, gcPerRoundS, attempted, failed)
    val metrics = if (a.trace) m.perLayer else m.endToEnd
    val correct = problems.isEmpty
    val result = Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      })))
    val samples = Routes.all.map(r => r -> Json.num(recs.count(x => x.route == r && x.ok && !x.traced).toDouble))
    val config = Json.obj(Seq(
      "workload" -> Json.str(w.name), "seed" -> a.seed.toString, "seconds" -> a.seconds.toString,
      "trace" -> (if (a.trace) "1" else "0"), "sf" -> Json.num(w.sf), "check_sf" -> Json.num(w.checkSf),
      "git_sha" -> Json.str(sys.props.getOrElse("nestbench.gitSha", "unknown")),
      "source_sha" -> Json.str(sys.props.getOrElse("nestbench.sourceSha", "unknown")),
      "heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "rounds" -> n.toString, "window_s" -> Json.num(windowS),
      "untraced_samples_per_route" -> Json.obj(samples),
      "spark" -> Json.obj(Session.settings("").collect {
        case (k, _) if !k.endsWith(".dir") => k -> Json.str(spark.conf.get(k))
      }),
      "phases_s" -> Json.obj(phases.map { case (k, v) => k -> Json.num(v) }.toSeq),
      "problems" -> problems.map(Json.str).mkString("[", ", ", "]")))
    val ops_ = recs.map { r =>
      Json.obj(Seq("route" -> Json.str(r.route), "round" -> r.round.toString, "traced" -> r.traced.toString,
        "ok" -> r.ok.toString, "wall_s" -> Json.num(r.wallS), "cpu_s" -> Json.num(r.res.cpuNs / 1e9),
        "shuffle_write_bytes" -> r.res.counters.shuffleWrite.toString,
        "written_rows" -> r.res.plan.written.toString,
        "shuffle_write_bytes_by_part" -> Json.obj(r.res.sub.toSeq.sortBy(_._1).map { case (k, c) =>
          k -> c.shuffleWrite.toString }),
        "jobs" -> r.res.counters.jobs.toString, "tasks" -> r.res.counters.tasks.toString))
    }
    val assignments = Json.obj(Seq("shred_assignments" -> m.assignments.map { case (name, t, mb, rows) =>
      Json.obj(Seq("name" -> Json.str(name), "s" -> Json.num(t), "shuffle_mb" -> Json.num(mb), "rows" -> Json.num(rows)))
    }.mkString("[", ", ", "]")))
    val record = Json.obj(Seq("config" -> config, "result" -> result, "assignments" -> assignments,
      "ops" -> ops_.mkString("[\n", ",\n", "\n]"), "spans" -> Tracer.toJson(tr.all)))
    Bench.Result(config, assignments, result, record)
  }
}

object Bench {
  /** JVM uptime after which no measured round starts: the slowest rounds
    * seen took about 20 s, and the run must end within 180 s.
    */
  val DeadlineMs = 120000L

  /** Measured rounds at the least: two samples per route, and in a traced
    * run one traced and one untraced round.
    */
  val MinRounds = 2

  final case class Result(config: String, assignments: String, result: String, record: String)
}
