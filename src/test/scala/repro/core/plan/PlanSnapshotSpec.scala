package repro.core.plan

import scala.io.{Codec, Source}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.NRC.Expr
import repro.queries.{BioQueries, TpchQueries}
import repro.shred.Shredder

/** The plans of the benchmark queries on every compile path, and of the
  * shredded bio queries, compared with `src/test/resources/plans.txt`: a
  * change that alters any of them shows up here, with the full text of the
  * plans it now produces.
  */
class PlanSnapshotSpec extends AnyFunSuite {

  test("benchmark query plans match plans.txt") {
    val src = Source.fromResource("plans.txt")(Codec.UTF8)
    val expected = try src.mkString finally src.close()
    val actual = PlanSnapshotSpec.render
    assert(actual == expected, s"plans differ from plans.txt; actual plans:\n$actual")
  }
}

object PlanSnapshotSpec {

  /** T1 (flat-to-nested L4 wide), T3 (nested-to-flat L2 narrow) and T4
    * (nested-to-nested L2 narrow), as the benchmark runs them.
    */
  private val queries: Seq[(String, Expr)] = Seq(
    "T1" -> TpchQueries.flatToNested(4, wide = true),
    "T3" -> TpchQueries.nestedToFlat(2, wide = false),
    "T4" -> TpchQueries.nestedToNested(2, wide = false))

  /** Every query under `Optimizer.full`; T4 also under `pushProjections`,
    * the level of the skew-aware routes.
    */
  private val levels: Seq[(String, Plan => Plan, Seq[String])] = Seq(
    ("full", Optimizer.full, Seq("T1", "T3", "T4")),
    ("pushProjections", Optimizer.pushProjections, Seq("T4")))

  /** The biomedical pipeline (each step shredded, as `Fig9` runs it) and the
    * clinical queries C1–C3: their nested outputs are the ones that need a
    * label domain, so these blocks pin the Shredder's materialization.
    */
  private val bio: Seq[(String, Expr)] =
    BioQueries.e2e.assignments.map(a => a.name -> a.expr) ++ BioQueries.clinical

  private def shredded(name: String, q: Expr): Seq[(String, Expr)] =
    Shredder.shred(name, q).assignments.map(a => a.name -> a.expr)

  /** `== <route> <level> <assignment>` and the assignment's `Plan.pretty`,
    * for the standard route and for each shredded assignment, then each
    * shredded assignment of [[bio]] under `Optimizer.full`.
    */
  def render: String = {
    def block(route: String, level: String, optimize: Plan => Plan, asg: String, e: Expr) =
      s"== $route $level $asg\n${optimize(Unnester.compile(e)).pretty()}\n"
    val tpch = for {
      route <- Seq("standard", "shred")
      (level, optimize, names) <- levels
      (name, q) <- queries if names.contains(name)
      (asg, e) <- if (route == "standard") Seq(name -> q) else shredded(name, q)
    } yield block(route, level, optimize, asg, e)
    val bioBlocks = for ((name, q) <- bio; (asg, e) <- shredded(name, q))
      yield block("shred", "full", Optimizer.full, asg, e)
    (tpch ++ bioBlocks).mkString
  }
}
