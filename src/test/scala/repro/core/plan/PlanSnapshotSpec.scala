package repro.core.plan

import scala.io.{Codec, Source}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.NRC.Expr
import repro.queries.TpchQueries
import repro.shred.Shredder

/** The plans of the benchmark queries on every compile path, compared with
  * `src/test/resources/plans.txt`: a change that alters any of them shows up
  * here, with the full text of the plans it now produces.
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

  /** `== <route> <level> <assignment>` and the assignment's `Plan.pretty`,
    * for the standard route and for each shredded assignment.
    */
  def render: String = {
    val blocks = for {
      route <- Seq("standard", "shred")
      (level, optimize, names) <- levels
      (name, q) <- queries if names.contains(name)
      (asg, e) <- if (route == "standard") Seq(name -> q)
                  else Shredder.shred(name, q).assignments.map(a => a.name -> a.expr)
    } yield s"== $route $level $asg\n${optimize(Unnester.compile(e)).pretty()}\n"
    blocks.mkString
  }
}
