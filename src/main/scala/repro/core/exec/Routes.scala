package repro.core.exec

import org.apache.spark.sql.DataFrame
import repro.core.NRC.{Expr, Program}
import repro.core.plan.{Optimizer, Plan, Unnester}

/** Façade over the two compilation routes, for tests, jobs and benchmarks.
  *
  * Both routes run through [[run]]. The standard route runs the program
  * itself; the shredded route runs the program of its shredded assignments
  * (`Shredder.shred` of each assignment, in order). Because shredded outputs
  * follow the `__F`/`__D_` naming convention, a later step's navigation of an
  * earlier step's output resolves to the earlier step's materialized
  * dictionaries automatically (the pipeline composition the paper's
  * sequential strategy is designed for).
  */
object Routes {

  /** Standard route (§3): unnesting → plan → DataFrame. */
  def standard(q: Expr, catalog: Map[String, DataFrame],
               optimize: Plan => Plan = Optimizer.full,
               joinImpl: SparkExecutor.JoinImpl = SparkExecutor.defaultJoin): DataFrame =
    new SparkExecutor(catalog, joinImpl).execute(optimize(Unnester.compile(q)))

  /** Run each assignment of `p` in order against the catalog built so far.
    * Each output passes through `each` (which may return it as is,
    * materialize it or record it) before it joins the catalog; returns the
    * catalog extended with every output.
    */
  def run(p: Program, catalog: Map[String, DataFrame],
          optimize: Plan => Plan = Optimizer.full,
          joinImpl: SparkExecutor.JoinImpl = SparkExecutor.defaultJoin,
          each: (String, DataFrame) => DataFrame = (_, df) => df): Map[String, DataFrame] =
    p.assignments.foldLeft(catalog) { (cat, a) =>
      cat + (a.name -> each(a.name, standard(a.expr, cat, optimize, joinImpl)))
    }
}
