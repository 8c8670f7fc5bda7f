package repro

import java.util.UUID
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.scalatest.Assertions._
import repro.bench.{Meter, SparkWork}
import repro.core.{LocalEval, SparkValues}
import repro.core.NRC.Expr
import repro.core.plan.{Plan, Source}

/** Shared assertions for comparing Spark results against the LocalEval
  * reference interpreter, order-insensitively and recursively on nested bags,
  * and for observing the Spark work a block does.
  */
object TestUtil {

  def assertBagEq(actual: DataFrame, expected: LocalEval.Bag, hint: String = ""): Unit = {
    val got = LocalEval.canon(SparkValues.toBag(actual))
    val exp = LocalEval.canon(expected)
    assert(got == exp, s"$hint\n  spark: ${got.take(800)}\n  local: ${exp.take(800)}")
  }

  def assertBagEq(actual: DataFrame, expected: DataFrame): Unit = {
    val got = LocalEval.canon(SparkValues.toBag(actual))
    val exp = LocalEval.canon(SparkValues.toBag(expected))
    assert(got == exp, s"\n  left:  ${got.take(800)}\n  right: ${exp.take(800)}")
  }

  def localEval(q: Expr, inputs: Map[String, LocalEval.Bag]): LocalEval.Bag =
    LocalEval.evalBag(q, LocalEval.Env(Map.empty[String, Any], inputs))

  def toLocal(catalog: Map[String, DataFrame]): Map[String, LocalEval.Bag] =
    catalog.map { case (n, df) => n -> SparkValues.toBag(df) }

  /** Runs `block` under a fresh job tag and returns its value with the
    * Spark work `Meter` bills to that tag. Jobs a block submits from
    * threads it starts count too (they inherit the tag).
    */
  def sparkWork[A](spark: SparkSession)(block: => A): (A, SparkWork) = {
    val (sc, tag) = (spark.sparkContext, s"testutil-${UUID.randomUUID()}")
    Meter.bill(spark, tag) { sc.addJobTag(tag); try block finally sc.removeJobTag(tag) }
  }

  /** The names of the `Source`s below `p`. */
  def inputs(p: Plan): Set[String] = p match {
    case Source(n) => Set(n)
    case _         => p.children.flatMap(inputs).toSet
  }

  /** Runs `df` and counts the shuffle exchanges of its final adaptive plan. */
  def shuffleExchanges(df: DataFrame): Int = {
    df.collect()
    AdaptivePlan.collect(df.queryExecution.executedPlan) { case e: ShuffleExchangeExec => e }.size
  }

  private object AdaptivePlan extends AdaptiveSparkPlanHelper
}
