package nestbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.baseline.SparkSQLBaseline
import repro.core.NRC.{Assignment, Program}
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** Generated inputs, split into flat base tables and the nested/shredded
  * inputs derived from them (cached separately so set-up reports both).
  */
final case class Generated(flat: Map[String, DataFrame], derive: Map[String, DataFrame] => Map[String, DataFrame])

/** A named set of inputs and the programs the routes run over them.
  *
  * `program` is what `standard`, `shred` and `unshred` run; the skew-aware
  * routes run `skewProgram`, the Fig. 8 query, which is the only query the
  * paper runs skew-aware (§6). The assignments are independent queries, so
  * each standard output is forced with a `noop` write.
  */
sealed abstract class Workload(val name: String, val program: Program, val skewProgram: Program) {
  /** Scale factor of the timed run and of the reduced LocalEval check. */
  def sf: Double
  def checkSf: Double
  def generate(spark: SparkSession, sf: Double, seed: Long): Generated

  /** Outputs of the hand-written SparkSQL baseline for every assignment. */
  def sql(spark: SparkSession, cat: Map[String, DataFrame]): Map[String, DataFrame]

  def programFor(route: String): Program = if (Routes.isSkew(route)) skewProgram else program
}

object Workloads {
  lazy val all: Seq[Workload] = Seq(TpchNest, TpchSkew)
  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload '$name' (${all.map(_.name).mkString(", ")})"))

  /** `NestedTpch.tables` with the benchmark's seed. That function fixes
    * SynthData's default seeds, so its derived columns are repeated here.
    */
  def tpchTables(spark: SparkSession, sf: Double, skew: Int, seed: Long): NestedTpch.Tables = {
    val s = seed * 1000
    val li = SynthData.lineitemSkewed(spark, sf, skew, seed = s)
      .select(col("l_orderkey"), col("l_partkey"), col("l_quantity"),
        col("l_extendedprice"), col("l_discount"), col("l_shipdate"))
    val ord = SynthData.orders(spark, sf, seed = s + 300)
    val cust = SynthData.customer(spark, sf, seed = s + 400)
      .withColumn("c_name", concat(lit("cust_"), col("c_custkey")))
    val part = SynthData.part(spark, sf, seed = s + 500)
      .withColumn("p_name", concat(lit("part_"), col("p_partkey") % 1000))
    NestedTpch.Tables(li, ord, cust, SynthData.nation(spark), SynthData.region(spark), part)
  }

  /** The Fig. 8 query: nested-to-nested level 2 narrow. */
  val t4: Program = Program(Seq(Assignment("T4", TpchQueries.nestedToNested(2, wide = false))))

  def t4Sql(spark: SparkSession, cat: Map[String, DataFrame]): DataFrame =
    SparkSQLBaseline.nestedToNested(spark, cat(NestedTpch.inputName(2, wide = false)), cat("Part"), 2, wide = false)

  def flatCatalog(t: NestedTpch.Tables): Map[String, DataFrame] = Map(
    "Lineitem" -> t.lineitem, "Orders" -> t.orders, "Customer" -> t.customer,
    "Nation" -> t.nation, "Region" -> t.region, "Part" -> t.part)

  def tables(cat: Map[String, DataFrame]): NestedTpch.Tables = NestedTpch.Tables(
    cat("Lineitem"), cat("Orders"), cat("Customer"), cat("Nation"), cat("Region"), cat("Part"))

  /** The level-2 nested input in both forms, as Fig. 7/8 build it: the
    * materialized `wideInput` flat-to-nested result under the query's input
    * name, and its shredded components renamed the same way.
    */
  def level2Input(cat: Map[String, DataFrame], wideInput: Boolean): Map[String, DataFrame] = {
    val t = tables(cat)
    val name = NestedTpch.inputName(2, wide = false)
    val shredded = NestedTpch.shreddedInput(t, 2, wideInput).map { case (k, v) =>
      k.replace(NestedTpch.inputName(2, wideInput), name) -> v
    }
    shredded + (name -> NestedTpch.nestedInput(t, 2, wideInput))
  }
}

/** Uniform nested TPC-H. `standard`, `shred` and `unshred` run
  * flat-to-nested level 4 wide (T1), where Standard nests with outer joins,
  * Shred's five dictionaries are shuffle-free projections and Unshred does
  * four label joins, and nested-to-flat level 2 narrow (T3), the one family
  * where Shred's label-chain joins shuffle more than Standard. The skew
  * routes run T4 on uniform keys: sampling finds no heavy key, so the
  * light/heavy split is bypassed.
  */
object TpchNest extends Workload("tpch_nest", Program(Seq(
    Assignment("T1", TpchQueries.flatToNested(4, wide = true)),
    Assignment("T3", TpchQueries.nestedToFlat(2, wide = false)))), Workloads.t4) {
  val sf = 0.003
  val checkSf = 0.0005

  def generate(spark: SparkSession, sf: Double, seed: Long): Generated =
    Generated(Workloads.flatCatalog(Workloads.tpchTables(spark, sf, skew = 0, seed)),
      Workloads.level2Input(_, wideInput = true))

  def sql(spark: SparkSession, cat: Map[String, DataFrame]): Map[String, DataFrame] = Map(
    "T1" -> SparkSQLBaseline.flatToNested(spark, Workloads.tables(cat), 4, wide = true),
    "T3" -> SparkSQLBaseline.nestedToFlat(spark, cat(NestedTpch.inputName(2, wide = false)),
      cat("Part"), 2, wide = false),
    "T4" -> Workloads.t4Sql(spark, cat))
}

/** T4 (Fig. 8) at skew factor 3 on every route: the workload where
  * heavy-key sampling finds keys and the light/heavy split does real work,
  * and a shallow use of Unshred beside tpch_nest's deep one.
  */
object TpchSkew extends Workload("tpch_skew", Workloads.t4, Workloads.t4) {
  val sf = 0.003
  val checkSf = 0.0005

  def generate(spark: SparkSession, sf: Double, seed: Long): Generated =
    Generated(Workloads.flatCatalog(Workloads.tpchTables(spark, sf, skew = 3, seed)),
      Workloads.level2Input(_, wideInput = false))

  def sql(spark: SparkSession, cat: Map[String, DataFrame]): Map[String, DataFrame] =
    Map("T4" -> Workloads.t4Sql(spark, cat))
}
