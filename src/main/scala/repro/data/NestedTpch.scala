package repro.data

import scala.collection.immutable.ListMap
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._
import repro.shred.{ShredTypes, Unshredder}

/** The nested TPC-H micro-benchmark of §6 / App. B.
  *
  * Queries range over 0–4 levels of nesting, grouping Lineitem under Orders,
  * Customer, Nation, then Region, with a *narrow* variant keeping one
  * attribute per level and a *wide* variant keeping all attributes (the
  * lowest level always keeps `l_partkey`, `l_quantity`).
  *
  * This module provides, per (level, wide):
  *   - NRC element types of the nested result (the nested-to-* input type);
  *   - the shredded input as B.1.3-style natural-key projections (labels =
  *     parent join keys), exhibiting input/output label sharing;
  *   - the materialized nested input as one DataFrame of array<struct>
  *     columns (input to Standard and the SparkSQL baseline), built by
  *     unshredding the shredded input.
  *
  * `skewFactor` s (0–4) puts heavy keys in Lineitem (the paper's skewed
  * generator substitute; see DESIGN.md): 15 %·s of rows get an `l_orderkey`
  * drawn uniformly from 1–5 and, independently, 15 %·s an `l_partkey` from
  * 1–5, so each heavy key holds 3 %·s of the bag.
  */
object NestedTpch {

  /** Bag-attribute name at each nesting step, bottom-up. */
  val BagNames = Seq("oparts", "corders", "ncusts", "rnations")

  final case class Tables(lineitem: DataFrame, orders: DataFrame, customer: DataFrame,
                          nation: DataFrame, region: DataFrame, part: DataFrame) {
    def map(f: DataFrame => DataFrame): Tables =
      Tables(f(lineitem), f(orders), f(customer), f(nation), f(region), f(part))
  }

  /** Base flat tables with the derived name columns the benchmark needs. */
  def tables(spark: SparkSession, sf: Double, skewFactor: Int = 0): Tables = {
    val li = SynthData.lineitemSkewed(spark, sf, skewFactor)
      .select(col("l_orderkey"), col("l_partkey"), col("l_quantity"),
        col("l_extendedprice"), col("l_discount"), col("l_shipdate"))
    val ord = SynthData.orders(spark, sf)
    val cust = SynthData.customer(spark, sf)
      .withColumn("c_name", concat(lit("cust_"), col("c_custkey")))
    val part = SynthData.part(spark, sf)
      .withColumn("p_name", concat(lit("part_"), col("p_partkey") % 1000))
    Tables(li, ord, cust, SynthData.nation(spark), SynthData.region(spark), part)
  }

  /** Flat catalog under the names the benchmark queries use. */
  def catalog(t: Tables): Map[String, DataFrame] = Map(
    "Lineitem" -> t.lineitem, "Orders" -> t.orders, "Customer" -> t.customer,
    "Nation" -> t.nation, "Region" -> t.region, "Part" -> t.part)

  // ------------------------------------------------------------ NRC types

  /** Flat-input element types (attributes the benchmark queries reference). */
  val lineitemTpe: TupleTpe = TupleTpe(
    "l_orderkey" -> IntTpe, "l_partkey" -> IntTpe, "l_quantity" -> RealTpe)
  val partTpe: TupleTpe = TupleTpe(
    "p_partkey" -> IntTpe, "p_name" -> StringTpe, "p_retailprice" -> RealTpe)

  def ordersTpe(wide: Boolean): TupleTpe =
    if (wide) TupleTpe("o_orderkey" -> IntTpe, "o_custkey" -> IntTpe,
      "o_orderstatus" -> StringTpe, "o_totalprice" -> RealTpe, "o_orderdate" -> DateTpe)
    else TupleTpe("o_orderkey" -> IntTpe, "o_custkey" -> IntTpe, "o_orderdate" -> DateTpe)

  def customerTpe(wide: Boolean): TupleTpe =
    if (wide) TupleTpe("c_custkey" -> IntTpe, "c_nationkey" -> IntTpe,
      "c_acctbal" -> RealTpe, "c_mktsegment" -> StringTpe, "c_name" -> StringTpe)
    else TupleTpe("c_custkey" -> IntTpe, "c_nationkey" -> IntTpe, "c_name" -> StringTpe)

  val nationTpe: TupleTpe = TupleTpe(
    "n_nationkey" -> IntTpe, "n_name" -> StringTpe, "n_regionkey" -> IntTpe)
  val regionTpe: TupleTpe = TupleTpe("r_regionkey" -> IntTpe, "r_name" -> StringTpe)

  /** Per-level dimension description used to assemble queries and data. */
  final case class Level(table: String, selfKey: String, upKey: Option[String],
                         narrowAttrs: Seq[String], tpe: Boolean => TupleTpe)

  def levels(wide: Boolean): Seq[Level] = Seq(
    Level("Orders", "o_orderkey", Some("o_custkey"), Seq("o_orderkey", "o_custkey", "o_orderdate"), ordersTpe),
    Level("Customer", "c_custkey", Some("c_nationkey"), Seq("c_custkey", "c_nationkey", "c_name"), customerTpe),
    Level("Nation", "n_nationkey", Some("n_regionkey"), nationTpe.fields.keys.toSeq, _ => nationTpe),
    Level("Region", "r_regionkey", None, regionTpe.fields.keys.toSeq, _ => regionTpe),
  )

  /** Output attributes kept at a dimension level (keys are construction-time
    * only; narrow keeps the single display attribute, wide keeps all).
    */
  def outAttrs(l: Level, wide: Boolean): Seq[(String, Tpe)] = {
    val t = l.tpe(wide)
    val names =
      if (wide) t.fields.keys.toSeq
      else t.fields.keys.toSeq.filterNot(a => a == l.selfKey || l.upKey.contains(a))
    names.map(a => a -> t(a))
  }

  /** The bottom element type: lowest level keeps `l_partkey, l_quantity`. */
  val bottomElem: TupleTpe = TupleTpe("l_partkey" -> IntTpe, "l_quantity" -> RealTpe)

  /** Element type of the flat-to-nested result at `level` (0–4). */
  def nestedElem(level: Int, wide: Boolean): TupleTpe = {
    require(level >= 0 && level <= 4)
    (0 until level).foldLeft(bottomElem) { (inner, i) =>
      val l = levels(wide)(i)
      TupleTpe(ListMap(outAttrs(l, wide) :+ (BagNames(i) -> (BagTpe(inner): Tpe)): _*))
    }
  }

  def inputName(level: Int, wide: Boolean): String =
    s"COP${level}${if (wide) "w" else "n"}"

  // --------------------------------------------------------- nested input

  /** Materialized flat-to-nested result at `level` — the nested input used
    * by the Standard route and the SparkSQL baseline: the Lineitem
    * projection at level 0, otherwise the unshredded [[shreddedInput]].
    */
  def nestedInput(t: Tables, level: Int, wide: Boolean): DataFrame =
    if (level == 0) t.lineitem.select("l_partkey", "l_quantity")
    else Unshredder.unshred(inputName(level, wide), BagTpe(nestedElem(level, wide)),
      shreddedInput(t, level, wide))

  // -------------------------------------------------------- shredded input

  private def dimDf(t: Tables, l: Level, wide: Boolean): DataFrame = {
    val df = l.table match {
      case "Orders" => t.orders; case "Customer" => t.customer
      case "Nation" => t.nation; case "Region" => t.region
    }
    df.select(l.tpe(wide).fields.keys.toSeq.map(col): _*)
  }

  /** B.1.3-style shredded input: labels are the natural parent keys, so the
    * top bag and every dictionary are cheap projections of the flat tables.
    */
  def shreddedInput(t: Tables, level: Int, wide: Boolean): Map[String, DataFrame] = {
    require(level >= 1 && level <= 4)
    val name = inputName(level, wide)
    val elem = nestedElem(level, wide)
    // Bag paths from the top: e.g. level 2 → corders, corders_oparts.
    val paths = ShredTypes.bagPaths(BagTpe(elem))
    val out = scala.collection.mutable.Map.empty[String, DataFrame]

    // Top level is dimension `level - 1`.
    val topLevel = levels(wide)(level - 1)
    val topBag   = BagNames(level - 1)
    val topDf = dimDf(t, topLevel, wide)
      .select(outAttrs(topLevel, wide).map(_._1).map(col) :+ col(topLevel.selfKey).as(topBag): _*)
    out += ShredTypes.topName(name) -> topDf

    // Dictionary for depth d (1-based below top) comes from dimension
    // `level - 1 - d`; the deepest dictionary is Lineitem.
    for ((path, d) <- paths.zipWithIndex) {
      val df =
        if (d == level - 1)
          t.lineitem.select(col("l_orderkey").as(ShredTypes.LabelCol),
            col("l_partkey"), col("l_quantity"))
        else {
          val l   = levels(wide)(level - 2 - d)
          val bag = BagNames(level - 2 - d)
          dimDf(t, l, wide).select(
            col(l.upKey.get).as(ShredTypes.LabelCol) +:
              (outAttrs(l, wide).map(_._1).map(col) :+ col(l.selfKey).as(bag)): _*)
        }
      out += ShredTypes.dictName(name, path) -> df
    }
    out.toMap
  }
}
