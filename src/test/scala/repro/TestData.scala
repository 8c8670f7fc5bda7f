package repro

import java.sql.Date
import org.apache.spark.sql.SparkSession
import repro.data.NestedTpch

/** Tiny, hand-controlled TPC-H-lite instance for correctness tests.
  *
  * Deliberately includes the edge cases the outer operators must preserve:
  * a customer with no orders, an order with no lineitems, a lineitem whose
  * part key has no Part row, and nations/regions with no customers at all.
  * Small enough for the naive [[repro.core.LocalEval]] reference interpreter.
  */
object TestData {

  def tables(spark: SparkSession): NestedTpch.Tables = {
    import spark.implicits._
    val lineitem = Seq(
      // (l_orderkey, l_partkey, l_quantity)
      (1L, 1L, 2.0), (1L, 2L, 1.0), (1L, 1L, 3.0),
      (2L, 2L, 5.0), (2L, 3L, 4.0),
      (3L, 1L, 1.0),
      (4L, 99L, 7.0),            // part 99 does not exist
      (5L, 3L, 2.5), (5L, 4L, 1.5),
      (6L, 4L, 6.0),
      (8L, 1L, 2.0), (8L, 4L, 9.0),
    ).toDF("l_orderkey", "l_partkey", "l_quantity")

    val orders = Seq(
      // (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate)
      (1L, 1L, "O", 100.0, Date.valueOf("1995-01-03")),
      (2L, 1L, "F", 220.0, Date.valueOf("1995-02-14")),
      (3L, 2L, "O", 150.0, Date.valueOf("1996-07-01")),
      (4L, 2L, "P", 300.0, Date.valueOf("1996-08-21")),
      (5L, 3L, "O",  80.0, Date.valueOf("1997-03-09")),
      (6L, 4L, "F", 210.0, Date.valueOf("1997-11-30")),
      (7L, 4L, "O",  60.0, Date.valueOf("1998-04-17")),  // order with no lineitems
      (8L, 6L, "O", 130.0, Date.valueOf("1998-05-02")),
    ).toDF("o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate")

    val customer = Seq(
      // (c_custkey, c_nationkey, c_acctbal, c_mktsegment, c_name)
      (1L, 0, 1000.0, "BUILDING",   "cust_1"),
      (2L, 1,  -50.0, "AUTOMOBILE", "cust_2"),
      (3L, 1,  400.0, "MACHINERY",  "cust_3"),
      (4L, 6,  720.0, "BUILDING",   "cust_4"),
      (5L, 7,   10.0, "FURNITURE",  "cust_5"),            // customer with no orders
      (6L, 24, 333.0, "HOUSEHOLD",  "cust_6"),
    ).toDF("c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment", "c_name")

    val part = Seq(
      // (p_partkey, p_name, p_retailprice)
      (1L, "part_1", 10.0),
      (2L, "part_2", 20.0),
      (3L, "part_3", 30.0),
      (4L, "part_1", 40.0),       // shares a name with part 1 (sumBy grouping)
    ).toDF("p_partkey", "p_name", "p_retailprice")

    NestedTpch.Tables(lineitem, orders, customer,
      SynthData.nation(spark), SynthData.region(spark), part)
  }
}
