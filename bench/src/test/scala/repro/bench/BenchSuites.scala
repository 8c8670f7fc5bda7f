package repro.bench

import repro.SparkSpec
import Harness._

/** One ScalaTest suite per evaluation table (DESIGN.md T1–T11); each prints
  * the paper-style table rows and asserts basic sanity. Scale via BENCH_SF
  * (default 0.1) and BENCH_TIMEOUT_S (default 300).
  */

/** Runs table `id` of [[Exhibits]] and asserts `sanityCheck` on its rows. */
abstract class TableBench(id: String, sanityCheck: Seq[Result] => Boolean = _.nonEmpty)
    extends SparkSpec {
  private val exhibit = Exhibits(id)
  test(s"$id: ${exhibit.title}") {
    assert(sanityCheck(exhibit.report(spark, sf)))
  }
}

object TableBench {
  val halfOk: Seq[Result] => Boolean = rows => rows.nonEmpty && rows.count(_.ok) >= rows.size / 2
  val shredOk: Seq[Result] => Boolean =
    rows => rows.nonEmpty && rows.filter(_.strategy == "Shred").forall(_.ok)
}

import TableBench._

class Fig7FlatToNestedBench   extends TableBench("T1", halfOk)
class Fig7NestedToNestedBench extends TableBench("T2", halfOk)
class Fig7NestedToFlatBench   extends TableBench("T3", halfOk)
class Fig8SkewBench           extends TableBench("T4", halfOk)
class Fig9BioE2EBench         extends TableBench("T5", shredOk)
class Fig12ClinicalBench      extends TableBench("T6", shredOk)
class E4OptLevelsBench        extends TableBench("T8")
class E6NoAggPushBench        extends TableBench("T9")
class E7SkewOverheadBench     extends TableBench("T10")
class E1RddVsDatasetBench     extends TableBench("T11")

class AppDSharingBench extends SparkSpec {
  test("T7: App. D succinct representation / sharing counts") {
    val c = AppD.run(spark, sf)
    println(s"\n==== T7 AppD sharing ====")
    println(s"| occurrence tuples            | ${c.occurrences}")
    println(s"| flattened candidate tuples   | ${c.flattenedCandidates}")
    println(s"| dictionary candidate tuples  | ${c.dictCandidates}")
    println(f"| reduction factor             | ${c.flattenedCandidates.toDouble / math.max(1, c.dictCandidates)}%.2fx")
    println(s"==== end T7 ====")
    assert(c.dictCandidates <= c.flattenedCandidates)
  }
}
