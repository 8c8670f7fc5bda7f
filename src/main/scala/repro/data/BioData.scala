package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.shred.{ShredTypes, Unshredder}

/** Synthetic substitute for the biomedical (ICGC) benchmark inputs of
  * App. C.1 — same schemas and nesting, deterministic in sf.
  *
  * Key properties preserved from the real data (DESIGN.md substitutions):
  *   - *sharing*: VEP annotations (candidate genes + consequences) are keyed
  *     by mutation, and mutations recur across samples with a skewed
  *     popularity distribution, so the candidates dictionary is shared among
  *     occurrences (App. D's succinctness effect);
  *   - *skewed fan-out*: the number of candidate genes per mutation is
  *     Zipf-ish (the VEP `distance` flag effect), exercising inner-collection
  *     skew;
  *   - relative table sizes mirror the paper's (Occurrences dominating).
  *
  * At SF=1: 500 samples (~750 aliquots), 10 000 distinct mutations, ~100 000
  * occurrences, ~2 000 genes/proteins.
  */
object BioData {

  final case class BioTables(
      samples: DataFrame,          // sample, aliquot
      occurrences: DataFrame,      // nested, 2 levels (candidates → consequences)
      occurrencesShredded: Map[String, DataFrame],
      copyNumber: DataFrame,       // aliquot, gene, cnum
      network: DataFrame,          // nested, 1 level (edges)
      networkShredded: Map[String, DataFrame],
      geneExpression: DataFrame,   // aliquot, gene, fpkm
      soImpact: DataFrame,         // conseq, value
      biomart: DataFrame)          // gene, protein

  // ------------------------------------------------------------ NRC types

  val consequencesTpe: BagTpe = BagTpe.of("conseq" -> StringTpe)
  val candidatesTpe: BagTpe = BagTpe.of(
    "gene" -> StringTpe, "impact" -> StringTpe, "sift" -> RealTpe, "poly" -> RealTpe,
    "consequences" -> consequencesTpe)
  val occurrencesTpe: BagTpe = BagTpe.of(
    "sample" -> StringTpe, "contig" -> StringTpe, "start" -> IntTpe,
    "mutationId" -> StringTpe, "candidates" -> candidatesTpe)
  val samplesTpe: TupleTpe = TupleTpe("sample" -> StringTpe, "aliquot" -> StringTpe)
  val copyNumberTpe: TupleTpe = TupleTpe("aliquot" -> StringTpe, "gene" -> StringTpe, "cnum" -> IntTpe)
  val networkTpe: BagTpe = BagTpe.of(
    "nodeProtein" -> StringTpe,
    "edges" -> BagTpe.of("edgeProtein" -> StringTpe, "distance" -> IntTpe))
  val geneExpressionTpe: TupleTpe = TupleTpe("aliquot" -> StringTpe, "gene" -> StringTpe, "fpkm" -> RealTpe)
  val soImpactTpe: TupleTpe = TupleTpe("conseq" -> StringTpe, "value" -> RealTpe)
  val biomartTpe: TupleTpe = TupleTpe("gene" -> StringTpe, "protein" -> StringTpe)

  private def n(base: Long, sf: Double): Long = math.max(2L, (base * sf).toLong)

  /** Build all biomedical inputs at a scale factor. */
  def tables(spark: SparkSession, sf: Double): BioTables = {
    import spark.implicits._
    val nSamples = n(500, sf)
    val nMut     = n(10000, sf)
    val nGenes   = n(2000, sf)
    val occPerSample = math.max(10L, (400 * sf).toLong)
    val conseqTerms = 20

    val samples = spark.range(nSamples).select(
      concat(lit("s"), $"id")                              as "sample",
      concat(lit("a"), $"id", lit("_"), ($"id" % 2))       as "aliquot")

    // VEP-like annotations: per-mutation candidate genes with a skewed
    // count, so a few mutations have very many candidate genes.
    val maxCand = 12
    val mutations = spark.range(nMut).select(
      concat(lit("m"), $"id") as "mutationId",
      $"id"                   as "mid",
      (typedLit(1) + (pow(rand(11), lit(3.0)) * maxCand).cast("int")) as "ncand")
    val candidates = mutations
      .select($"mutationId", $"mid", explode(sequence(lit(1), $"ncand")) as "ci")
      .select(
        $"mutationId", $"mid", $"ci",
        concat(lit("g"), pmod($"mid" * 31 + $"ci" * 7, lit(nGenes))) as "gene",
        element_at(array(lit("HIGH"), lit("MODERATE"), lit("LOW"), lit("MODIFIER")),
          (pmod($"mid" + $"ci", lit(4)) + 1).cast("int"))            as "impact",
        round(pmod($"mid" * 13 + $"ci", lit(100)) / 100.0, 2)        as "sift",
        round(pmod($"mid" * 17 + $"ci", lit(100)) / 100.0, 2)        as "poly",
        (pmod($"mid" + $"ci", lit(3)) + 1).cast("int")               as "nconseq")
    val consequences = candidates
      .select($"mutationId", $"gene", $"mid", $"ci", explode(sequence(lit(1), $"nconseq")) as "qi")
      .select($"mutationId", $"gene",
        concat(lit("SO_"), pmod($"mid" * 7 + $"ci" * 3 + $"qi", lit(conseqTerms))) as "conseq")

    // Occurrences: samples draw mutations with skewed popularity (sharing).
    val occFlat = spark.range(nSamples * occPerSample).select(
      concat(lit("s"), ($"id" / occPerSample).cast("long"))            as "sample",
      concat(lit("m"), (pow(rand(12), 2.0) * nMut).cast("long"))       as "mutationId")
      .distinct()
      .withColumn("contig", concat(lit("chr"), pmod(xxhash64($"mutationId"), lit(22))))
      .withColumn("start", pmod(xxhash64($"mutationId", lit(1)), lit(1000000)))

    // Shredded form: candidate/consequence dictionaries keyed by mutation —
    // one entry per distinct mutation, shared by all its occurrences.
    val candLabel = xxhash64(col("mutationId"), col("gene"))
    val occF = occFlat.select($"sample", $"contig", $"start", $"mutationId",
      $"mutationId" as "candidates")
    val candDict = candidates.select($"mutationId" as ShredTypes.LabelCol,
      $"gene", $"impact", $"sift", $"poly", candLabel as "consequences")
    val conseqDict = consequences.select(candLabel as ShredTypes.LabelCol, $"conseq")
    val occShredded = Map(
      ShredTypes.topName("Occurrences") -> occF,
      ShredTypes.dictName("Occurrences", Seq("candidates")) -> candDict,
      ShredTypes.dictName("Occurrences", Seq("candidates", "consequences")) -> conseqDict)

    val copyNumber = samples.crossJoin(spark.range(200).toDF("gi")).select(
      $"aliquot",
      concat(lit("g"), pmod(xxhash64($"aliquot", $"gi"), lit(nGenes))) as "gene",
      (pmod(xxhash64($"aliquot", $"gi", lit(2)), lit(6))).cast("int")  as "cnum")
      .dropDuplicates("aliquot", "gene")

    val proteins = spark.range(nGenes).select(
      concat(lit("g"), $"id") as "gene", concat(lit("p"), $"id") as "protein")
    val edgesPerNode = 8
    val netEdges = spark.range(nGenes)
      .select($"id" as "nid", explode(sequence(lit(1), lit(edgesPerNode))) as "ei")
      .select(
        concat(lit("p"), $"nid")                                   as "nodeProtein",
        concat(lit("p"), pmod($"nid" * 37 + $"ei" * 11, lit(nGenes))) as "edgeProtein",
        (pmod($"nid" + $"ei", lit(900)) + 100).cast("int")         as "distance")
    val netF = netEdges.select($"nodeProtein").distinct()
      .select($"nodeProtein", $"nodeProtein" as "edges")
    val netDict = netEdges.select($"nodeProtein" as ShredTypes.LabelCol, $"edgeProtein", $"distance")
    val netShredded = Map(
      ShredTypes.topName("Network") -> netF,
      ShredTypes.dictName("Network", Seq("edges")) -> netDict)

    val geneExpression = samples.crossJoin(spark.range(300).toDF("gi")).select(
      $"aliquot",
      concat(lit("g"), pmod(xxhash64($"aliquot", $"gi", lit(3)), lit(nGenes))) as "gene",
      round(pmod(xxhash64($"aliquot", $"gi", lit(4)), lit(10000)) / 100.0, 2)  as "fpkm")
      .dropDuplicates("aliquot", "gene")

    val soImpact = spark.range(conseqTerms).select(
      concat(lit("SO_"), $"id")                 as "conseq",
      round(($"id" + 1) / conseqTerms.toDouble, 3) as "value")

    // The flattening routes read Occurrences and Network nested: each is
    // its shredded form, unshredded.
    BioTables(samples,
      occurrences = Unshredder.unshred("Occurrences", occurrencesTpe, occShredded),
      occurrencesShredded = occShredded, copyNumber = copyNumber,
      network = Unshredder.unshred("Network", networkTpe, netShredded),
      networkShredded = netShredded, geneExpression = geneExpression, soImpact = soImpact,
      biomart = proteins.select($"gene", $"protein"))
  }

  /** Flat + nested catalog under the names the bio queries use. */
  def catalog(t: BioTables): Map[String, DataFrame] = Map(
    "Samples" -> t.samples, "Occurrences" -> t.occurrences, "CopyNumber" -> t.copyNumber,
    "Network" -> t.network, "GeneExpression" -> t.geneExpression,
    "SOImpact" -> t.soImpact, "Biomart" -> t.biomart) ++
    t.occurrencesShredded ++ t.networkShredded
}
