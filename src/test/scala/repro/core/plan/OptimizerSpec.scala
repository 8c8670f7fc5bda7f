package repro.core.plan

import java.sql.Date
import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestData, TestUtil}
import repro.core.{BagTpe, IntTpe, LocalEval, RealTpe, StringTpe, TupleTpe}
import repro.core.NRC._
import repro.core.exec.{RddExecutor, SparkExecutor}
import repro.data.NestedTpch
import repro.queries.{BioQueries, TpchQueries}
import repro.shred.Shredder

/** Optimizer correctness: every optimization level produces the same result,
  * and the rewrites change plan shape as intended (E.4 setup).
  */
class OptimizerSpec extends SparkSpec {

  private lazy val t       = TestData.tables(spark)
  private lazy val catalog = NestedTpch.catalog(t)

  /** The test tables plus an order with a NULL key and a second order with
    * key 1: an order key is then a function of the order row's ID, not a key
    * of the orders.
    */
  private lazy val sharedKeyCatalog = {
    import spark.implicits._
    val extra = Seq[(Option[Long], Long, String, Double, Date)](
      (None, 3L, "O", 90.0, Date.valueOf("1997-06-01")),
      (Some(1L), 2L, "F", 45.0, Date.valueOf("1996-01-15"))).toDF(t.orders.columns.toIndexedSeq: _*)
    NestedTpch.catalog(t.copy(orders = t.orders.unionByName(extra)))
  }

  private def countNestSum(p: Plan): Int =
    (p match { case _: NestSum => 1; case _ => 0 }) + p.children.map(countNestSum).sum

  /** The Γ⁺s that sit below a join of `p`, each with whether a join lies below it. */
  private def sumsBelowJoins(p: Plan): Seq[(NestSum, Boolean)] = p match {
    case Join(l, r, _, _, _) =>
      def sums(q: Plan): Seq[(NestSum, Boolean)] =
        (q match { case n: NestSum => Seq(n -> hasJoin(n.child)); case _ => Nil }) ++ q.children.flatMap(sums)
      sums(l) ++ sums(r)
    case _ => p.children.flatMap(sumsBelowJoins)
  }

  private def hasJoin(p: Plan): Boolean = p.isInstanceOf[Join] || p.children.exists(hasJoin)

  /** Each Γ⁺ below a join of `full(p)`: its grouping, and whether a join lies below it. */
  private def pushed(p: Plan): Seq[(Seq[String], Boolean)] =
    sumsBelowJoins(Optimizer.full(p)).map { case (n, j) => (n.groupCols, j) }

  /** `q` at every optimizer level equals LocalEval on both executors. */
  private def assertLevelsMatchLocalEval(q: Expr, cat: Map[String, DataFrame]): Unit = {
    val plan = Unnester.compile(q)
    val expected = TestUtil.localEval(q, TestUtil.toLocal(cat))
    assert(expected.nonEmpty)
    val rddCat = cat.map { case (n, df) => n -> RddExecutor.fromDataFrame(df) }
    for (lvl <- 0 to 2) {
      val opt = Optimizer.level(lvl)(plan)
      TestUtil.assertBagEq(new SparkExecutor(cat).execute(opt), expected, s"Spark, level $lvl")
      val rdd = LocalEval.canon(RddExecutor.toLocal(new RddExecutor(rddCat).execute(opt)))
      assert(rdd == LocalEval.canon(expected), s"RDD, level $lvl")
    }
  }

  /** `for x in <name> if <parent>.<key> == x.<key> then body` over inputs typed by `tpes`. */
  private final class Gens(tpes: Map[String, TupleTpe]) {
    private val v = tpes.map { case (n, t) => n -> VarDef(n.toLowerCase, t) }
    def field(n: String, f: String): Expr = Proj(VarRef(v(n)), f)
    /** `for x in src then body`, `src` defaulting to the input `name`. */
    def each(name: String, body: Expr, src: Option[Expr] = None): Expr =
      ForUnion(v(name), src.getOrElse(InputBag(name, BagTpe(tpes(name)))), body)
    def gen(name: String, parent: String, key: String, body: Expr): Expr =
      each(name, IfThenBag(Cmp("==", field(parent, key), field(name, key)), body))
    /** `sumBy_key(for a in A ...)`. */
    def sumBy(key: String, body: Expr): Expr = SumByE(each("A", body), Seq(key), Seq("s"))
  }

  test("aggregation pushing introduces a partial sum below the Part join") {
    // The flat join-aggregate: Lineitem's partial sum is keyed by the join key.
    val plan = Unnester.compile(TpchQueries.nestedToFlat(0, wide = false))
    assert(sumsBelowJoins(plan).isEmpty)
    val opt = Optimizer.full(plan)
    assert(sumsBelowJoins(opt).nonEmpty)
    assert(countNestSum(opt) > countNestSum(plan))
  }

  test("full optimization gives the same plan on every call") {
    val sq = Shredder.shred("OUT", TpchQueries.nestedToFlat(2, wide = false))
    val plan = Unnester.compile(sq.assignments.head.expr)
    val opt = Optimizer.full(plan)
    assert(opt.pretty().contains("__pa_1"))
    assert(Optimizer.full(plan) == opt)
  }

  test("projection pushing trims project widths") {
    def maxProj(p: Plan): Int = (p match {
      case Project(_, cols) => cols.size
      case _ => 0
    }).max(p.children.map(maxProj).maxOption.getOrElse(0))
    val plan = Unnester.compile(TpchQueries.nestedToFlat(2, wide = true))
    assert(maxProj(Optimizer.pushProjections(plan)) <= maxProj(plan))
  }

  for (level <- Seq(0, 1, 2); family <- Seq("n2f", "n2n")) {
    test(s"optimization level $level preserves results for $family level-2 narrow") {
      val q = family match {
        case "n2f" => TpchQueries.nestedToFlat(2, wide = false)
        case "n2n" => TpchQueries.nestedToNested(2, wide = false)
      }
      val nested = NestedTpch.nestedInput(t, 2, wide = false)
      val cat = catalog + (NestedTpch.inputName(2, wide = false) -> nested)
      val base = new SparkExecutor(cat).execute(Unnester.compile(q))
      val opt  = new SparkExecutor(cat).execute(Optimizer.level(level)(Unnester.compile(q)))
      TestUtil.assertBagEq(opt, base)
    }
  }

  test("aggregation pushing preserves results on the flat join-aggregate") {
    val q = TpchQueries.nestedToFlat(0, wide = false)
    val base = new SparkExecutor(catalog).execute(Unnester.compile(q))
    val opt  = new SparkExecutor(catalog).execute(Optimizer.full(Unnester.compile(q)))
    TestUtil.assertBagEq(opt, base)
  }

  test("aggregation pushing down a two-join chain preserves results") {
    val q = TpchQueries.nestedToFlat(4, wide = false)
    val nested = NestedTpch.nestedInput(t, 4, wide = false)
    val cat = catalog + (NestedTpch.inputName(4, wide = false) -> nested)
    val plan = Unnester.compile(q)
    val opt  = Optimizer.full(plan)
    TestUtil.assertBagEq(new SparkExecutor(cat).execute(opt),
      new SparkExecutor(cat).execute(plan))
  }

  test("optimizer levels preserve nested-to-nested wide results") {
    val q = TpchQueries.nestedToNested(1, wide = true)
    val nested = NestedTpch.nestedInput(t, 1, wide = true)
    val cat = catalog + (NestedTpch.inputName(1, wide = true) -> nested)
    val base = new SparkExecutor(cat).execute(Unnester.compile(q))
    for (lvl <- 0 to 2) {
      val opt = new SparkExecutor(cat).execute(Optimizer.level(lvl)(Unnester.compile(q)))
      TestUtil.assertBagEq(opt, base)
    }
  }

  // ------------------------------------------- join→nest partitioning reuse

  for (level <- 1 to 4; wide <- Seq(false, true)) {
    val tag = s"flat-to-nested level $level ${if (wide) "wide" else "narrow"}"
    test(s"$tag: every level matches LocalEval on NULL and shared order keys") {
      val q = TpchQueries.flatToNested(level, wide)
      val expected = TestUtil.localEval(q, TestUtil.toLocal(sharedKeyCatalog))
      for (lvl <- 0 to 2) {
        val df = new SparkExecutor(sharedKeyCatalog).execute(Optimizer.level(lvl)(Unnester.compile(q)))
        TestUtil.assertBagEq(df, expected, s"$tag, optimizer level $lvl")
      }
    }
  }

  test("a nest over a join after an outer unnest keeps its key") {
    // T4's Γ+ sits on the Part join, whose left side is outer-μ over the
    // indexed order: the ID there does not fix the lineitem's part key.
    val plan = Unnester.compile(TpchQueries.nestedToNested(2, wide = false))
    def partJoinAfterUnnest(p: Plan): Boolean = p match {
      case Join(_: Unnest, _, Seq("l2__l_partkey"), _, _) => true
      case _ => p.children.exists(partJoinAfterUnnest)
    }
    assert(partJoinAfterUnnest(plan))
    // The Γ⁺ keeps its key; the one difference is the stack's partitioning,
    // above the Γ⁺, so its partial sum still runs before its exchange.
    val (full, pushed) = (Optimizer.full(plan), Optimizer.pushProjections(plan))
    assert(nests(full) == nests(pushed), full.pretty())
    assert(partitions(full).map(p => p.keys -> p.child.isInstanceOf[NestSum]) ==
      Seq(Seq("__id_2", "__h_1") -> true), full.pretty())
    assert(withoutPartitions(full) == pushed)
  }

  test("the full level runs flat-to-nested level 4 wide with three shuffles fewer") {
    // One from the cogroup, two from the partitioned Γ⊎ stack above it.
    val plan = Unnester.compile(TpchQueries.flatToNested(4, wide = true))
    def exchanges(optimize: Plan => Plan) =
      TestUtil.shuffleExchanges(new SparkExecutor(catalog).execute(optimize(plan)))
    assert(exchanges(Optimizer.full) == exchanges(Optimizer.pushProjections) - 3)
  }

  // ------------------------------------------ nest→nest partitioning reuse

  /** Each `Partition` of `p`, top-down. */
  private def partitions(p: Plan): Seq[Partition] =
    (p match { case n: Partition => Seq(n); case _ => Nil }) ++ p.children.flatMap(partitions)

  private def withoutPartitions(p: Plan): Plan = p match {
    case Partition(c, _) => withoutPartitions(c)
    case _               => p.mapChildren(withoutPartitions)
  }

  /** The keys of each Γ⊎/Γ⁺ of `p`, top-down. */
  private def nests(p: Plan): Seq[Seq[String]] =
    (p match {
      case n: NestBag => Seq(n.groupCols); case n: NestSum => Seq(n.groupCols); case _ => Nil
    }) ++ p.children.flatMap(nests)

  /** `Γ⊎[top](π(Γ⊎[low](A)))`, the Project passing `passed`. */
  private def twoNests(top: Seq[String], low: Seq[String], passed: Seq[String]): Plan =
    NestBag(Project(NestBag(input("A", "a_g", "a_k", "a_x"), low, Seq("x" -> "a_x"), "xs", None),
      passed.map(c => c -> (ColRef(c): ValExpr))), top, Seq("k" -> "a_k", "xs" -> "xs"), "ks", None)

  /** `Γ⊎[a_g](Γ⁺[a_g, a_k](A))`. */
  private val nestOverSum: Plan =
    NestBag(NestSum(input("A", "a_g", "a_k", "a_x"), Seq("a_g", "a_k"), Seq("s" -> ColRef("a_x"))),
      Seq("a_g"), Seq("k" -> "a_k", "s" -> "s"), "ks", None)

  test("a stack of two nests is partitioned by the top key under the lower nest") {
    val full = Optimizer.full(twoNests(Seq("a_g"), Seq("a_g", "a_k"), Seq("a_g", "a_k", "xs")))
    assert(partitions(full).map(_.keys) == Seq(Seq("a_g")))
    assert(partitions(full).forall(_.child.isInstanceOf[Project]), full.pretty())
  }

  for ((what, plan) <- Seq(
    "the lower key does not contain the top key" -> twoNests(Seq("a_g"), Seq("a_k"), Seq("a_k", "xs")),
    "a Project between them computes the top key" -> NestBag(
      Project(NestBag(input("A", "a_g", "a_k", "a_x"), Seq("a_g", "a_k"), Seq("x" -> "a_x"), "xs", None),
        Seq("a_g" -> ArithV("+", ColRef("a_g"), LitV(1.0, RealTpe)), "a_k" -> ColRef("a_k"), "xs" -> ColRef("xs"))),
      Seq("a_g"), Seq("k" -> "a_k", "xs" -> "xs"), "ks", None),
    "the top key is empty" -> twoNests(Nil, Seq("a_g", "a_k"), Seq("a_g", "a_k", "xs")),
    "only two nests stack and the lower is a Γ⁺" -> nestOverSum,
    "a Γ⊎ over a Γ⁺ builds biomedical Step 1's output" -> Unnester.compile(BioQueries.step1),
    "a Γ⊎ over a Γ⁺ builds biomedical Step 2's output" -> Unnester.compile(BioQueries.step2),
    "a Γ⊎ over a Γ⁺ builds biomedical Step 4's output" -> Unnester.compile(BioQueries.step4),
    "only two nests stack and the lower runs in its join's stage" ->
      Unnester.compile(TpchQueries.flatToNested(2, wide = false))))
    test(s"no partition is placed when $what") {
      assert(partitions(Optimizer.full(plan)).isEmpty, Optimizer.full(plan).pretty())
    }

  test("a stack whose lowest nest runs in its join's stage is partitioned above that nest") {
    val full = Optimizer.full(Unnester.compile(TpchQueries.flatToNested(3, wide = false)))
    // Above the lowest Γ⊎ and below the two above it.
    assert(partitions(full).map(p => p.child.isInstanceOf[NestBag] -> nests(p.child).size) == Seq(true -> 1),
      full.pretty())
    assert(nests(full).size == 3)
  }

  test("a stack whose lowest nest is a Γ⁺ is partitioned above that Γ⁺") {
    // The Γ⁺'s map-side partial sum then runs before its own exchange; a
    // Partition below it would shuffle the whole input before summing it.
    val stacked = NestBag(Project(nestOverSum, Seq("a_g", "a_k", "ks").map(c => c -> (ColRef(c): ValExpr))),
      Seq("a_g"), Seq("ks" -> "ks"), "kss", None)
    val full = Optimizer.full(stacked)
    assert(partitions(full).map(p => p.keys -> p.child.isInstanceOf[NestSum]) == Seq(Seq("a_g") -> true),
      full.pretty())
  }

  test("no Γ⁺ of a standard benchmark or biomedical plan reads a Partition") {
    val tpch = for (lvl <- 0 to 4; wide <- Seq(false, true); (fam, q) <- Seq(
      "flat-to-nested" -> TpchQueries.flatToNested(lvl, wide), "nested-to-nested" -> TpchQueries.nestedToNested(lvl, wide),
      "nested-to-flat" -> TpchQueries.nestedToFlat(lvl, wide))) yield s"$fam L$lvl wide=$wide" -> q
    val bio = BioQueries.e2e.assignments.map(a => a.name -> a.expr) ++ BioQueries.clinical
    def underProjects(p: Plan): Plan = p match { case Project(c, _) => underProjects(c); case _ => p }
    def partitionUnderSum(p: Plan): Boolean = (p match {
      case NestSum(c, _, _) => underProjects(c).isInstanceOf[Partition]
      case _                => false
    }) || p.children.exists(partitionUnderSum)
    for ((name, q) <- tpch ++ bio) {
      val plan = Optimizer.full(Unnester.compile(q))
      assert(!partitionUnderSum(plan), s"$name\n${plan.pretty()}")
    }
  }

  test("under full, standard nested-to-nested level 2 narrow runs one exchange fewer") {
    val q = TpchQueries.nestedToNested(2, wide = false)
    val cat = catalog + (NestedTpch.inputName(2, wide = false) -> NestedTpch.nestedInput(t, 2, wide = false))
    def exchanges(optimize: Plan => Plan) =
      TestUtil.shuffleExchanges(new SparkExecutor(cat).execute(optimize(Unnester.compile(q))))
    assert(exchanges(Optimizer.full) == exchanges(Optimizer.pushProjections) - 1)
  }

  /** Inputs with NULL top-key attributes, duplicate rows and keys, empty
    * bags and unmatched join keys: `A(g, k, bs: {(j, v)})`, `B(k, h, j)`,
    * `C(j, m, w)`, `D(m, u)`.
    */
  private lazy val stackCatalog = {
    import spark.implicits._
    val bs = Seq[(Option[String], Option[Long], Seq[(Option[Long], Double)])](
      (Some("x"), Some(1L), Seq((Some(10L), 1.0), (Some(10L), 2.0), (Some(20L), 4.0))),
      (Some("x"), Some(1L), Seq((Some(10L), 1.0), (Some(10L), 2.0), (Some(20L), 4.0))),
      (None, Some(1L), Seq((None, 8.0), (Some(30L), 16.0))),
      (None, None, Seq.empty),
      (Some("y"), Some(2L), Seq((Some(20L), 32.0))),
      (Some("z"), Some(9L), Seq.empty)).toDF("g", "k", "bs")
      .selectExpr("g", "k", "transform(bs, e -> named_struct('j', e._1, 'v', e._2)) AS bs")
    Map(
      "A" -> bs,
      "B" -> Seq[(Option[Long], Option[String], Option[Long])]((Some(1L), Some("p"), Some(10L)),
        (Some(1L), Some("p"), Some(10L)), (Some(1L), None, Some(20L)), (None, Some("q"), Some(10L)),
        (Some(2L), Some("r"), None), (Some(2L), Some("s"), Some(40L))).toDF("k", "h", "j"),
      "C" -> Seq[(Option[Long], Option[Long], Double)]((Some(10L), Some(7L), 1.0), (Some(10L), Some(7L), 1.0),
        (None, Some(7L), 3.0), (Some(20L), None, 5.0), (Some(20L), Some(8L), 6.0)).toDF("j", "m", "w"),
      "D" -> Seq[(Option[Long], Option[String])]((Some(7L), Some("u")), (Some(7L), Some("u")), (None, Some("v")),
        (Some(7L), None)).toDF("m", "u"))
  }

  private lazy val stackGens = {
    val elem = TupleTpe("j" -> IntTpe, "v" -> RealTpe)
    new Gens(Map(
      "A" -> TupleTpe("g" -> StringTpe, "k" -> IntTpe, "bs" -> BagTpe(elem)), "E" -> elem,
      "B" -> TupleTpe("k" -> IntTpe, "h" -> StringTpe, "j" -> IntTpe),
      "C" -> TupleTpe("j" -> IntTpe, "m" -> IntTpe, "w" -> RealTpe), "D" -> TupleTpe("m" -> IntTpe, "u" -> StringTpe)))
  }

  /** `for a in A yield (g, es := for e in a.bs yield (v, cs :=
    * sumBy_key^s(for c in C if e.j = c.j yield (key := c.key, s := e.v * c.w))))`.
    */
  private def summedStack(key: String): Expr = {
    import stackGens._
    val row = Sng(Tup(key -> field("C", key), "s" -> Arith("*", field("E", "v"), field("C", "w"))))
    val es = each("E", Sng(Tup("v" -> field("E", "v"), "cs" -> SumByE(gen("C", "E", "j", row), Seq(key), Seq("s")))),
      Some(field("A", "bs")))
    each("A", Sng(Tup("g" -> field("A", "g"), "es" -> es)))
  }

  private lazy val stackQueries: Seq[(String, Expr)] = {
    import stackGens._
    // for a in A yield (g, bs := for b in B if a.k = b.k yield (h, cs := for c in C if b.j = c.j
    //   yield (w, ds := for d in D if c.m = d.m yield (u))))
    val ds = gen("D", "C", "m", Sng(Tup("u" -> field("D", "u"))))
    val cs = gen("C", "B", "j", Sng(Tup("w" -> field("C", "w"), "ds" -> ds)))
    val flat = each("A", Sng(Tup("g" -> field("A", "g"), "bs" -> gen("B", "A", "k", Sng(Tup(
      "h" -> field("B", "h"), "cs" -> cs))))))
    Seq("a three-level Γ⊎ stack over joins" -> flat,
      "a Γ⊎ stack over a Γ⁺ after an outer unnest" -> summedStack("j"))
  }

  for ((name, q) <- stackQueries)
    test(s"$name, partitioned by its top key, matches LocalEval at every level on both executors") {
      val full = Optimizer.full(Unnester.compile(q))
      assert(partitions(full).size == 1, full.pretty())
      assertLevelsMatchLocalEval(q, stackCatalog)
    }

  // A nested sumBy marks a group present by its first key being non-NULL
  // (`Unnester.compileBag`), so C's row (j = 20, m = NULL, w = 5.0) is
  // dropped like outer-join padding: LocalEval keeps `<m = NULL, s = 20.0>`
  // in `cs`. `pendingUntilFixed` reports the test pending while the defect
  // stands and fails it once the defect is fixed; then drop the wrapper.
  test("a nested sumBy keeps a group whose first key is NULL") {
    pendingUntilFixed {
      val q = summedStack("m")
      TestUtil.assertBagEq(new SparkExecutor(stackCatalog).execute(Optimizer.level(0)(Unnester.compile(q))),
        TestUtil.localEval(q, TestUtil.toLocal(stackCatalog)))
    }
  }

  // ------------------------------------------------ bottom-up label chains

  /** The inputs below each join of `p`: the join order, whatever else moved. */
  private def joinedInputs(p: Plan): Set[Set[String]] =
    (p match { case j: Join => Set(TestUtil.inputs(j)); case _ => Set.empty[Set[String]] }) ++
      p.children.flatMap(joinedInputs)

  private def input(name: String, cols: String*): Plan =
    Project(Source(name), cols.map(c => c -> (ColRef(c): ValExpr)))

  /** `(A ⋈[a_k = b_k] B) ⋈[upper] C`, projected. */
  private def chain(upperLeft: Seq[String], upperRight: Seq[String],
                    lowerOuter: Boolean = false, upperOuter: Boolean = false): Plan =
    Project(Join(
      Join(input("A", "a_g", "a_k", "a_x"), input("B", "b_k", "b_j"), Seq("a_k"), Seq("b_k"), lowerOuter),
      input("C", "c_j", "c_v"), upperLeft, upperRight, upperOuter),
      Seq("a_g", "a_k", "a_x", "c_j", "c_v").map(c => c -> (ColRef(c): ValExpr)))

  private def summed(p: Plan, group: String = "a_g", sum: ValExpr = ColRef("c_v")): Plan =
    NestSum(p, Seq(group), Seq("s" -> sum))

  private val rotated = Set("B", "C")
  private val kept    = Set("A", "B")

  // A factored sum pre-aggregates the leaf `A`, so it groups by A's join key.
  for ((what, group, sum) <- Seq(("in the lower join's right side", "a_g", ColRef("c_v")),
                                 ("factored across the rotated join", "a_k", ArithV("*", ColRef("a_x"), ColRef("c_v")))))
    test(s"under a Γ⁺ with its sum $what, an inner join on the lower join's right columns joins that side first") {
      val plan = summed(chain(Seq("b_j"), Seq("c_j")), group, sum)
      assert(joinedInputs(Optimizer.full(plan)).contains(rotated))
    }

  for ((what, plan) <- Seq(
    "the upper keys come from the lower join's left side" -> summed(chain(Seq("a_x"), Seq("c_j"))),
    "the upper keys come from both sides of the lower join" ->
      summed(chain(Seq("a_x", "b_j"), Seq("c_j", "c_v"))),
    "the lower join is left-outer" -> summed(chain(Seq("b_j"), Seq("c_j"), lowerOuter = true)),
    "the lower join is left-outer and the sum factors across it" ->
      summed(chain(Seq("b_j"), Seq("c_j"), lowerOuter = true), sum = ArithV("*", ColRef("a_x"), ColRef("c_v"))),
    "the upper join is left-outer" -> summed(chain(Seq("b_j"), Seq("c_j"), upperOuter = true)),
    "the upper join has no keys" -> summed(chain(Nil, Nil)),
    "no Γ⁺ sits above the chain" -> chain(Seq("b_j"), Seq("c_j")),
    "no partial sum pushes into the rotated chain" ->
      summed(chain(Seq("b_j"), Seq("c_j")), sum = ArithV("+", ColRef("a_x"), ColRef("c_v"))),
    "the Γ⁺ groups by a column of the lower join's right side" ->
      summed(chain(Seq("b_j"), Seq("c_j")), group = "c_j")))
    test(s"the join order is kept when $what") {
      val joined = joinedInputs(Optimizer.full(plan))
      assert(joined.contains(kept) && !joined.contains(rotated), joined)
    }

  /** `for a in A, b in B, c in C, d in D if a.k = b.k ∧ b.j = c.j ∧ c.m = d.m
    * sumBy_g (b.v * d.w)`: every join key has duplicates and NULLs on both
    * sides.
    */
  private lazy val chainCatalog = {
    import spark.implicits._
    Map(
      "A" -> Seq[(String, Option[Long])](("x", Some(1L)), ("y", Some(1L)), ("z", None), ("w", Some(2L)),
        ("x", Some(2L))).toDF("g", "k"),
      "B" -> Seq[(Option[Long], Option[Long], Double)]((Some(1L), Some(10L), 1.0), (Some(1L), Some(10L), 2.0),
        (None, Some(10L), 4.0), (Some(2L), None, 8.0), (Some(1L), Some(20L), 16.0), (Some(2L), Some(20L), 32.0))
        .toDF("k", "j", "v"),
      "C" -> Seq[(Option[Long], Option[Long])]((Some(10L), Some(100L)), (Some(10L), Some(100L)),
        (None, Some(100L)), (Some(20L), None), (Some(20L), Some(200L))).toDF("j", "m"),
      "D" -> Seq[(Option[Long], Double)]((Some(100L), 1.0), (Some(100L), 10.0), (None, 100.0),
        (Some(200L), 1000.0)).toDF("m", "w"))
  }

  private lazy val chainQuery: Expr = {
    val g = new Gens(Map(
      "A" -> TupleTpe("g" -> StringTpe, "k" -> IntTpe), "B" -> TupleTpe("k" -> IntTpe, "j" -> IntTpe, "v" -> RealTpe),
      "C" -> TupleTpe("j" -> IntTpe, "m" -> IntTpe), "D" -> TupleTpe("m" -> IntTpe, "w" -> RealTpe)))
    import g._
    val row = Sng(Tup("g" -> field("A", "g"), "s" -> Arith("*", field("B", "v"), field("D", "w"))))
    sumBy("g", gen("B", "A", "k", gen("C", "B", "j", gen("D", "C", "m", row))))
  }

  test("a three-join chain with duplicate and NULL keys matches LocalEval at every level on both executors") {
    val plan = Unnester.compile(chainQuery)
    assert(joinedInputs(Optimizer.full(plan)).contains(Set("B", "C", "D")), Optimizer.full(plan).pretty())
    assertLevelsMatchLocalEval(chainQuery, chainCatalog)
  }

  // ------------------------------------------- where a left pre-aggregate pays

  /** `Γ⁺[group](A ⋈[a_k = c_k] C)` summing `a_x * c_v`. */
  private def leafJoin(group: String): Plan =
    NestSum(Join(input("A", "a_g", "a_k", "a_x"), input("C", "c_k", "c_v"), Seq("a_k"), Seq("c_k"), false),
      Seq(group), Seq("s" -> ArithV("*", ColRef("a_x"), ColRef("c_v"))))

  test("a leaf pre-aggregate keyed by more than its join keys is not created") {
    assert(pushed(leafJoin("a_g")).isEmpty)
    // T3's standard plan and T4's lowest dictionary: Γ⁺[…, l2__l_partkey] under the Part join.
    val t4 = Shredder.shred("OUT", TpchQueries.nestedToNested(2, wide = false)).assignments.last
    for (e <- Seq(TpchQueries.nestedToFlat(2, wide = false), t4.expr)) {
      val plan = Unnester.compile(e)
      assert(pushed(plan).isEmpty, Optimizer.full(plan).pretty())
    }
  }

  test("a leaf pre-aggregate keyed by the join keys alone is still created") {
    assert(pushed(leafJoin("a_k")) == Seq(Seq("a_k") -> false))
  }

  test("no rotation is kept for a push the guard refuses: the partial sum goes over the lower join") {
    // Rotated, A's pre-aggregate would be keyed by a_g and a_k over a leaf.
    val plan = summed(chain(Seq("b_j"), Seq("c_j")), sum = ArithV("*", ColRef("a_x"), ColRef("c_v")))
    val joined = joinedInputs(Optimizer.full(plan))
    assert(joined.contains(kept) && !joined.contains(rotated), joined)
    assert(pushed(plan) == Seq(Seq("a_g", "b_j") -> true))
  }

  test("a pre-aggregate over a join is still created, as in C3") {
    // (A ⋈[a_k = b_k] B) ⋈[a_x = c_j] C: the partial sum of a_x is keyed by
    // a_g and a_x, and it lies over the A ⋈ B join.
    val plan = summed(chain(Seq("a_x"), Seq("c_j")), sum = ArithV("*", ColRef("a_x"), ColRef("c_v")))
    assert(pushed(plan) == Seq(Seq("a_g", "a_x") -> true))
    val c3 = Shredder.shred("C3", BioQueries.clinical("C3")).assignments.find(_.name == "C3__D_mutations_candidates")
    val c3Plan = Unnester.compile(c3.get.expr)
    assert(pushed(c3Plan).exists(_._2), Optimizer.full(c3Plan).pretty())
  }

  /** `for a in A, b in B if a.k = b.k, c in C if a.j = c.j`, each input with
    * NULL and duplicate join keys, and groups of several rows in A.
    */
  private lazy val guardCatalog = {
    import spark.implicits._
    Map(
      "A" -> Seq[(String, Option[Long], Option[Long], Double)](("x", Some(1L), Some(10L), 1.0),
        ("x", Some(1L), Some(10L), 2.0), ("x", Some(1L), Some(20L), 4.0), ("y", Some(1L), Some(10L), 8.0),
        ("y", Some(2L), None, 16.0), ("z", None, Some(10L), 32.0), ("z", Some(2L), Some(20L), 64.0))
        .toDF("g", "k", "j", "x"),
      "B" -> Seq[(Option[Long], Double)]((Some(1L), 1.0), (Some(1L), 10.0), (None, 100.0), (Some(2L), 1000.0))
        .toDF("k", "v"),
      "C" -> Seq[(Option[Long], Double)]((Some(10L), 1.0), (Some(10L), 3.0), (None, 5.0), (Some(20L), 7.0))
        .toDF("j", "w"))
  }

  /** Three sums over `guardCatalog`, each with the Γ⁺s `full` leaves below a
    * join, as (grouping, whether a join lies below).
    */
  private lazy val guardQueries: Seq[(String, Expr, Seq[(Seq[String], Boolean)])] = {
    val g = new Gens(Map(
      "A" -> TupleTpe("g" -> StringTpe, "k" -> IntTpe, "j" -> IntTpe, "x" -> RealTpe),
      "B" -> TupleTpe("k" -> IntTpe, "v" -> RealTpe), "C" -> TupleTpe("j" -> IntTpe, "w" -> RealTpe)))
    import g._
    def row(key: String, s: Expr) = Sng(Tup(key -> field("A", key), "s" -> s))
    val ac = Arith("*", field("A", "x"), field("C", "w"))
    val bc = Arith("*", field("B", "v"), field("C", "w"))
    Seq(
      ("A ⋈ C grouped by A's non-key", sumBy("g", gen("C", "A", "j", row("g", ac))), Nil),
      ("A ⋈ C grouped by the join key", sumBy("j", gen("C", "A", "j", row("j", ac))), Seq(Seq("a__j") -> false)),
      ("(A ⋈ B) ⋈ C", sumBy("g", gen("B", "A", "k", gen("C", "A", "j", row("g", bc)))),
        Seq(Seq("a__g", "a__j") -> true, Seq("b__k") -> false)))
  }

  for ((name, q, sums) <- guardQueries)
    test(s"$name: the pre-aggregates full keeps match LocalEval at every level on both executors") {
      val plan = Unnester.compile(q)
      assert(pushed(plan) == sums, Optimizer.full(plan).pretty())
      assertLevelsMatchLocalEval(q, guardCatalog)
    }
}
