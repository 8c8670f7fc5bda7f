package repro.core

import repro.{SparkSpec, TestUtil}
import repro.core.NRC._
import repro.core.LocalEval._
import repro.core.exec.Routes

class LocalEvalSpec extends SparkSpec {

  private val liT = TupleTpe("oid" -> IntTpe, "pid" -> IntTpe, "qty" -> RealTpe)
  private val li  = InputBag("Li", BagTpe(liT))
  private val pT  = TupleTpe("pid" -> IntTpe, "price" -> RealTpe)
  private val pt  = InputBag("Part", BagTpe(pT))

  private val liBag: Bag = Seq(
    Map("oid" -> 1L, "pid" -> 1L, "qty" -> 2.0),
    Map("oid" -> 1L, "pid" -> 2L, "qty" -> 3.0),
    Map("oid" -> 2L, "pid" -> 1L, "qty" -> 4.0),
    Map("oid" -> 2L, "pid" -> 9L, "qty" -> 5.0))
  private val ptBag: Bag = Seq(
    Map("pid" -> 1L, "price" -> 10.0),
    Map("pid" -> 2L, "price" -> 20.0))
  private val env = Env("Li" -> liBag, "Part" -> ptBag)

  private val x = VarDef("x", liT)
  private val p = VarDef("p", pT)

  test("constants and arithmetic") {
    assert(eval(Arith("+", Const(1, IntTpe), Const(2, IntTpe)), env) == 3L)
    assert(eval(Arith("*", Const(2.0, RealTpe), Const(3, IntTpe)), env) == 6.0)
    assert(eval(Arith("/", Const(1, IntTpe), Const(2, IntTpe)), env) == 0.5)
  }

  test("comparisons across numeric types") {
    assert(eval(Cmp("==", Const(1, IntTpe), Const(1.0, RealTpe)), env) == true)
    assert(eval(Cmp("<", Const("a", StringTpe), Const("b", StringTpe)), env) == true)
    assert(eval(Cmp(">=", Const(3, IntTpe), Const(4, IntTpe)), env) == false)
  }

  test("boolean operators and scalar if") {
    val t = Const(true, BoolTpe); val f = Const(false, BoolTpe)
    assert(eval(And(t, f), env) == false)
    assert(eval(Or(t, f), env) == true)
    assert(eval(Not(f), env) == true)
    assert(eval(ScalarIf(t, Const(1, IntTpe), Const(2, IntTpe)), env) == 1)
    // A comparison with NULL is unknown (NULL); `if` reads unknown as false.
    val u = Cmp("==", Const(null, IntTpe), Const(1, IntTpe))
    assert(eval(u, env) == null && eval(Not(u), env) == null)
    assert(eval(And(u, f), env) == false && eval(And(u, t), env) == null)
    assert(eval(Or(u, t), env) == true && eval(Or(u, f), env) == null)
    assert(eval(ScalarIf(Not(u), Const(1, IntTpe), Const(2, IntTpe)), env) == 2)
  }

  test("a negated comparison with a NULL operand drops the row, as the standard route does") {
    import spark.implicits._
    val xT = TupleTpe("a" -> IntTpe)
    val xv = VarDef("x", xT)
    val q = ForUnion(xv, InputBag("X", BagTpe(xT)),
      IfThenBag(Not(Cmp("==", Proj(VarRef(xv), "a"), Const(1L, IntTpe))),
        Sng(Tup("a" -> Proj(VarRef(xv), "a")))))
    val cat = Map("X" -> Seq(Some(1L), None, Some(2L)).toDF("a"))
    val local = TestUtil.localEval(q, TestUtil.toLocal(cat))
    assert(local == Seq(Map("a" -> 2L)))
    TestUtil.assertBagEq(Routes.standard(q, cat), local)
  }

  test("for-union maps and unions") {
    val q = ForUnion(x, li, Sng(Tup("pid" -> Proj(VarRef(x), "pid"))))
    assert(evalBag(q, env).map(_("pid")) == Seq(1L, 2L, 1L, 9L))
  }

  test("if-then filters") {
    val q = ForUnion(x, li, IfThenBag(Cmp("==", Proj(VarRef(x), "oid"), Const(1L, IntTpe)),
      Sng(Tup("qty" -> Proj(VarRef(x), "qty")))))
    assert(evalBag(q, env).map(_("qty")) == Seq(2.0, 3.0))
  }

  test("nested-loop join") {
    val q = ForUnion(x, li, ForUnion(p, pt,
      IfThenBag(Cmp("==", Proj(VarRef(x), "pid"), Proj(VarRef(p), "pid")),
        Sng(Tup("total" -> Arith("*", Proj(VarRef(x), "qty"), Proj(VarRef(p), "price")))))))
    assert(evalBag(q, env).map(_("total")).toSet == Set(20.0, 60.0, 40.0))
  }

  test("bag union keeps multiplicities; dedup removes them") {
    val q = BagUnion(li, li)
    assert(evalBag(q, env).size == 8)
    assert(evalBag(DedupE(q), env).size == 4)
  }

  test("empty bag and singleton") {
    assert(evalBag(Empty(BagTpe(liT)), env).isEmpty)
    assert(evalBag(Sng(Tup("a" -> Const(1, IntTpe))), env) == Seq(Map("a" -> 1)))
  }

  test("let binds a scalar") {
    val q = Let(VarDef("v", RealTpe), Const(10.0, RealTpe),
      ForUnion(x, li, Sng(Tup("t" -> Arith("*", Proj(VarRef(x), "qty"), VarRef("v", RealTpe))))))
    assert(evalBag(q, env).map(_("t")) == Seq(20.0, 30.0, 40.0, 50.0))
  }

  test("get extracts singleton, defaults otherwise") {
    val q = Get(Sng(Tup("a" -> Const(7, IntTpe))))
    assert(eval(q, env) == Map("a" -> 7))
    assert(eval(Get(Empty(BagTpe(liT))), env) == Map.empty[String, Any])
  }

  test("sumBy groups and sums real values") {
    val q = SumByE(li, Seq("oid"), Seq("qty"))
    val r = evalBag(q, env).map(t => t("oid") -> t("qty")).toMap
    assert(r == Map(1L -> 5.0, 2L -> 9.0))
  }

  test("sumBy with empty input is empty") {
    assert(evalBag(SumByE(Empty(BagTpe(liT)), Seq("oid"), Seq("qty")), env).isEmpty)
  }

  test("groupBy collects remaining attributes") {
    val q = GroupByE(li, Seq("oid"))
    val r = evalBag(q, env)
    val g1 = r.find(_("oid") == 1L).get("group").asInstanceOf[Bag]
    assert(g1.toSet == Set(Map("pid" -> 1L, "qty" -> 2.0), Map("pid" -> 2L, "qty" -> 3.0)))
  }

  test("labels: every component is hashed; a NULL component gives a non-NULL label") {
    def label(vs: Any*) = eval(NewLabelE(vs.map(Const(_, IntTpe))), env)
    assert(label(42L) != 42L && label(42L) == label(42L))
    assert(label(null) != null && label(null) != label(0L))
    assert(label(null, 5L) != label(5L, null) && label(null, 5L) != label(0L, 5L))
    val a = eval(NewLabelE(Seq(Const(1, IntTpe), Const("x", StringTpe))), env)
    val b = eval(NewLabelE(Seq(Const(1, IntTpe), Const("x", StringTpe))), env)
    val c = eval(NewLabelE(Seq(Const(2, IntTpe), Const("x", StringTpe))), env)
    assert(a == b && a != c)
  }

  test("program threads assignments") {
    val a1 = Assignment("A", SumByE(li, Seq("oid"), Seq("qty")))
    val aT = TupleTpe("oid" -> IntTpe, "qty" -> RealTpe)
    val a2 = Assignment("B", ForUnion(VarDef("y", aT), InputBag("A", BagTpe(aT)),
      IfThenBag(Cmp(">", Proj(VarRef("y", aT), "qty"), Const(6.0, RealTpe)),
        Sng(Tup("oid" -> Proj(VarRef("y", aT), "oid"))))))
    val out = evalProgram(Program(Seq(a1, a2)), env)
    assert(out("B") == Seq(Map("oid" -> 2L)))
  }

  test("canon is order-insensitive and nest-aware") {
    val b1: Bag = Seq(Map("a" -> 1, "g" -> Seq(Map("x" -> 1), Map("x" -> 2))))
    val b2: Bag = Seq(Map("a" -> 1, "g" -> Seq(Map("x" -> 2), Map("x" -> 1))))
    assert(LocalEval.canon(b1) == LocalEval.canon(b2))
    val b3: Bag = Seq(Map("a" -> 1, "g" -> Seq(Map("x" -> 2))))
    assert(LocalEval.canon(b1) != LocalEval.canon(b3))
  }

  test("canon normalizes numeric types") {
    assert(LocalEval.canon(Seq(Map("a" -> 1.0))) == LocalEval.canon(Seq(Map("a" -> 1.0f))))
  }
}
