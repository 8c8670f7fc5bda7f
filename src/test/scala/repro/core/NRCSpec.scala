package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.NRC._

class NRCSpec extends AnyFunSuite {

  private val liT  = TupleTpe("oid" -> IntTpe, "pid" -> IntTpe, "qty" -> RealTpe)
  private val liB  = BagTpe(liT)
  private val li   = InputBag("Li", liB)
  private val x    = VarDef("x", liT)

  test("projection types") {
    assert(Proj(VarRef(x), "qty").tpe == RealTpe)
    assertThrows[RuntimeException](Proj(VarRef(x), "bogus"))
  }

  test("tuple construction types") {
    val t = Tup("a" -> Proj(VarRef(x), "pid"), "b" -> Const(1.0, RealTpe))
    assert(t.tpe == TupleTpe("a" -> IntTpe, "b" -> RealTpe))
  }

  test("arith typing: int+int=int, int*real=real, / is real") {
    assert(Arith("+", Const(1, IntTpe), Const(2, IntTpe)).tpe == IntTpe)
    assert(Arith("*", Const(1, IntTpe), Const(2.0, RealTpe)).tpe == RealTpe)
    assert(Arith("/", Const(1, IntTpe), Const(2, IntTpe)).tpe == RealTpe)
    assertThrows[RuntimeException](Arith("+", Const("a", StringTpe), Const(1, IntTpe)))
  }

  test("cmp requires scalars") {
    assert(Cmp("<", Const(1, IntTpe), Const(2, IntTpe)).tpe == BoolTpe)
    assertThrows[RuntimeException](Cmp("==", li, li))
  }

  test("for-union checks the variable against the source element type") {
    val ok = ForUnion(x, li, Sng(Tup("pid" -> Proj(VarRef(x), "pid"))))
    assert(ok.tpe == BagTpe.of("pid" -> IntTpe))
    assertThrows[RuntimeException](ForUnion(VarDef("x", TupleTpe("z" -> IntTpe)), li, Sng(VarRef(x))))
  }

  test("if-then-bag requires boolean condition") {
    assertThrows[RuntimeException](IfThenBag(Const(1, IntTpe), li))
  }

  test("bag union requires equal types") {
    assert(BagUnion(li, li).tpe == liB)
    assertThrows[RuntimeException](BagUnion(li, InputBag("O", BagTpe.of("z" -> IntTpe))))
  }

  test("dedup requires a flat bag") {
    assert(DedupE(li).tpe == liB)
    val nested = InputBag("N", BagTpe.of("a" -> IntTpe, "b" -> liB))
    assertThrows[RuntimeException](DedupE(nested))
  }

  test("sumBy type keeps keys and summed values") {
    val s = SumByE(li, Seq("pid"), Seq("qty"))
    assert(s.tpe == BagTpe.of("pid" -> IntTpe, "qty" -> RealTpe))
    assertThrows[RuntimeException](SumByE(li, Seq("pid"), Seq("missing")))
  }

  test("groupBy type collects the rest") {
    val g = GroupByE(li, Seq("oid"))
    assert(g.tpe == BagTpe.of("oid" -> IntTpe,
      "group" -> BagTpe.of("pid" -> IntTpe, "qty" -> RealTpe)))
  }

  test("NewLabel requires flat components and is label-typed") {
    assert(NewLabelE(Seq(Proj(VarRef(x), "pid"))).tpe == LabelTpe)
    assertThrows[RuntimeException](NewLabelE(Seq(li)))
  }

  test("freeVars distinguishes bound and free") {
    val body = ForUnion(x, li, IfThenBag(
      Cmp("==", Proj(VarRef(x), "pid"), Proj(VarRef("y", liT), "pid")),
      Sng(Tup("pid" -> Proj(VarRef(x), "pid")))))
    assert(freeVars(body) == Set("y"))
  }

  test("inputs collects all referenced input names") {
    val e = ForUnion(x, li, ForUnion(VarDef("p", liT), InputBag("Part", liB), Sng(VarRef(x))))
    assert(inputs(e) == Set("Li", "Part"))
  }

  test("subst replaces a free variable and respects shadowing") {
    val e = Proj(VarRef("y", liT), "qty")
    assert(subst(e, "y", VarRef("z", liT)) == Proj(VarRef("z", liT), "qty"))
    val shadowed = ForUnion(VarDef("y", liT), li, Sng(Tup("q" -> Proj(VarRef("y", liT), "qty"))))
    assert(subst(shadowed, "y", VarRef("z", liT)) == shadowed)
  }

  test("inlineLets removes every let") {
    val e = Let(VarDef("v", RealTpe), Const(2.0, RealTpe),
      ForUnion(x, li, Sng(Tup("t" -> Arith("*", Proj(VarRef(x), "qty"), VarRef("v", RealTpe))))))
    val r = inlineLets(e)
    assert(!r.toString.contains("Let"))
    assert(r == ForUnion(x, li, Sng(Tup("t" -> Arith("*", Proj(VarRef(x), "qty"), Const(2.0, RealTpe))))))
  }

  test("program lookup") {
    val p = Program(Seq(Assignment("A", li)))
    assert(p("A").expr == li)
    assertThrows[RuntimeException](p("B"))
  }

  test("scalar if branches unify int/real to real") {
    val e = ScalarIf(Cmp("<", Const(1, IntTpe), Const(2, IntTpe)), Const(1, IntTpe), Const(0.5, RealTpe))
    assert(e.tpe == RealTpe)
  }
}
