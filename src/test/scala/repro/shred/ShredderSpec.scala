package repro.shred

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.NRC._
import repro.queries.TpchQueries

/** Structural tests of the shredding transformation (no Spark): assignment
  * sequences, label sharing, and domain elimination.
  */
class ShredderSpec extends AnyFunSuite {

  test("flat-to-nested level 2 shreds into three assignments with B.1.3 names") {
    val sq = Shredder.shred("OUT", TpchQueries.flatToNested(2, wide = false))
    assert(sq.assignments.map(_.name) ==
      Seq("OUT__F", "OUT__D_corders", "OUT__D_corders_oparts"))
  }

  test("flat-to-nested level 4 shreds into five assignments, parent-first") {
    val sq = Shredder.shred("OUT", TpchQueries.flatToNested(4, wide = false))
    assert(sq.assignments.map(_.name) == Seq("OUT__F",
      "OUT__D_rnations", "OUT__D_rnations_ncusts",
      "OUT__D_rnations_ncusts_corders", "OUT__D_rnations_ncusts_corders_oparts"))
  }

  test("domain elimination: flat-to-nested assignments read only base tables") {
    val sq = Shredder.shred("OUT", TpchQueries.flatToNested(3, wide = false))
    // No assignment references another assignment or a label domain — each
    // dictionary is a projection of one flat table (B.1.3).
    sq.assignments.foreach { a =>
      val ins = inputs(a.expr)
      assert(ins.size == 1, s"${a.name} reads $ins")
      assert(!ins.exists(_.startsWith("OUT")), s"${a.name} reads $ins")
    }
  }

  test("flat-to-nested dictionaries are label-extended projections") {
    val sq = Shredder.shred("OUT", TpchQueries.flatToNested(2, wide = false))
    val corders = sq("OUT__D_corders").expr
    assert(inputs(corders) == Set("Orders"))
    val head = corders.asBag.elem
    assert(head.fields.keys.toSeq == Seq("label", "o_orderdate", "oparts"))
    assert(head("label") == IntTpe)   // natural-key label: o_custkey passes through
    assert(head("oparts") == IntTpe)  // o_orderkey as child label
  }

  test("nested-to-nested level 2: input labels are shared with the output") {
    val sq = Shredder.shred("OUT", TpchQueries.nestedToNested(2, wide = false))
    // The top bag is a projection of the input top bag: corders label reused.
    val top = sq.assignments.head.expr
    assert(inputs(top) == Set("COP2n__F"))
    // The corders dictionary reads only the input corders dictionary.
    assert(inputs(sq("OUT__D_corders").expr) == Set("COP2n__D_corders"))
    // The lowest level is the localized join+aggregate: input oparts dict + Part.
    val bottom = sq("OUT__D_corders_oparts").expr
    assert(inputs(bottom) == Set("COP2n__D_corders_oparts", "Part"))
    assert(bottom.isInstanceOf[SumByE])
    val SumByE(_, keys, vals) = bottom: @unchecked
    assert(keys == Seq("label", "p_name") && vals == Seq("total"))
  }

  test("nested-to-flat level 2 shreds into a single flat assignment") {
    val sq = Shredder.shred("OUT", TpchQueries.nestedToFlat(2, wide = false))
    assert(sq.assignments.map(_.name) == Seq("OUT__F"))
    assert(inputs(sq.assignments.head.expr) ==
      Set("COP2n__F", "COP2n__D_corders", "COP2n__D_corders_oparts", "Part"))
  }

  test("every emitted assignment is a flat query") {
    for (level <- 1 to 4; wide <- Seq(false, true)) {
      val sq = Shredder.shred("OUT", TpchQueries.nestedToNested(level, wide))
      sq.assignments.foreach(a =>
        assert(a.expr.asBag.isFlat, s"level $level wide=$wide ${a.name} is not flat"))
    }
  }

  test("shredding a flat query is the identity modulo naming") {
    val q = TpchQueries.nestedToFlat(0, wide = false)
    val sq = Shredder.shred("OUT", q)
    assert(sq.assignments.size == 1)
    assert(sq.assignments.head.expr == q) // no nested input, nothing to rewrite
  }

  test("baseline materialization path: label domain emitted when no equality matches") {
    // b := bag correlated only through an attribute used in the head, not in
    // an equality — forces the Fig. 5 label-domain fallback.
    val xT = TupleTpe("k" -> IntTpe)
    val yT = TupleTpe("v" -> IntTpe)
    val x = VarDef("x", xT); val y = VarDef("y", yT)
    val q = ForUnion(x, InputBag("X", BagTpe(xT)),
      Sng(Tup("k" -> Proj(VarRef(x), "k"),
        "b" -> ForUnion(y, InputBag("Y", BagTpe(yT)),
          Sng(Tup("s" -> Arith("+", Proj(VarRef(y), "v"), Proj(VarRef(x), "k"))))))))
    val sq = Shredder.shred("OUT", q)
    assert(sq.assignments.map(_.name) == Seq("OUT__F", "OUT__D_b__dom", "OUT__D_b"))
    // The domain dedups the captured x.k over the parent's generator, X.
    assert(inputs(sq("OUT__D_b__dom").expr) == Set("X"))
    assert(inputs(sq("OUT__D_b").expr) == Set("OUT__D_b__dom", "Y"))
  }

  test("uncorrelated nested bag is rejected with a clear error") {
    val xT = TupleTpe("k" -> IntTpe)
    val yT = TupleTpe("v" -> IntTpe)
    val x = VarDef("x", xT); val y = VarDef("y", yT)
    val q = ForUnion(x, InputBag("X", BagTpe(xT)),
      Sng(Tup("k" -> Proj(VarRef(x), "k"),
        "b" -> ForUnion(y, InputBag("Y", BagTpe(yT)), Sng(Tup("v" -> Proj(VarRef(y), "v")))))))
    val err = intercept[Shredder.ShredError](Shredder.shred("OUT", q))
    assert(err.getMessage.contains("captures no outer attributes"))
  }
}
