package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.shred.ShredTypes

class TypesSpec extends AnyFunSuite {

  private val opartsT = BagTpe.of("l_partkey" -> IntTpe, "l_quantity" -> RealTpe)
  private val cordersT = BagTpe.of("o_orderdate" -> DateTpe, "oparts" -> opartsT)
  private val copT = BagTpe.of("c_name" -> StringTpe, "corders" -> cordersT)

  test("render scalar types") {
    assert(IntTpe.render == "int" && RealTpe.render == "real" && LabelTpe.render == "label")
  }

  test("render nested type") {
    assert(copT.render == "Bag(<c_name: string, corders: Bag(<o_orderdate: date, oparts: Bag(<l_partkey: int, l_quantity: real>)>)>)")
  }

  test("tuple attribute lookup") {
    assert(copT.elem("c_name") == StringTpe)
    assert(copT.elem("corders") == cordersT)
    assertThrows[RuntimeException](copT.elem("nope"))
  }

  test("bagAttrs in declaration order") {
    assert(copT.elem.bagAttrs == Seq("corders"))
  }

  test("isFlat") {
    assert(opartsT.isFlat && !cordersT.isFlat && !copT.isFlat)
  }

  test("flatElem replaces bag attributes by labels") {
    val fe = ShredTypes.flatElem(copT.elem)
    assert(fe == TupleTpe("c_name" -> StringTpe, "corders" -> LabelTpe))
  }

  test("elemAt navigates a path") {
    assert(ShredTypes.elemAt(copT, Seq("corders", "oparts")) == opartsT.elem)
    assert(ShredTypes.elemAt(copT, Seq.empty) == copT.elem)
  }

  test("bagPaths is parent-before-child") {
    assert(ShredTypes.bagPaths(copT) == Seq(Seq("corders"), Seq("corders", "oparts")))
  }

  test("dictElem starts with the label column") {
    val d = ShredTypes.dictElem(copT, Seq("corders"))
    assert(d.fields.keys.toSeq == Seq("label", "o_orderdate", "oparts"))
    assert(d("oparts") == LabelTpe)
  }

  test("component naming convention") {
    val names = ShredTypes.components("COP", copT).map(_._1)
    assert(names == Seq("COP__F", "COP__D_corders", "COP__D_corders_oparts"))
  }

  test("flat bag has no bag paths") {
    assert(ShredTypes.bagPaths(opartsT).isEmpty)
  }

  test("three-level bagPaths") {
    val t = BagTpe.of("a" -> StringTpe, "b" -> BagTpe.of("c" -> copT))
    assert(ShredTypes.bagPaths(t) ==
      Seq(Seq("b"), Seq("b", "c"), Seq("b", "c", "corders"), Seq("b", "c", "corders", "oparts")))
  }
}
