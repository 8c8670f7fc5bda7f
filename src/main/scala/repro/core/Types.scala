package repro.core

import scala.collection.immutable.ListMap

/** Types of the NRC source language (paper Fig. 1) plus the `Label` type of
  * the shredded intermediate language NRC^{Lbl} (§4.1).
  *
  * Following the paper we restrict bag contents to tuples of scalar- or
  * bag-typed attributes; sets are bags with multiplicity one. `LabelTpe` is a
  * scalar at runtime (a 64-bit identifier or a passed-through key value).
  */
sealed trait Tpe {
  /** Pretty rendering used in error messages and plan dumps. */
  def render: String = this match {
    case IntTpe    => "int"
    case RealTpe   => "real"
    case StringTpe => "string"
    case BoolTpe   => "bool"
    case DateTpe   => "date"
    case LabelTpe  => "label"
    case TupleTpe(fs) => fs.map { case (n, t) => s"$n: ${t.render}" }.mkString("<", ", ", ">")
    case BagTpe(el)   => s"Bag(${el.render})"
  }
}

/** Scalar types — the leaves of the type grammar. */
sealed trait ScalarTpe extends Tpe
case object IntTpe    extends ScalarTpe
case object RealTpe   extends ScalarTpe
case object StringTpe extends ScalarTpe
case object BoolTpe   extends ScalarTpe
case object DateTpe   extends ScalarTpe

/** Labels identify inner bags in the shredded representation (§4). */
case object LabelTpe extends ScalarTpe

/** Tuple type with ordered attributes. */
final case class TupleTpe(fields: ListMap[String, Tpe]) extends Tpe {
  def apply(name: String): Tpe =
    fields.getOrElse(name, sys.error(s"no attribute '$name' in ${render}"))
  def has(name: String): Boolean = fields.contains(name)
  /** Attributes of bag type, in declaration order. */
  def bagAttrs: Seq[String] = fields.collect { case (n, _: BagTpe) => n }.toSeq
  /** True iff every attribute is scalar (a "flat" tuple). */
  def isFlat: Boolean = fields.values.forall(_.isInstanceOf[ScalarTpe])
}

object TupleTpe {
  def apply(fields: (String, Tpe)*): TupleTpe = TupleTpe(ListMap(fields: _*))
}

/** Bag of tuples. */
final case class BagTpe(elem: TupleTpe) extends Tpe {
  def isFlat: Boolean = elem.isFlat
}

object BagTpe {
  def of(fields: (String, Tpe)*): BagTpe = BagTpe(TupleTpe(fields: _*))
}
