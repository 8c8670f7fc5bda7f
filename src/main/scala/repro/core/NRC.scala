package repro.core

import scala.collection.immutable.ListMap

/** Abstract syntax of the NRC source language (paper Fig. 1) extended with
  * the label constructs of NRC^{Lbl} (§4.1) needed by the shredded
  * compilation route.
  *
  * Every expression carries its type; construction eagerly checks the typing
  * rules so malformed programs fail fast with a readable message. Boolean
  * conditions are ordinary `BoolTpe` expressions (`Cmp`/`And`/`Or`/`Not`).
  */
object NRC {

  /** A bound variable with its type. */
  final case class VarDef(name: String, tpe: Tpe)

  sealed trait Expr {
    def tpe: Tpe
    def asBag: BagTpe = tpe match {
      case b: BagTpe => b
      case t         => sys.error(s"expected bag type, got ${t.render} in $this")
    }
    def asTuple: TupleTpe = tpe match {
      case t: TupleTpe => t
      case t           => sys.error(s"expected tuple type, got ${t.render}")
    }
  }

  // ---------------------------------------------------------------- scalars

  /** Scalar constant. */
  final case class Const(value: Any, tpe: ScalarTpe) extends Expr

  /** A free input collection (base table, materialized dictionary, or the
    * output of an earlier assignment in a program).
    */
  final case class InputBag(name: String, tpe: BagTpe) extends Expr

  /** Reference to a variable bound by `for` or `let`. */
  final case class VarRef(name: String, tpe: Tpe) extends Expr
  object VarRef { def apply(vd: VarDef): VarRef = VarRef(vd.name, vd.tpe) }

  /** Attribute projection `e.a`. */
  final case class Proj(tuple: Expr, field: String) extends Expr {
    val tpe: Tpe = tuple.asTuple(field)
  }

  /** Tuple constructor. */
  final case class Tup(fields: ListMap[String, Expr]) extends Expr {
    val tpe: TupleTpe = TupleTpe(fields.map { case (n, e) => n -> e.tpe })
  }
  object Tup {
    def apply(fields: (String, Expr)*): Tup = Tup(ListMap(fields: _*))
  }

  /** Arithmetic on scalars; `+ - * /`. Result is real unless both ints. */
  final case class Arith(op: String, l: Expr, r: Expr) extends Expr {
    require(Set("+", "-", "*", "/")(op), s"bad arith op $op")
    val tpe: ScalarTpe = (l.tpe, r.tpe) match {
      case (IntTpe, IntTpe) if op != "/" => IntTpe
      case (a: ScalarTpe, b: ScalarTpe)
          if Set[Tpe](IntTpe, RealTpe)(a) && Set[Tpe](IntTpe, RealTpe)(b) => RealTpe
      case (a, b) => sys.error(s"arith $op on ${a.render}, ${b.render}")
    }
  }

  /** Scalar comparison producing a boolean: `== != < <= > >=`. */
  final case class Cmp(op: String, l: Expr, r: Expr) extends Expr {
    require(Set("==", "!=", "<", "<=", ">", ">=")(op), s"bad cmp op $op")
    require(l.tpe.isInstanceOf[ScalarTpe] && r.tpe.isInstanceOf[ScalarTpe],
      s"comparison on non-scalars: ${l.tpe.render} $op ${r.tpe.render}")
    val tpe: ScalarTpe = BoolTpe
  }

  final case class And(l: Expr, r: Expr) extends Expr { val tpe: ScalarTpe = BoolTpe }
  final case class Or(l: Expr, r: Expr)  extends Expr { val tpe: ScalarTpe = BoolTpe }
  final case class Not(e: Expr)          extends Expr { val tpe: ScalarTpe = BoolTpe }

  /** Scalar if-then-else (used e.g. by the biomedical hybrid-score query). */
  final case class ScalarIf(cond: Expr, thn: Expr, els: Expr) extends Expr {
    require(cond.tpe == BoolTpe, "ScalarIf condition must be boolean")
    require(thn.tpe == els.tpe || (Set[Tpe](IntTpe, RealTpe)(thn.tpe) && Set[Tpe](IntTpe, RealTpe)(els.tpe)),
      s"ScalarIf branches differ: ${thn.tpe.render} vs ${els.tpe.render}")
    val tpe: Tpe = if (thn.tpe == els.tpe) thn.tpe else RealTpe
  }

  // ------------------------------------------------------------------- bags

  /** Empty bag of a given type. */
  final case class Empty(tpe: BagTpe) extends Expr

  /** Singleton bag `{e}` of a tuple expression. */
  final case class Sng(e: Expr) extends Expr {
    val tpe: BagTpe = BagTpe(e.asTuple)
  }

  /** `for x in source union body` — bind each element of `source` to `x` and
    * union the bodies.
    */
  final case class ForUnion(x: VarDef, source: Expr, body: Expr) extends Expr {
    require(x.tpe == source.asBag.elem,
      s"for-variable ${x.name}: ${x.tpe.render} != element ${source.asBag.elem.render}")
    val tpe: BagTpe = body.asBag
  }

  /** `if cond then e` for bag-typed `e` (else-branch is the empty bag). */
  final case class IfThenBag(cond: Expr, thn: Expr) extends Expr {
    require(cond.tpe == BoolTpe, "IfThenBag condition must be boolean")
    val tpe: BagTpe = thn.asBag
  }

  /** Additive bag union `⊎`. */
  final case class BagUnion(l: Expr, r: Expr) extends Expr {
    require(l.tpe == r.tpe, s"union of ${l.tpe.render} and ${r.tpe.render}")
    val tpe: BagTpe = l.asBag
  }

  /** `let x := value in body`. */
  final case class Let(x: VarDef, value: Expr, body: Expr) extends Expr {
    require(x.tpe == value.tpe, s"let ${x.name}: ${x.tpe.render} != ${value.tpe.render}")
    val tpe: Tpe = body.tpe
  }

  /** `dedup(e)` — multiplicities to one; input must be a flat bag (§2.1). */
  final case class DedupE(e: Expr) extends Expr {
    require(e.asBag.isFlat, s"dedup requires a flat bag, got ${e.tpe.render}")
    val tpe: BagTpe = e.asBag
  }

  /** `get(e)` — extract the single element of a singleton bag. */
  final case class Get(e: Expr) extends Expr {
    val tpe: Tpe = e.asBag.elem
  }

  /** `groupBy_key(e)`: one tuple per distinct key with the non-key attrs
    * collected into a bag attribute `groupAs`.
    */
  final case class GroupByE(e: Expr, keys: Seq[String], groupAs: String = "group") extends Expr {
    private val elem = e.asBag.elem
    keys.foreach(k => require(elem.has(k), s"groupBy key $k missing in ${elem.render}"))
    keys.foreach(k => require(elem(k).isInstanceOf[ScalarTpe], s"groupBy key $k must be flat"))
    val rest: Seq[String] = elem.fields.keys.filterNot(keys.contains).toSeq
    val tpe: BagTpe = BagTpe(TupleTpe(ListMap(
      (keys.map(k => k -> elem(k)) :+
        (groupAs -> BagTpe(TupleTpe(ListMap(rest.map(a => a -> elem(a)): _*))))): _*)))
  }

  /** `sumBy_key^value(e)`: group by `keys`, summing each attr in `values`. */
  final case class SumByE(e: Expr, keys: Seq[String], values: Seq[String]) extends Expr {
    private val elem = e.asBag.elem
    (keys ++ values).foreach(a => require(elem.has(a), s"sumBy attr $a missing in ${elem.render}"))
    keys.foreach(k => require(elem(k).isInstanceOf[ScalarTpe], s"sumBy key $k must be flat"))
    values.foreach(v => require(Set[Tpe](IntTpe, RealTpe)(elem(v)), s"sumBy value $v must be numeric"))
    val tpe: BagTpe = BagTpe(TupleTpe(ListMap(
      (keys.map(k => k -> elem(k)) ++ values.map(v => v -> elem(v))): _*)))
  }

  // --------------------------------------------------- label constructs (§4)

  /** `NewLabel(e₁, …, eₙ)` — a label encapsulating flat values: a 64-bit
    * hash of every argument, never NULL, also when an argument is. (Labels
    * shared between input and output dictionaries are raw natural keys, not
    * `NewLabel`s; see `Shredder`'s domain elimination.)
    */
  final case class NewLabelE(args: Seq[Expr]) extends Expr {
    require(args.nonEmpty, "NewLabel needs at least one component")
    args.foreach(a => require(a.tpe.isInstanceOf[ScalarTpe],
      s"NewLabel component must be flat, got ${a.tpe.render}"))
    val tpe: ScalarTpe = LabelTpe
  }

  // ------------------------------------------------------------- programs

  /** One assignment `name ⇐ expr` of a program. */
  final case class Assignment(name: String, expr: Expr)

  /** A program: a sequence of assignments; later ones may reference earlier
    * outputs via `InputBag(name, …)`.
    */
  final case class Program(assignments: Seq[Assignment]) {
    def apply(name: String): Assignment =
      assignments.find(_.name == name).getOrElse(sys.error(s"no assignment $name"))
  }

  // ------------------------------------------------------------- utilities

  /** Free variables (bound-variable references, not inputs) of `e`. */
  def freeVars(e: Expr): Set[String] = e match {
    case VarRef(n, _)        => Set(n)
    case ForUnion(x, s, b)   => freeVars(s) ++ (freeVars(b) - x.name)
    case Let(x, v, b)        => freeVars(v) ++ (freeVars(b) - x.name)
    case _                   => children(e).flatMap(freeVars).toSet
  }

  /** Names of input bags referenced anywhere in `e`. */
  def inputs(e: Expr): Set[String] = e match {
    case InputBag(n, _) => Set(n)
    case _              => children(e).flatMap(inputs).toSet
  }

  /** Direct subexpressions of `e`. */
  def children(e: Expr): Seq[Expr] = e match {
    case _: Const | _: InputBag | _: VarRef | _: Empty => Seq.empty
    case Proj(t, _)         => Seq(t)
    case Tup(fs)            => fs.values.toSeq
    case Arith(_, l, r)     => Seq(l, r)
    case Cmp(_, l, r)       => Seq(l, r)
    case And(l, r)          => Seq(l, r)
    case Or(l, r)           => Seq(l, r)
    case Not(x)             => Seq(x)
    case ScalarIf(c, t, f)  => Seq(c, t, f)
    case Sng(x)             => Seq(x)
    case ForUnion(_, s, b)  => Seq(s, b)
    case IfThenBag(c, t)    => Seq(c, t)
    case BagUnion(l, r)     => Seq(l, r)
    case Let(_, v, b)       => Seq(v, b)
    case DedupE(x)          => Seq(x)
    case Get(x)             => Seq(x)
    case GroupByE(x, _, _)  => Seq(x)
    case SumByE(x, _, _)    => Seq(x)
    case NewLabelE(as)      => as
  }

  /** Capture-avoiding substitution of variable `name` by `repl` in `e`.
    * Bound variables in benchmarks are globally unique, so shadowed names
    * simply stop the descent.
    */
  def subst(e: Expr, name: String, repl: Expr): Expr = e match {
    case VarRef(n, _) if n == name => repl
    case f @ ForUnion(x, s, b) =>
      val s2 = subst(s, name, repl)
      if (x.name == name) ForUnion(x, s2, b) else ForUnion(x, s2, subst(b, name, repl))
    case l @ Let(x, v, b) =>
      val v2 = subst(v, name, repl)
      if (x.name == name) Let(x, v2, b) else Let(x, v2, subst(b, name, repl))
    case _ => mapChildren(e, subst(_, name, repl))
  }

  /** Rebuild `e` with `f` applied to each direct subexpression. */
  def mapChildren(e: Expr, f: Expr => Expr): Expr = e match {
    case _: Const | _: InputBag | _: VarRef | _: Empty => e
    case Proj(t, a)         => Proj(f(t), a)
    case Tup(fs)            => Tup(fs.map { case (n, x) => n -> f(x) })
    case Arith(op, l, r)    => Arith(op, f(l), f(r))
    case Cmp(op, l, r)      => Cmp(op, f(l), f(r))
    case And(l, r)          => And(f(l), f(r))
    case Or(l, r)           => Or(f(l), f(r))
    case Not(x)             => Not(f(x))
    case ScalarIf(c, t, el) => ScalarIf(f(c), f(t), f(el))
    case Sng(x)             => Sng(f(x))
    case ForUnion(x, s, b)  => ForUnion(x, f(s), f(b))
    case IfThenBag(c, t)    => IfThenBag(f(c), f(t))
    case BagUnion(l, r)     => BagUnion(f(l), f(r))
    case Let(x, v, b)       => Let(x, f(v), f(b))
    case DedupE(x)          => DedupE(f(x))
    case Get(x)             => Get(f(x))
    case GroupByE(x, k, g)  => GroupByE(f(x), k, g)
    case SumByE(x, k, v)    => SumByE(f(x), k, v)
    case NewLabelE(as)      => NewLabelE(as.map(f))
  }

  /** Inline every `let` binding (used by the materializer's Normalize step). */
  def inlineLets(e: Expr): Expr = e match {
    case Let(x, v, b) => inlineLets(subst(b, x.name, inlineLets(v)))
    case _            => mapChildren(e, inlineLets)
  }
}
