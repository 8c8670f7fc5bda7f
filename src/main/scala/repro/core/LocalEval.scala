package repro.core

import scala.collection.immutable.ListMap
import repro.core.NRC._

/** Reference interpreter for NRC over in-memory Scala collections.
  *
  * Values: tuples are `Map[String, Any]`, bags are `Seq[Map[String, Any]]`,
  * scalars are boxed primitives, labels are `Long` (the hash of a `NewLabel`'s
  * components). This interpreter defines the ground
  * truth the Spark routes are tested against; it supports the full language,
  * including constructs the distributed compiler restricts.
  */
object LocalEval {

  type Tuple = Map[String, Any]
  type Bag   = Seq[Tuple]

  /** Environment: bound variables plus named input bags. */
  final case class Env(vars: Map[String, Any], inputs: Map[String, Bag]) {
    def bind(name: String, v: Any): Env = copy(vars = vars + (name -> v))
  }
  object Env {
    def apply(inputs: (String, Bag)*): Env = Env(Map.empty[String, Any], inputs.toMap)
  }

  /** Evaluate a whole program, returning each assignment's bag in order. */
  def evalProgram(p: Program, env: Env): ListMap[String, Bag] = {
    var e = env
    var out = ListMap.empty[String, Bag]
    for (a <- p.assignments) {
      val bag = evalBag(a.expr, e)
      out = out + (a.name -> bag)
      e = e.copy(inputs = e.inputs + (a.name -> bag))
    }
    out
  }

  def evalBag(e: Expr, env: Env): Bag = eval(e, env).asInstanceOf[Bag]

  def eval(e: Expr, env: Env): Any = e match {
    case Const(v, _)    => v
    case InputBag(n, _) => env.inputs.getOrElse(n, sys.error(s"no input $n"))
    case VarRef(n, _)   => env.vars.getOrElse(n, sys.error(s"unbound var $n"))
    case Proj(t, a)     => eval(t, env).asInstanceOf[Tuple](a)
    case Tup(fs)        => fs.map { case (n, x) => n -> eval(x, env) }.toMap
    case Arith(op, l, r) => arith(op, eval(l, env), eval(r, env))
    case Cmp(op, l, r)   => cmp(op, eval(l, env), eval(r, env))
    case And(l, r)       => eval(l, env).asInstanceOf[Boolean] && eval(r, env).asInstanceOf[Boolean]
    case Or(l, r)        => eval(l, env).asInstanceOf[Boolean] || eval(r, env).asInstanceOf[Boolean]
    case Not(x)          => !eval(x, env).asInstanceOf[Boolean]
    case ScalarIf(c, t, f) =>
      if (eval(c, env).asInstanceOf[Boolean]) eval(t, env) else eval(f, env)
    case Empty(_)  => Seq.empty[Tuple]
    case Sng(x)    => Seq(eval(x, env).asInstanceOf[Tuple])
    case ForUnion(x, s, b) =>
      evalBag(s, env).flatMap(t => evalBag(b, env.bind(x.name, t)))
    case IfThenBag(c, t) =>
      if (eval(c, env).asInstanceOf[Boolean]) evalBag(t, env) else Seq.empty[Tuple]
    case BagUnion(l, r) => evalBag(l, env) ++ evalBag(r, env)
    case Let(x, v, b)   => eval(b, env.bind(x.name, eval(v, env)))
    case DedupE(x)      => evalBag(x, env).distinct
    case Get(x) =>
      evalBag(x, env) match {
        case Seq(only) => only
        case _         => Map.empty[String, Any] // default value per §2.1
      }
    case g @ GroupByE(x, keys, groupAs) =>
      val bag = evalBag(x, env)
      bag.groupBy(t => keys.map(t)).toSeq.map { case (kv, ts) =>
        (keys.zip(kv) :+ (groupAs -> ts.map(t => t -- keys))).toMap
      }
    case SumByE(x, keys, values) =>
      val bag = evalBag(x, env)
      bag.groupBy(t => keys.map(t)).toSeq.map { case (kv, ts) =>
        val sums = values.map(v => v -> ts.map(t => toDouble(t(v))).sum)
        val elem = x.asBag.elem
        val cast = sums.map { case (v, d) =>
          v -> (if (elem(v) == IntTpe) d.toLong else d)
        }
        (keys.zip(kv) ++ cast).toMap
      }
    case NewLabelE(args) => hashLabel(args.map(eval(_, env)))
  }

  /** Deterministic 64-bit combination of label components; mirrors the Spark
    * executor's xxhash64-based labels closely enough for tests that compare
    * structure rather than raw label values. A NULL component steps the hash
    * differently from any value, so NULL and `0` give different labels.
    */
  def hashLabel(vs: Seq[Any]): Long =
    vs.foldLeft(1125899906842597L)((h, v) => if (v == null) h * 37 else h * 31 + v.hashCode())

  private def toDouble(v: Any): Double = v match {
    case null       => 0.0
    case d: Double  => d
    case f: Float   => f.toDouble
    case i: Int     => i.toDouble
    case l: Long    => l.toDouble
    case s: Short   => s.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case other      => sys.error(s"not numeric: $other")
  }

  private def arith(op: String, l: Any, r: Any): Any = (l, r) match {
    case (a: Int, b: Int) if op != "/"   => intOp(op, a.toLong, b.toLong)
    case (a: Long, b: Long) if op != "/" => intOp(op, a, b)
    case (a: Int, b: Long) if op != "/"  => intOp(op, a.toLong, b)
    case (a: Long, b: Int) if op != "/"  => intOp(op, a, b.toLong)
    case _ =>
      val (a, b) = (toDouble(l), toDouble(r))
      op match {
        case "+" => a + b; case "-" => a - b; case "*" => a * b; case "/" => a / b
      }
  }

  private def intOp(op: String, a: Long, b: Long): Long = op match {
    case "+" => a + b; case "-" => a - b; case "*" => a * b
    case other => sys.error(s"intOp $other")
  }

  /** A comparison with a NULL operand is false, as in a Spark filter or
    * join condition.
    */
  private def cmp(op: String, l: Any, r: Any): Boolean = l != null && r != null && {
    val c: Int = (l, r) match {
      case (a: String, b: String)   => a.compareTo(b)
      case (a: Boolean, b: Boolean) => a.compareTo(b)
      case (a, b) if isNum(a) && isNum(b) => toDouble(a).compareTo(toDouble(b))
      case (a, b) => a.toString.compareTo(b.toString)
    }
    op match {
      case "==" => c == 0; case "!=" => c != 0
      case "<" => c < 0; case "<=" => c <= 0; case ">" => c > 0; case ">=" => c >= 0
    }
  }

  private def isNum(v: Any): Boolean = v match {
    case _: Int | _: Long | _: Double | _: Float | _: Short | _: java.math.BigDecimal => true
    case _ => false
  }

  // -------------------------------------------------- canonical comparison

  /** Canonicalize a nested bag value for order-insensitive equality: sorts
    * bags recursively by a stable rendering and normalizes numeric types.
    */
  def canon(bag: Bag): String = renderBag(bag)

  private def renderBag(bag: Bag): String =
    bag.map(renderTuple).sorted.mkString("{", ", ", "}")

  private def renderTuple(t: Tuple): String =
    t.toSeq.sortBy(_._1).map { case (k, v) => s"$k=${renderVal(v)}" }.mkString("<", ", ", ">")

  private def renderVal(v: Any): String = v match {
    case b: scala.collection.Seq[_] => renderBag(b.toSeq.asInstanceOf[Bag])
    case null      => "∅"
    case d: Double => f"$d%.6f"
    case f: Float  => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
    case i: Int    => i.toString
    case l: Long   => l.toString
    case other     => other.toString
  }
}
