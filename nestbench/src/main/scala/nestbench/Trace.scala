package nestbench

import scala.collection.mutable

/** One timed call into a layer. All spans of one operation share `op`;
  * `parent` is the id of the enclosing span (-1 for an operation's root).
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, var endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Records spans around the benchmark's calls into the compiler's layers.
  *
  * Spans are kept in memory and written out once, when the run ends. When
  * `on` is false (the untraced run, and the untraced half of a traced run)
  * `span` only runs its body. Spans are opened on the single operation
  * thread; they are read only after that thread's operation has finished.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  @volatile var on: Boolean = false
  private var op = -1

  def beginOp(id: Int): Unit = { op = id; stack = Nil }

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val s = Span(spans.size, stack.headOption.fold(-1)(_.id), op, name, System.nanoTime(), 0L)
      spans += s
      stack = s :: stack
      try body
      finally { s.endNs = System.nanoTime(); stack = stack.drop(1) }
    }

  def ofOp(id: Int): Seq[Span] = spans.filter(s => s.op == id && s.endNs > 0).toSeq
  def all: Seq[Span] = spans.filter(_.endNs > 0).toSeq
}

object Tracer {

  /** Self time per span name: a span's duration minus the part of it its
    * child spans cover (children of one span never overlap: one thread).
    */
  def selfTimes(spans: Seq[Span]): Map[String, Long] = {
    val childNs = spans.filter(_.parent >= 0).groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.groupMapReduce(_.name)(s => s.durNs - childNs.getOrElse(s.id, 0L))(_ + _)
  }

  def toJson(spans: Seq[Span]): String =
    spans.map(s => s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":${Json.str(s.name)},""" +
      s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""").mkString("[\n", ",\n", "\n]\n")
}

/** Minimal JSON writing for the result line and the run record. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString

  def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
