package repro.shred

import scala.collection.immutable.ListMap
import repro.core._
import repro.core.NRC._
import repro.shred.ShredTypes._

/** Query shredding (§4.1–§4.4): converts a nested NRC query over (possibly
  * nested) inputs into a sequence of **flat** NRC assignments over shredded
  * inputs — one for the top-level bag, one per output dictionary — following
  * the paper's *sequential* strategy.
  *
  * Phase 1 (symbolic shredding, Fig. 4 specialized to the relational
  * dictionary representation): every variable ranging over a nested input is
  * re-typed to its flat form `T^F`; a generator over a bag-valued attribute
  * `x.a` becomes a generator over the materialized input dictionary joined on
  * `label == x.a` (the paper's `MatLookup`).
  *
  * Phase 2 (materialization, Fig. 5, with the domain-elimination rules of
  * §4.4): the head of each level keeps scalar attributes and replaces each
  * bag-valued attribute `b := sub` by a label built from the free attributes
  * `sub` captures (only the referenced ones — the paper's succinctness
  * refinement). The dictionary for `b` is materialized:
  *   - *rule 1/2 (domain elimination)*: when `sub` captures one attribute
  *     and equates it with an attribute of one of its own generators, the
  *     dictionary is computed from `sub`'s own generators with the captured
  *     reference substituted — no label domain, and when the equated
  *     attribute is an input dictionary's `label` the output dictionary
  *     *shares* the input's labels;
  *   - *label domain*: otherwise the captured tuples are deduplicated over
  *     the parent level's generators into a `__dom` assignment, `sub` is
  *     evaluated once per domain tuple, and parent and dictionary both label
  *     it with `NewLabel` of the captured attributes, hashed whatever their
  *     number (a NULL attribute still yields a non-NULL label).
  *
  * Every emitted assignment is flat, so it compiles through the same
  * unnesting + Spark execution as the standard route — which is the point:
  * shredded evaluation is ordinary distributed select-project-join-aggregate.
  */
object Shredder {

  final case class ShredError(msg: String) extends RuntimeException(msg)

  /** Shred query `q` into flat assignments in execution order (top bag
    * first, dictionaries parent-before-child), named by the `<name>__F` /
    * `<name>__D_<path>` convention of [[ShredTypes]]. `Unshredder.unshred`
    * of `name` and `q.asBag` reassembles the nested output.
    */
  def shred(name: String, q: Expr): Program = {
    val inputTpes = collectInputs(q)
    val flat = phase1(inlineLets(q), Map.empty, Map.empty, inputTpes)
    val buf = Vector.newBuilder[Assignment]
    emitLevels(name, topName(name), flat, Seq.empty, buf)
    Program(buf.result())
  }

  // ------------------------------------------------------------- phase 1

  private def collectInputs(e: Expr): Map[String, BagTpe] = e match {
    case InputBag(n, t) => Map(n -> t)
    case _ => children(e).map(collectInputs).foldLeft(Map.empty[String, BagTpe])(_ ++ _)
  }

  /** Rewrite navigation over nested inputs into label joins over input
    * dictionaries; re-type variables to their shredded (flat) element types.
    *
    * @param env    shredded types of bound variables
    * @param origin for shredded variables: the input relation and attribute
    *               path their elements come from
    */
  private def phase1(e: Expr, env: Map[String, Tpe],
                     origin: Map[String, (String, Seq[String])],
                     inputTpes: Map[String, BagTpe]): Expr = e match {
    case ForUnion(x, src, body) =>
      src match {
        // Generator over a nested input: switch to the flat top bag.
        case InputBag(n, BagTpe(elem)) if elem.bagAttrs.nonEmpty =>
          val fe = flatElem(elem)
          ForUnion(VarDef(x.name, fe), InputBag(topName(n), BagTpe(fe)),
            phase1(body, env + (x.name -> fe), origin + (x.name -> (n, Seq.empty)), inputTpes))

        // Generator over a bag attribute of a shredded variable: a label
        // join against the corresponding materialized input dictionary.
        case Proj(VarRef(v, _), a) if origin.contains(v) =>
          val (inp, path) = origin(v)
          val delem = dictElem(inputTpes(inp), path :+ a)
          val xd = VarDef(x.name, delem)
          val labelRef = Proj(VarRef(v, env(v)), a)
          ForUnion(xd, InputBag(dictName(inp, path :+ a), BagTpe(delem)),
            IfThenBag(Cmp("==", Proj(VarRef(xd), LabelCol), labelRef),
              phase1(body, env + (x.name -> delem), origin + (x.name -> (inp, path :+ a)), inputTpes)))

        case _ =>
          val src2 = phase1(src, env, origin, inputTpes)
          val elem = src2.asBag.elem
          ForUnion(VarDef(x.name, elem), src2,
            phase1(body, env + (x.name -> elem), origin, inputTpes))
      }

    case VarRef(n, t) => VarRef(n, env.getOrElse(n, t))

    case Let(x, v, b) =>
      val v2 = phase1(v, env, origin, inputTpes)
      Let(VarDef(x.name, v2.tpe), v2, phase1(b, env + (x.name -> v2.tpe), origin, inputTpes))

    case InputBag(n, t @ BagTpe(elem)) if elem.bagAttrs.nonEmpty =>
      InputBag(topName(n), BagTpe(flatElem(elem)))

    case _ => mapChildren(e, phase1(_, env, origin, inputTpes))
  }

  // ------------------------------------------------------------- phase 2

  /** Emit the assignment for one output level and recurse into its (bag-
    * valued) head attributes, parent before children.
    */
  private def emitLevels(qname: String, asgName: String, e: Expr,
                         path: Seq[String],
                         buf: scala.collection.mutable.Builder[Assignment, Vector[Assignment]]): Unit = {
    val head = findHead(e)
    val bagFields = head.fields.toSeq.collect { case (n, ex) if ex.tpe.isInstanceOf[BagTpe] => n -> ex }

    if (bagFields.isEmpty) { buf += Assignment(asgName, e); return }

    // Plan each nested attribute: parent label expression + child dictionary.
    final case class Child(attr: String, dictAsg: String, expr: Expr,
                           domain: Option[Assignment])
    var parentLabels = Map.empty[String, Expr]
    val childSpecs = bagFields.map { case (b, sub) =>
      val captured = capturedRefs(sub)
      if (captured.isEmpty)
        throw ShredError(s"nested attribute $b captures no outer attributes; cannot label")
      val boundIn = boundVars(sub)
      val eqs = equalities(sub)
      val subs: Seq[Option[(String, String, Expr)]] = captured.map { case (v, a, _) =>
        eqs.collectFirst {
          case Cmp("==", Proj(VarRef(`v`, _), `a`), r @ Proj(VarRef(y, _), _)) if boundIn(y) => (v, a, r)
          case Cmp("==", l @ Proj(VarRef(y, _), _), Proj(VarRef(`v`, _), `a`)) if boundIn(y) => (v, a, l)
        }
      }
      if (captured.size == 1 && subs.forall(_.isDefined)) {
        // Domain elimination (§4.4): with a single captured attribute equated
        // inside `sub`, the dictionary materializes from sub's own
        // generators. (With several captured attributes the equalities
        // resolve through *different* generators, which would cross-product
        // their contexts — handled by the domain path below instead.)
        val resolved = subs.map(_.get)
        val sub2 = resolved.foldLeft(sub) { case (acc, (v, a, repl)) => projSubst(acc, v, a, repl) }
        val childLabel = resolved.head._3
        val (v, a, t) = captured.head
        parentLabels += b -> Proj(VarRef(v, t), a)
        Child(b, dictName(qname, path :+ b), addLabel(sub2, childLabel), None)
      } else if (capturedBoundIn(e, captured)) {
        // Label-domain materialization (Fig. 5): the label domain is the
        // dedup of the captured tuples over the parent's own generator chain
        // (so several captured attributes stay *correlated*); the dictionary
        // evaluates `sub` once per domain tuple. Labels hash all components,
        // identically on both sides, so a NULL component still gives a label
        // the unshredding join matches.
        parentLabels += b -> NewLabelE(captured.map { case (v, a, t) => Proj(VarRef(v, t), a) })
        val ctxFields = captured.map { case (v, a, t) => s"${v}__$a" -> (Proj(VarRef(v, t), a): Expr) }
        val domName = s"${dictName(qname, path :+ b)}__dom"
        val domain = Assignment(domName,
          DedupE(replaceHead(e, Tup(ListMap(ctxFields: _*)))))
        val domElem = TupleTpe(ListMap(ctxFields.map { case (n, ex) => n -> ex.tpe }: _*))
        val cv = VarDef("__c_" + b, domElem)
        val sub2 = captured.foldLeft(sub) { case (acc, (v, a, _)) =>
          projSubst(acc, v, a, Proj(VarRef(cv), s"${v}__$a"))
        }
        val childLabel = NewLabelE(captured.map { case (v, a, _) => Proj(VarRef(cv), s"${v}__$a") })
        // A sumBy wrapper hoists above the domain loop: the label grouping
        // key determines the domain tuple, so per-domain and global grouping
        // coincide (and the unnester compiles the comprehension body).
        val childExpr = sub2 match {
          case SumByE(inner, keys, vals) =>
            SumByE(ForUnion(cv, InputBag(domName, BagTpe(domElem)), addLabel(inner, childLabel)),
              LabelCol +: keys, vals)
          case comp =>
            ForUnion(cv, InputBag(domName, BagTpe(domElem)), addLabel(comp, childLabel))
        }
        Child(b, dictName(qname, path :+ b), childExpr, Some(domain))
      } else
        throw ShredError(
          s"nested attribute $b captures ${captured.map(c => s"${c._1}.${c._2}")}, " +
          "not all bound by its level's generators; unsupported")
    }

    // Parent assignment: bag attributes become labels.
    val parentExpr = replaceHead(e, Tup(ListMap(head.fields.toSeq.map {
      case (n, ex) if ex.tpe.isInstanceOf[BagTpe] => n -> parentLabels(n)
      case (n, ex)                                => n -> ex
    }: _*)))
    buf += Assignment(asgName, parentExpr)

    childSpecs.foreach { c =>
      c.domain.foreach(buf += _)
      emitLevels(qname, c.dictAsg, c.expr, path :+ c.attr, buf)
    }
  }

  /** Walk the `for`/`if` spine to the head tuple. */
  private def findHead(e: Expr): Tup = e match {
    case ForUnion(_, _, b) => findHead(b)
    case IfThenBag(_, b)   => findHead(b)
    case Sng(t: Tup)       => t
    case SumByE(inner, _, _) => findHead(inner)
    case other => throw ShredError(s"cannot locate comprehension head in: $other")
  }

  /** Rebuild `e` with a new head tuple (shapes mirrored from [[findHead]]).
    * For `sumBy`, label attributes added to the head join the grouping key.
    */
  private def replaceHead(e: Expr, h: Tup): Expr = e match {
    case ForUnion(x, s, b) => ForUnion(x, s, replaceHead(b, h))
    case IfThenBag(c, b)   => IfThenBag(c, replaceHead(b, h))
    case Sng(_: Tup)       => Sng(h)
    case SumByE(inner, keys, vals) =>
      val extra = h.fields.keys.filterNot(k => keys.contains(k) || vals.contains(k)).toSeq
      SumByE(replaceHead(inner, h), keys ++ extra.filterNot(vals.contains), vals)
    case other => throw ShredError(s"replaceHead on $other")
  }

  /** Prepend `label := l` to the head of `e`; for `sumBy`, `label` joins the
    * grouping attributes (the localized-aggregation form of §4.6).
    */
  private def addLabel(e: Expr, l: Expr): Expr = e match {
    case ForUnion(x, s, b) => ForUnion(x, s, addLabel(b, l))
    case IfThenBag(c, b)   => IfThenBag(c, addLabel(b, l))
    case Sng(t: Tup)       => Sng(Tup(ListMap((LabelCol -> l) +: t.fields.toSeq: _*)))
    case SumByE(inner, keys, vals) => SumByE(addLabel(inner, l), LabelCol +: keys, vals)
    case other => throw ShredError(s"addLabel on $other")
  }

  /** Projections `v.a` in `sub` whose variable is bound outside `sub`, in
    * first-occurrence order — the attributes a `NewLabel` must capture.
    */
  private def capturedRefs(sub: Expr): Seq[(String, String, Tpe)] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[(String, String, Tpe)]
    def walk(e: Expr, bound: Set[String]): Unit = e match {
      case Proj(VarRef(v, t), a) if !bound(v) => out += ((v, a, t))
      case ForUnion(x, s, b) => walk(s, bound); walk(b, bound + x.name)
      case Let(x, v, b)      => walk(v, bound); walk(b, bound + x.name)
      case _ => children(e).foreach(walk(_, bound))
    }
    walk(sub, Set.empty)
    out.toSeq
  }

  /** Variables bound on the generator spine of `e` (not inside head
    * subexpressions) — the vars a label-domain over `e`'s chain can supply.
    */
  private def spineVars(e: Expr): Set[String] = e match {
    case ForUnion(x, _, b) => spineVars(b) + x.name
    case IfThenBag(_, b)   => spineVars(b)
    case _                 => Set.empty
  }

  private def capturedBoundIn(e: Expr, captured: Seq[(String, String, Tpe)]): Boolean = {
    val sv = spineVars(e)
    captured.forall { case (v, _, _) => sv(v) }
  }

  private def boundVars(e: Expr): Set[String] = e match {
    case ForUnion(x, s, b) => boundVars(s) ++ boundVars(b) + x.name
    case Let(x, v, b)      => boundVars(v) ++ boundVars(b) + x.name
    case _ => children(e).flatMap(boundVars).toSet
  }

  /** All equality conjuncts anywhere in `e`. */
  private def equalities(e: Expr): Seq[Expr] = {
    val out = Vector.newBuilder[Expr]
    def walk(x: Expr): Unit = x match {
      case c @ Cmp("==", _, _) => out += c
      case _ => children(x).foreach(walk)
    }
    walk(e)
    out.result()
  }

  /** Replace every `Proj(v, a)` by `repl`. */
  private def projSubst(e: Expr, v: String, a: String, repl: Expr): Expr = e match {
    case Proj(VarRef(`v`, _), `a`) => repl
    case _ => mapChildren(e, projSubst(_, v, a, repl))
  }
}
