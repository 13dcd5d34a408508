package repro.core

import scala.collection.mutable
import repro.graph.DiGraph
import repro.order.{Reorder, VertexOrder}
import repro.partition.{Partitioner, RabbitPartition}

/** Configuration for [[GoGraphReorder]].
  *
  * @param hdFraction   fraction of vertices extracted as high-degree
  *                     (paper's rule of thumb: top 0.2%)
  * @param partitioner  divide-phase method (paper default: Rabbit-Partition)
  * @param targetPartSize advisory subgraph size handed to balanced
  *                     partitioners that need an explicit k
  */
final case class GoGraphConfig(
    hdFraction: Double = 0.002,
    partitioner: Partitioner = RabbitPartition,
    targetPartSize: Int = 1024,
)

/** GoGraph (the paper's contribution, Algorithm 1).
  *
  * Divide: extract the top `hdFraction` high-degree vertices and their edges;
  * vertices left with no remaining edges become isolated; the rest is split
  * into subgraphs by `partitioner`. Conquer: vertices inside each subgraph
  * are greedily inserted (BFS from the minimum-in-degree seed) at the
  * position maximizing the positive-edge count ([[ValInserter]]). Combine:
  * subgraphs become super-vertices whose edge weights are inter-subgraph
  * edge counts, ordered with the same insertion procedure; the super order is
  * spliced, then high-degree and finally isolated vertices are inserted into
  * the global order, again maximizing M(·).
  */
class GoGraphReorder(cfg: GoGraphConfig = GoGraphConfig()) extends Reorder {
  val name = "GoGraph"

  def order(g: DiGraph): VertexOrder = {
    val n = g.numVertices
    if (n == 0) return VertexOrder.identity(0)

    // ---- Divide: extract high-degree vertices ----
    val hdCount = math.min(n, math.max(1, math.round(n * cfg.hdFraction).toInt))
    val byDeg   = Array.tabulate(n)(identity).sortBy(v => (-g.degree(v), v))
    val isHd    = new Array[Boolean](n)
    // only vertices that actually have edges qualify as "high-degree"
    byDeg.take(hdCount).foreach(v => if (g.degree(v) > 0) isHd(v) = true)

    // residual degree after removing HD vertices and their edges
    val residDeg = new Array[Int](n)
    g.foreachEdge { (u, v, _) =>
      if (!isHd(u) && !isHd(v)) { residDeg(u) += 1; residDeg(v) += 1 }
    }
    val isIso = Array.tabulate(n)(v => !isHd(v) && residDeg(v) == 0)

    val rest = (0 until n).filter(v => !isHd(v) && !isIso(v)).toArray

    // ---- Divide: split the remaining graph G' into subgraphs ----
    val local  = new Array[Int](n) // global -> local id within G'
    rest.zipWithIndex.foreach { case (v, i) => local(v) = i }
    val gEdges = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    g.foreachEdge { (u, v, w) =>
      if (!isHd(u) && !isIso(u) && !isHd(v) && !isIso(v)) gEdges += ((local(u), local(v), w))
    }
    val gPrime = DiGraph.fromEdges(rest.length, gEdges.toSeq)
    val k      = math.max(1, (rest.length + cfg.targetPartSize - 1) / cfg.targetPartSize)
    val labels = if (rest.isEmpty) Array.empty[Int] else cfg.partitioner.partition(gPrime, k)
    val numSub = if (rest.isEmpty) 0 else labels.max + 1

    // bucket G' by label in one pass; ids within a subgraph rise with G' ids,
    // which keeps ValInserter's (val, id) tie-break
    val members = Array.fill(numSub)(mutable.ArrayBuffer.empty[Int])
    val idInSub = new Array[Int](rest.length)
    labels.indices.foreach { v => idInSub(v) = members(labels(v)).length; members(labels(v)) += v }
    // unit-weight edges inside each subgraph; edge counts w(si -> sj) between them
    val subEdges = Array.fill(numSub)(mutable.ArrayBuffer.empty[(Int, Int, Double)])
    val w        = mutable.HashMap.empty[(Int, Int), Double]
    gPrime.foreachEdge { (u, v, _) =>
      val (su, sv) = (labels(u), labels(v))
      if (su == sv) subEdges(su) += ((idInSub(u), idInSub(v), 1.0))
      else w.update((su, sv), w.getOrElse((su, sv), 0.0) + 1.0)
    }

    // ---- Conquer: order vertices within each subgraph (G' ids, in order) ----
    val subOrders = Array.tabulate(numSub) { s =>
      greedyOrder(DiGraph.fromEdges(members(s).length, subEdges(s).toSeq)).map(members(s))
    }

    // ---- Combine: order subgraphs as weighted super-vertices ----
    val superOrder =
      greedyOrder(DiGraph.fromEdges(numSub, w.toSeq.map { case ((si, sj), c) => (si, sj, c) }))

    // splice: subgraph orders concatenated in super-vertex order
    // (Algorithm 1 lines 21–29: adding the previous subgraph's max val is
    // exactly concatenation once vals are normalized to ranks)
    val ins = new ValInserter(n)
    superOrder.foreach(s => ins.seed(subOrders(s).iterator.map(rest(_))))

    // ---- Insert high-degree (descending degree), then isolated vertices
    // (lines 30–35), each by its placed neighbors in g at unit weight ----
    (byDeg.filter(isHd(_)) ++ (0 until n).filter(isIso(_)))
      .foreach(v => insertByPlaced(g, ins, v, unit = true))

    VertexOrder.fromOrder(ins.result())
  }

  /** Insert `v` by its placed in- and out-neighbors in `h`, one entry per
    * edge, weighted by the edge's weight (or by 1 when `unit`).
    */
  private def insertByPlaced(h: DiGraph, ins: ValInserter, v: Int, unit: Boolean): Unit = {
    def collect(ns: IndexedSeq[Int], weight: Int => Double): Seq[(Int, Double)] = {
      val b = Seq.newBuilder[(Int, Double)]
      var i = 0
      while (i < ns.length) {
        val u = ns(i)
        if (ins.placed(u)) b += ((u, if (unit) 1.0 else weight(i)))
        i += 1
      }
      b.result()
    }
    ins.insert(v,
      collect(h.inNeighbors(v), h.inWeight(v, _)), collect(h.outNeighbors(v), h.outWeight(v, _)))
  }

  /** Algorithm 1's insertion procedure, the same on every level: a BFS
    * candidate stream (out-, then in-neighbors) from seeds sorted by
    * (weighted in-degree, id), each vertex inserted at the position
    * maximizing the weight of its positive edges to placed neighbors.
    * Returns the vertices of `h` in order.
    */
  private def greedyOrder(h: DiGraph): Array[Int] = {
    val n      = h.numVertices
    val ins    = new ValInserter(n)
    val wInDeg = Array.tabulate(n)(v => (0 until h.inDegree(v)).map(h.inWeight(v, _)).sum)
    val visited = new Array[Boolean](n)
    val queue   = new Array[Int](n) // every vertex is enqueued once
    var head    = 0; var tail = 0
    def enqueue(u: Int): Unit = if (!visited(u)) { visited(u) = true; queue(tail) = u; tail += 1 }

    Array.tabulate(n)(identity).sortBy(v => (wInDeg(v), v)).foreach { seed =>
      enqueue(seed)
      while (head < tail) {
        val v = queue(head); head += 1
        insertByPlaced(h, ins, v, unit = false)
        h.outNeighbors(v).foreach(enqueue)
        h.inNeighbors(v).foreach(enqueue)
      }
    }
    ins.result()
  }
}

/** Default-configuration GoGraph (top 0.2% HD, Rabbit-Partition divide). */
object GoGraph extends GoGraphReorder(GoGraphConfig())
