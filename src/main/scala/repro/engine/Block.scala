package repro.engine

import repro.graph.DiGraph

/** Vertices in processing order with their in-adjacency in CSR form
  * (`off`/`adj`/`wgt` aligned with `vids`). [[sweep]] is the one vertex
  * update loop of every engine: [[SeqEngine]] sweeps a single block of all
  * vertices, [[SparkBlockAsyncEngine]] one block per Spark task.
  */
final case class Block(
    bid: Int,
    vids: Array[Int],
    off: Array[Int],
    adj: Array[Int],
    wgt: Array[Double],
) {

  /** One pass of F over `vids` in order. Vertex v folds its in-neighbors'
    * states from `read` and stores its new state in `write`, so
    *   - `write eq read` reads current-round states of vertices already
    *     swept (Gauss–Seidel, Eq. 2);
    *   - a separate `write` reads only previous-round states (Jacobi, Eq. 1).
    * Returns the max |Δx|; ∞ − ∞ (unchanged) is NaN and never raises it.
    */
  def sweep(prog: VertexProgram, source: Int, outDeg: Array[Int],
            read: Array[Double], write: Array[Double]): Double = {
    var maxDelta = 0.0
    var i = 0
    while (i < vids.length) {
      val v   = vids(i)
      var acc = prog.identity
      var j   = off(i)
      while (j < off(i + 1)) {
        val u = adj(j)
        acc = prog.gather(acc, read(u), wgt(j), outDeg(u))
        j += 1
      }
      val old = read(v)
      val nx  = prog.apply(v, old, acc, source)
      val d   = math.abs(nx - old)
      if (d > maxDelta) maxDelta = d
      write(v) = nx
      i += 1
    }
    maxDelta
  }
}

object Block {

  /** Block `bid` over `vids`, with their in-edges gathered from `g`. */
  def of(bid: Int, g: DiGraph, vids: Array[Int]): Block = {
    val off = new Array[Int](vids.length + 1)
    var i = 0
    while (i < vids.length) { off(i + 1) = off(i) + g.inDegree(vids(i)); i += 1 }
    val adj = new Array[Int](off(vids.length))
    val wgt = new Array[Double](off(vids.length))
    i = 0
    while (i < vids.length) {
      val v   = vids(i)
      val inN = g.inNeighbors(v)
      var j = 0
      while (j < inN.length) {
        adj(off(i) + j) = inN(j)
        wgt(off(i) + j) = g.inWeight(v, j)
        j += 1
      }
      i += 1
    }
    Block(bid, vids, off, adj, wgt)
  }
}
