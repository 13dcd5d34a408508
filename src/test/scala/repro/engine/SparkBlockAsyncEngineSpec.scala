package repro.engine

import repro.SparkSpec
import repro.core.GoGraph
import repro.eval.Eval
import repro.graph.{DiGraph, GraphGen}
import repro.order.{DefaultOrder, VertexOrder}

class SparkBlockAsyncEngineSpec extends SparkSpec {

  private val fig2: DiGraph =
    DiGraph.fromEdges(5, Seq((0, 1, 1.0), (0, 4, 4.0), (1, 4, 1.0), (4, 2, 1.0), (4, 3, 1.0)))

  test("numBlocks=1 reproduces the sequential async engine exactly (Fig 2c)") {
    val o = DefaultOrder.order(fig2)
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 1)
    assert(res.rounds == 3)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
  }

  test("numBlocks=1 with the reordered Fig 2d order takes 2 supersteps") {
    val o = VertexOrder.fromOrder(Array(0, 1, 4, 2, 3))
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 1)
    assert(res.rounds == 2)
  }

  test("numBlocks=|V| reproduces the synchronous engine (Fig 2b: 4 rounds)") {
    val o = DefaultOrder.order(fig2)
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 5)
    assert(res.rounds == 4)
  }

  test("SSSP rounds on Fig 2 match the sequential sync engine (4)") {
    val o   = VertexOrder.fromOrder(Array(4, 3, 2, 1, 0)) // Jacobi: the order must not matter
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, o, source = 0, numBlocks = 5)
    assert(res.converged)
    assert(res.rounds == 4 && res.rounds == SeqEngine.sync(fig2, SSSP, 0).rounds)
  }

  test("SSSP states on Fig 2 match the sequential engine") {
    val res = SparkBlockAsyncEngine.run(spark, fig2, SSSP, DefaultOrder.order(fig2), source = 0, numBlocks = 5)
    assert(res.states.toSeq == Seq(0.0, 1.0, 3.0, 3.0, 2.0))
    assert(res.states.toSeq == SeqEngine.sync(fig2, SSSP, 0).states.toSeq)
  }

  test("unreachable vertices keep infinite distance") {
    val g = DiGraph.unweighted(4, Seq((0, 1), (2, 3))) // 2,3 unreachable from 0
    Seq(1, 4).foreach { nb =>
      val st = SparkBlockAsyncEngine.run(spark, g, SSSP, DefaultOrder.order(g), source = 0, numBlocks = nb).states
      assert(st(2).isPosInfinity && st(3).isPosInfinity, s"$nb blocks: ${st.toSeq}")
    }
  }

  test("PageRank identities: 1 block = async rounds, |V| blocks = sync rounds") {
    val g = GraphGen.rmat(60, 400, seed = 100)
    val o = DefaultOrder.order(g)
    val asyncRef = SeqEngine.async(g, PageRank, o)
    val syncRef  = SeqEngine.sync(g, PageRank)
    val one = SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 1)
    val all = SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = 60)
    assert(one.rounds == asyncRef.rounds, s"1-block ${one.rounds} vs async ${asyncRef.rounds}")
    assert(all.rounds == syncRef.rounds, s"V-block ${all.rounds} vs sync ${syncRef.rounds}")
  }

  /** 24 vertices: an R-MAT component on 0..15 threaded by the path
    * 0→1→…→15 (long enough that async and sync rounds differ for every
    * program), a second component on 16..22 and the isolated vertex 23.
    */
  private val twoParts: DiGraph = DiGraph.fromEdges(24,
    GraphGen.rmat(16, 48, seed = 100).edges ++ (0 until 15).map(v => (v, v + 1, 1.0)) ++ Seq(
    (16, 17, 3.0), (17, 18, 1.0), (18, 16, 2.0), (18, 19, 5.0),
    (19, 20, 1.0), (20, 21, 2.0), (21, 22, 4.0), (22, 19, 1.0)))

  Seq(PageRank, SSSP, BFS, CC, PHP, SSWP).foreach { prog =>
    test(s"${prog.name}: 1 block = async, |V| blocks = sync, bit-exact") {
      val g   = twoParts
      val o   = VertexOrder.fromOrder(GraphGen.randomPermutation(24, seed = 106))
      val src = if (prog.sourced) Eval.defaultSource(g) else -1
      Seq(1 -> SeqEngine.async(g, prog, o, src), 24 -> SeqEngine.sync(g, prog, src)).foreach {
        case (nb, ref) =>
          val res = SparkBlockAsyncEngine.run(spark, g, prog, o, src, numBlocks = nb)
          assert(ref.converged && res.converged)
          assert(res.rounds == ref.rounds, s"$nb blocks: ${res.rounds} supersteps vs ${ref.rounds} rounds")
          assert(java.util.Arrays.equals(res.states, ref.states), s"$nb blocks: states differ")
          if (prog.sourced)
            assert((16 until 24).forall(v => res.states(v) == prog.init(v, src)), "unreached vertex changed")
      }
    }
  }

  test("maxRounds = 2 stops after two supersteps, unconverged") {
    val g   = GraphGen.rmat(50, 300, seed = 94)
    val res = SparkBlockAsyncEngine.run(spark, g, PageRank, DefaultOrder.order(g), numBlocks = 4, maxRounds = 2)
    assert(res.rounds == 2 && !res.converged)
  }

  test("intermediate block counts land between async and sync rounds") {
    val g = GraphGen.datasetSmall("CP")
    val o = DefaultOrder.order(g)
    val src = (0 until g.numVertices).maxBy(g.outDegree)
    val asyncR = SeqEngine.async(g, SSSP, o, src).rounds
    val syncR  = SeqEngine.sync(g, SSSP, src).rounds
    val midR   = SparkBlockAsyncEngine.run(spark, g, SSSP, o, src, numBlocks = 4).rounds
    assert(midR >= asyncR && midR <= syncR, s"async=$asyncR mid=$midR sync=$syncR")
  }

  test("states converge to the sync fixed point regardless of block count") {
    val g = GraphGen.rmat(80, 600, seed = 101)
    val o = DefaultOrder.order(g)
    val ref = SeqEngine.sync(g, PageRank).states
    Seq(1, 3, 8).foreach { nb =>
      val res = SparkBlockAsyncEngine.run(spark, g, PageRank, o, numBlocks = nb)
      res.states.zip(ref).foreach { case (a, b) =>
        assert(math.abs(a - b) < 1e-4, s"blocks=$nb: $a vs $b")
      }
    }
  }

  test("GoGraph order needs no more supersteps than Default at fixed block count (repro hint)") {
    val g = GraphGen.datasetSmall("CP")
    val src = (0 until g.numVertices).maxBy(g.outDegree)
    val defR = SparkBlockAsyncEngine.run(spark, g, SSSP, DefaultOrder.order(g), src, numBlocks = 4).rounds
    val goR  = SparkBlockAsyncEngine.run(spark, g, SSSP, GoGraph.order(g), src, numBlocks = 4).rounds
    assert(goR <= defR, s"GoGraph $goR supersteps vs Default $defR")
  }

  test("CC over blocks matches union-find components") {
    val g = DiGraph.unweighted(12, Seq((0, 1), (1, 2), (3, 4), (6, 7), (7, 8), (10, 11)))
    val res = SparkBlockAsyncEngine.run(spark, g, CC, DefaultOrder.order(g), numBlocks = 3)
    assert(res.states.toSeq == References.components(g).toSeq)
  }

  test("block construction covers every vertex exactly once") {
    val g = GraphGen.rmat(50, 300, seed = 102)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(50, seed = 103))
    val (ds, _) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, 7)
    val vids = ds.collect().flatMap(_.vids)
    assert(vids.sorted.toSeq == (0 until 50))
    ds.unpersist()
  }

  test("blocks respect contiguous ordinal ranges") {
    val g = GraphGen.rmat(40, 200, seed = 104)
    val o = VertexOrder.fromOrder(GraphGen.randomPermutation(40, seed = 105))
    val (ds, _) = SparkBlockAsyncEngine.blocks(spark, g, PageRank, o, 4)
    ds.collect().foreach { b =>
      val positions = b.vids.map(o.pos(_))
      assert(positions.toSeq == positions.sorted.toSeq, "in-block order must follow ordinals")
      assert(positions.max - positions.min == positions.length - 1, "ordinals must be contiguous")
    }
    ds.unpersist()
  }
}
