package perfbench

import org.apache.spark.sql.SparkSession
import repro.cache.CacheSim
import repro.core.{GoGraph, GoGraphConfig}
import repro.engine._
import repro.eval.{Eval, Orders}
import repro.graph.{DiGraph, GraphGen}
import repro.order._
import repro.partition.{Partitioner, RabbitPartition}
import scala.collection.mutable

/** A workload's generated input: the edge list `DiGraph.fromEdges` takes,
  * and the sources of its sourced runs (vertex ids of the input graph).
  */
final case class Input(n: Int, edges: Seq[(Int, Int, Double)], sources: Seq[Int]) {
  /** The default order, also the processing order on a relabeled graph. */
  val identity: VertexOrder = VertexOrder.identity(n)
}

/** State of one pass over a workload's pipeline: its timings (in the probe),
  * exact counts, and the fingerprint that must repeat on every pass.
  */
/** `warm` marks a warm-up pass: it repeats no runs, and its block-engine runs
  * stop after a few supersteps (a superstep costs about the same on any graph
  * here, so a shorter warm-up needs fewer supersteps, not a smaller graph).
  */
final class Ctx(val p: Probe, val checks: Checks, val spark: Option[(SparkSession, SparkTap)],
                val seed: Int, val warm: Boolean = false) {
  val counts      = mutable.LinkedHashMap.empty[String, Double]
  val fingerprint = mutable.LinkedHashMap.empty[String, String]
  /** Orders computed in this pass, checked and hashed after the timed spans. */
  val orders      = mutable.LinkedHashMap.empty[String, VertexOrder]
  /** Durations of the Spark jobs of this pass's block-engine runs. */
  val jobMs       = mutable.ArrayBuffer.empty[Double]
  /** Heap in use after a full collection, taken while the pass holds its
    * input, both graphs, the order and the run states.
    */
  var liveHeapMb  = 0.0
  /** GC and JIT activity during `bench.total` and the first `bench.baseline`. */
  var jvm         = JvmStats(0, 0, 0)
  def add(k: String, v: Double): Unit = counts(k) = counts.getOrElse(k, 0.0) + v
  def count(k: String): Double        = counts.getOrElse(k, 0.0)
}

/** One operation is one reorder or one engine run; it fails if any of its
  * conditions does not hold.
  */
final class Checks {
  var attempted = 0L
  var failed    = 0L
  val failures  = mutable.ArrayBuffer.empty[String]

  def op(what: String)(conds: (Boolean, String)*): Unit = {
    attempted += 1
    val bad = conds.collect { case (false, why) => why }
    if (bad.nonEmpty) {
      failed += 1
      if (failures.size < 50) failures += s"$what: ${bad.mkString("; ")}"
    }
  }
}

/** A named workload of the benchmark. One pass is
  *
  *   bench.total    { bench.prep { build, reorders, M(·), relabel }, bench.run { GoGraph-order runs } }
  *   [[prepsBetween]] × bench.prep
  *   bench.baseline { the same runs in the default order }
  *   [[prepsBetween]] × bench.prep
  *
  * then [[reps]] − 1 more (run, baseline) pairs, and the workload's own
  * extra runs and checks. `total_s` is the median `bench.prep` of the pass
  * plus its median run.
  */
trait Workload {
  def name: String
  def usesSpark: Boolean = false

  /** (run, baseline) pairs per pass; more where a single run is short and noisy. */
  def reps: Int = 1

  /** Extra `bench.prep` calls made after `bench.total` and again after
    * `bench.baseline`. The host's speed drifts over seconds, so reorder
    * times sampled across the whole pass repeat better than back-to-back ones.
    */
  def prepsBetween: Int = 0

  /** `bench.prep` calls after the warm-up pass: GoGraph's code is still
    * being compiled over its first few calls.
    */
  def warmPreps: Int = 8

  /** Generates the input from the workload seed (seed 0 gives the repo's
    * anchors); `smoke` gives the `GraphGen.datasetSmall` analogue instead.
    */
  def input(seed: Int, smoke: Boolean): Input

  def prepare(c: Ctx, in: Input): Pipeline.Prepared = Pipeline.prepare(c, in)

  /** The workload's runs in GoGraph order, on the relabeled graph. */
  def runs(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult]

  /** The same runs in the default order. */
  def baseline(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult]

  /** Checks and counts after the timed spans; may make further runs. */
  def finish(c: Ctx, in: Input, pr: Pipeline.Prepared, go: Seq[RunResult], dflt: Seq[RunResult]): Unit

  final def pass(in: Input, c: Ctx): Pipeline.Prepared = {
    var pr: Pipeline.Prepared = null
    var go: Seq[RunResult] = Nil
    // warm-up and traced passes make each call once
    val repeat = !c.warm && !c.p.tracing
    // timed passes move each single-threaded call to the next CPU (Spark's
    // runs use all of them)
    def onCpu[T](single: Boolean)(body: => T): T = if (repeat && single) Affinity.rotate(body) else body
    def prep(): Pipeline.Prepared = onCpu(true)(c.p("bench.prep")(prepare(c, in)))
    def run(): Seq[RunResult] = onCpu(!usesSpark)(c.p("bench.run")(runs(c, in, pr)))
    def base(): Seq[RunResult] = onCpu(!usesSpark)(c.p("bench.baseline")(baseline(c, in, pr)))
    def morePreps(): Unit = for (i <- 1 to (if (repeat) prepsBetween else 0)) {
      if (i == 1) settle()
      val again = prep()
      c.checks.op("repeated reorders give the same order")(
        (again.o.order.sameElements(pr.o.order), "GoGraph order differs between repetitions"))
    }
    val jvm0 = JvmStats.now()
    c.p("bench.total") {
      pr = prep()
      go = run()
    }
    val jvm1 = JvmStats.now()
    morePreps()
    val jvm2 = JvmStats.now()
    val dflt = base()
    c.jvm = jvm1.minus(jvm0).plus(JvmStats.now().minus(jvm2))
    c.liveHeapMb = Heap.liveMb()
    morePreps()
    for (_ <- 2 to (if (repeat) reps else 1)) {
      val again = run() ++ base()
      c.checks.op("repeated runs give the same rounds")(
        (again.map(_.rounds) == (go ++ dflt).map(_.rounds), "rounds differ between repetitions"))
    }
    c.orders.foreach { case (m, o) =>
      c.fingerprint(s"order.$m") = Fingerprint.ints(o.order)
      val mo = c.count(s"order.m.$m")
      val theorem2 = m != "GoGraph" || 2 * mo >= pr.g.numEdges
      c.checks.op(s"reorder $m")(Pipeline.isPermutation(o),
        (theorem2, s"Theorem 2 broken: M=$mo < |E|/2=${pr.g.numEdges / 2.0}"))
    }
    finish(c, in, pr, go, dflt)
    c.add("rounds", go.map(_.rounds).sum)
    c.add("baseline_rounds", dflt.map(_.rounds).sum)
    c.add("runs", go.size)
    pr
  }

  /** Collects the heap and, on Spark workloads, waits for Spark's cleaner to
    * drop what the collection freed, so timed calls do not share the host
    * with either.
    */
  def settle(): Unit = {
    Heap.liveMb()
    if (usesSpark) Thread.sleep(1000)
  }

  /** Runs the workload's program mix before the timed passes, so they meet
    * the call-site profile of this workload alone, with its code compiled:
    * one pass on the workload's own input, then [[warmPreps]] more preps.
    */
  def warmUp(in: Input, c: Ctx): Unit = {
    pass(in, c)
    for (_ <- 1 to warmPreps) prepare(c, in)
  }

  /** Layer calls made only in the traced run (they are not part of the pipeline). */
  def extras(c: Ctx, pr: Pipeline.Prepared): Unit = Pipeline.extras(c, pr)
}

object Workloads {
  val all: Seq[Workload] = Seq(QueriesLj, BlocksCp, Table2Cp)
  def byName(n: String): Option[Workload] = all.find(_.name == n)
}

/** Layer calls and checks the workloads share. */
object Pipeline {

  /** Result of build → GoGraph → M(·) → relabel. */
  final case class Prepared(in: Input, g: DiGraph, o: VertexOrder, g2: DiGraph) {
    def id: VertexOrder = in.identity
    def goSource(s: Int): Int = if (s < 0) -1 else o.pos(s)
  }

  def input(g: DiGraph, sources: Seq[Int]): Input = Input(g.numVertices, g.edges, sources)

  def build(c: Ctx, in: Input): DiGraph = {
    val g = c.p("graph.build")(DiGraph.fromEdges(in.n, in.edges))
    c.counts("graph.edges") = g.numEdges.toDouble
    g
  }

  def gograph(c: Ctx, g: DiGraph): VertexOrder = metric(c, "GoGraph", g, c.p("core.gograph")(GoGraph.order(g)))

  /** Records the order and its M(·); [[Workload.pass]] checks both after the timed spans. */
  def metric(c: Ctx, method: String, g: DiGraph, o: VertexOrder): VertexOrder = {
    val m = c.p("order.metric")(Metric.positiveEdges(g, o))
    c.counts(s"order.m.$method") = m.toDouble
    c.fingerprint(s"M.$method") = m.toString
    c.orders(method) = o
    o
  }

  def prepare(c: Ctx, in: Input): Prepared = {
    val g  = build(c, in)
    val o  = gograph(c, g)
    Prepared(in, g, o, c.p("graph.relabel")(g.relabel(o.pos)))
  }

  def isPermutation(o: VertexOrder): (Boolean, String) = {
    val seen = new Array[Boolean](o.n)
    var ok   = o.pos.length == o.n
    var p    = 0
    while (ok && p < o.n) {
      val v = o.order(p)
      ok = v >= 0 && v < o.n && !seen(v) && o.pos(v) == p
      if (ok) seen(v) = true
      p += 1
    }
    (ok, "order is not a permutation")
  }

  /** The states of a run on the relabeled graph, mapped back through `pos`,
    * against the default-order states: exact for min-plus programs, else
    * within the distance two runs stopped at `tol` can be apart.
    */
  def sameFixedPoint(prog: VertexProgram, pr: Prepared, go: RunResult, dflt: RunResult): (Boolean, String) = {
    val limit = FixedPoint.limit(prog)
    var worst = 0.0
    var v     = 0
    while (v < dflt.states.length) {
      val a = go.states(pr.o.pos(v)); val b = dflt.states(v)
      val d = if (a == b) 0.0 else math.abs(a - b)
      if (!(d <= worst)) worst = d
      v += 1
    }
    (worst <= limit, s"${prog.name} fixed points differ by $worst > $limit")
  }

  /** `SeqEngine.async`, timed and checked for convergence. */
  def async(c: Ctx, g: DiGraph, prog: VertexProgram, o: VertexOrder, src: Int): RunResult = {
    val r = c.p("engine.seq.async")(SeqEngine.async(g, prog, o, src))
    seqCounts(c, g, r)
    r
  }

  def sync(c: Ctx, g: DiGraph, prog: VertexProgram, src: Int): RunResult = {
    val r = c.p("engine.seq.sync")(SeqEngine.sync(g, prog, src))
    seqCounts(c, g, r)
    r
  }

  private def seqCounts(c: Ctx, g: DiGraph, r: RunResult): Unit = {
    c.add("engine.seq.rounds", r.rounds)
    c.add("engine.seq.edge_rounds", r.rounds.toDouble * g.numEdges)
    c.add("engine.seq.vertex_rounds", r.rounds.toDouble * g.numVertices)
  }

  val numBlocks = 8

  /** `SparkBlockAsyncEngine.run` at [[numBlocks]] blocks, with the jobs the
    * listener saw as child spans of the run.
    */
  def blocks(c: Ctx, g: DiGraph, prog: VertexProgram, o: VertexOrder, src: Int): RunResult = {
    val (spark, tap) = c.spark.get
    var runSpan = -1
    val t0 = System.nanoTime()
    val r = c.p("engine.blocks.run") {
      runSpan = c.p.current
      if (c.warm) SparkBlockAsyncEngine.run(spark, g, prog, o, src, numBlocks, maxRounds = 12)
      else SparkBlockAsyncEngine.run(spark, g, prog, o, src, numBlocks)
    }
    val wall = (System.nanoTime() - t0) / 1e9
    val log  = tap.take(spark)
    log.jobs.foreach { case (s, e) =>
      c.p.external("engine.blocks.job", runSpan, s * 1000000L + c.p.clockOffsetNs, e * 1000000L + c.p.clockOffsetNs)
    }
    val jobMs = log.jobs.map { case (s, e) => (e - s).toDouble }
    c.add("engine.blocks.supersteps", r.rounds)
    c.add("engine.blocks.jobs", jobMs.size)
    c.add("engine.blocks.task_s", log.taskRunMs / 1e3)
    c.add("engine.blocks.driver_s", wall - jobMs.sum / 1e3)
    c.add("engine.blocks.sched_delay_s", log.schedDelayMs / 1e3)
    c.add("engine.blocks.result_mb", log.resultBytes / 1048576.0)
    // one state broadcast (8 B per vertex) per superstep, plus the out-degrees once
    c.add("engine.blocks.broadcast_mb_computed", (r.rounds * 8.0 + 4.0) * g.numVertices / 1048576.0)
    c.add("engine.blocks.tasks_failed", log.tasksFailed)
    c.jobMs ++= jobMs
    c.checks.op(s"blocks ${prog.name}")(
      (r.converged, s"${prog.name} did not converge in ${r.rounds} supersteps"),
      (log.tasksFailed == 0, s"${log.tasksFailed} Spark tasks failed"),
    )
    r
  }

  /** Positive edges inside one block and across blocks, for the contiguous
    * cut the block engine uses (block b holds ordinals [b·n/k, (b+1)·n/k)).
    */
  def blockPositiveEdges(g: DiGraph, o: VertexOrder, k: Int): (Long, Long) = {
    val n = g.numVertices.toLong
    def block(p: Int): Int = {
      var b = ((p.toLong * k) / math.max(1L, n)).toInt
      while (b + 1 < k && ((b + 1).toLong * n / k) <= p) b += 1
      while (b > 0 && (b.toLong * n / k) > p) b -= 1
      b
    }
    var intra = 0L; var cross = 0L
    g.foreachEdge { (u, v, _) =>
      val pu = o.pos(u); val pv = o.pos(v)
      if (pu < pv) { if (block(pu) == block(pv)) intra += 1 else cross += 1 }
    }
    (intra, cross)
  }

  /** Partitioning as in GoGraph's divide phase, and cache simulation, on the
    * traced pass's graph and order. The divide-phase input is rebuilt here
    * from GoGraph's public configuration: the graph without its top
    * `hdFraction` vertices by degree and without the vertices left isolated.
    */
  def extras(c: Ctx, pr: Prepared): Unit = {
    val g = pr.g
    val n = g.numVertices
    val cfg = GoGraphConfig()
    val hdCount = math.min(n, math.max(1, math.round(n * cfg.hdFraction).toInt))
    val isHd = new Array[Boolean](n)
    (0 until n).sortBy(v => (-g.degree(v), v)).take(hdCount).foreach(isHd(_) = true)
    val residual = new Array[Int](n)
    g.foreachEdge((u, v, _) => if (!isHd(u) && !isHd(v)) { residual(u) += 1; residual(v) += 1 })
    val local = Array.fill(n)(-1)
    var kept = 0
    (0 until n).foreach(v => if (residual(v) > 0) { local(v) = kept; kept += 1 })
    val es = Seq.newBuilder[(Int, Int, Double)]
    g.foreachEdge((u, v, w) => if (!isHd(u) && !isHd(v)) es += ((local(u), local(v), w)))
    val gPrime = DiGraph.fromEdges(kept, es.result())
    val k = math.max(1, (kept + cfg.targetPartSize - 1) / cfg.targetPartSize)
    val labels = c.p("partition.rabbit")(RabbitPartition.partition(gPrime, k))
    c.counts("partition.parts") = Partitioner.numParts(labels).toDouble
    c.counts("partition.internal_edge_ratio") =
      Partitioner.internalEdges(gPrime, labels).toDouble / math.max(1, gPrime.numEdges)

    val dflt = VertexOrder.identity(n)
    val mGo = c.p("cache.sweep")(CacheSim.sweep(g, pr.o, Eval.benchCache)).misses
    val mDf = c.p("cache.sweep")(CacheSim.sweep(g, dflt, Eval.benchCache)).misses
    c.counts("cache.misses.gograph") = mGo.toDouble
    c.counts("cache.misses.default") = mDf.toDouble
    if (!c.counts.contains("order.m.Default")) c.counts("order.m.Default") = Metric.positiveEdges(g, dflt).toDouble
    c.fingerprint("cache.misses.gograph") = mGo.toString
    c.fingerprint("cache.misses.default") = mDf.toString
  }

  /** Seeded sources among the 1% of vertices with the most out-edges, so
    * every query reaches far and the batch's work varies little with the seed.
    */
  def hubSources(g: DiGraph, count: Int, seed: Long): Seq[Int] = {
    val candidates = (0 until g.numVertices).sortBy(v => (-g.outDegree(v), v))
      .take(math.max(count, g.numVertices / 100)).toArray
    val rnd = new scala.util.Random(seed)
    (0 until math.min(count, candidates.length)).map { i =>
      val j = i + rnd.nextInt(candidates.length - i)
      val t = candidates(i); candidates(i) = candidates(j); candidates(j) = t
      candidates(i)
    }
  }
}

object FixedPoint {

  /** How far apart two runs of `prog` may end. Min-plus programs reach the
    * exact fixed point. PageRank and PHP stop once no state moves by more
    * than `tol`; with damping d the distance left to the fixed point is then
    * at most tol·d/(1−d), so two runs may be twice that apart.
    */
  def limit(prog: VertexProgram): Double = prog match {
    case p: PageRank => 2 * p.tol * p.damping / (1 - p.damping)
    case p: PHP      => 2 * p.tol * p.penalty / (1 - p.penalty)
    case other       => other.tol
  }
}

object Fingerprint {

  /** First 16 hex digits of the SHA-256 of an int array. */
  def ints(a: Array[Int]): String = {
    val buf = java.nio.ByteBuffer.allocate(a.length * 4)
    buf.asIntBuffer().put(a)
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Seeds: workload seed 0 gives the generator seeds of the repo's analogues
  * (`GraphGen.dataset`), so its counts match EXPERIMENTS.md and ROADMAP.md;
  * seed s shifts every generator seed by s.
  */
object Inputs {
  def cp(n: Int, seed: Int): DiGraph = GraphGen.citation(n, 5, seed = 55L + seed)

  def lj(n: Int, seed: Int): DiGraph =
    GraphGen.shuffleIds(GraphGen.barabasiAlbert(n, 7, seed = 66L + seed), seed = 666L + seed)
}

/** Iterate-heavy: a seeded batch of PHP and SSSP queries on the LJ analogue,
  * each in Sync+Default, Async+Default and Async+GoGraph (Fig 8's columns).
  */
object QueriesLj extends Workload {
  val name    = "queries-lj"
  val queries = 32
  private val progs = Seq(PHP, SSSP)
  override val prepsBetween = 1

  def input(seed: Int, smoke: Boolean): Input = {
    val g = Inputs.lj(if (smoke) 800 else 40000, seed)
    Pipeline.input(g, Pipeline.hubSources(g, queries, seed = 7000L + seed))
  }

  def runs(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult] =
    for (s <- in.sources; p <- progs) yield Pipeline.async(c, pr.g2, p, pr.id, pr.goSource(s))

  def baseline(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult] =
    for (s <- in.sources; p <- progs) yield Pipeline.async(c, pr.g, p, pr.id, s)

  /** (rounds, converged) of the Sync+Default runs on an input, and the
    * checks that have counted them.
    */
  private var syncOf: (Input, Seq[(Int, Boolean)]) = (null, Nil)
  private var syncCountedIn: Checks = null

  /** The Sync+Default runs are made in the first pass on an input (the
    * warm-up) and in the traced pass; the timed passes, which they would
    * lengthen by a third, check their async rounds against those rounds.
    */
  def finish(c: Ctx, in: Input, pr: Pipeline.Prepared, go: Seq[RunResult], dflt: Seq[RunResult]): Unit = {
    val fresh = c.p.tracing || !(syncOf._1 eq in)
    if (fresh) {
      val runs = c.p("bench.sync")(for (s <- in.sources; p <- progs) yield Pipeline.sync(c, pr.g, p, s))
      syncOf = (in, runs.map(r => (r.rounds, r.converged)))
    }
    val sync = syncOf._2.map(_._1)
    val cases = for (s <- in.sources; p <- progs) yield (s, p)
    cases.indices.foreach { i =>
      val (s, p) = cases(i)
      val what = s"${p.name} from $s"
      c.checks.op(s"$what Async+GoGraph")((go(i).converged, "did not converge"),
        Pipeline.sameFixedPoint(p, pr, go(i), dflt(i)),
        (go(i).rounds <= sync(i), s"async rounds ${go(i).rounds} > sync rounds ${sync(i)}"))
      c.checks.op(s"$what Async+Default")((dflt(i).converged, "did not converge"),
        (dflt(i).rounds <= sync(i), s"async rounds ${dflt(i).rounds} > sync rounds ${sync(i)}"))
      if (fresh || !(syncCountedIn eq c.checks))
        c.checks.op(s"$what Sync+Default")((syncOf._2(i)._2, "did not converge"))
    }
    syncCountedIn = c.checks
    c.add("sync_rounds", sync.sum)
    c.fingerprint("rounds") = s"${go.map(_.rounds).sum}/${dflt.map(_.rounds).sum}/${sync.sum}"
  }
}

/** The distributed path: block-async PageRank and SSSP at 8 blocks. */
object BlocksCp extends Workload {
  val name = "blocks-cp"
  override val usesSpark = true

  def input(seed: Int, smoke: Boolean): Input = {
    val g = Inputs.cp(if (smoke) 1000 else 50000, seed)
    Pipeline.input(g, Seq(Eval.defaultSource(g)))
  }

  /** The Spark runs allow one pass; one GoGraph call alone varies by a
    * quarter, so the pass samples eleven, spread over its runs.
    */
  override val prepsBetween = 5
  override val warmPreps    = 6

  def runs(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult] =
    Seq(Pipeline.blocks(c, pr.g2, PageRank, pr.id, -1), Pipeline.blocks(c, pr.g2, SSSP, pr.id, pr.goSource(in.sources.head)))

  def baseline(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult] =
    Seq(Pipeline.blocks(c, pr.g, PageRank, pr.id, -1), Pipeline.blocks(c, pr.g, SSSP, pr.id, in.sources.head))

  def finish(c: Ctx, in: Input, pr: Pipeline.Prepared, go: Seq[RunResult], dflt: Seq[RunResult]): Unit = {
    Seq(PageRank, SSSP).zipWithIndex.foreach { case (p, i) =>
      c.checks.op(s"${p.name} blocks GoGraph vs default")(Pipeline.sameFixedPoint(p, pr, go(i), dflt(i)))
    }
    val (intra, cross) = Pipeline.blockPositiveEdges(pr.g, pr.o, Pipeline.numBlocks)
    c.counts("engine.blocks.intra_pos_edges") = intra.toDouble
    c.counts("engine.blocks.cross_pos_edges") = cross.toDouble
    c.fingerprint("supersteps") = (go ++ dflt).map(_.rounds).mkString("/")
    c.fingerprint("block_pos_edges") = s"$intra/$cross"
  }

  override def extras(c: Ctx, pr: Pipeline.Prepared): Unit = {
    Pipeline.extras(c, pr)
    val (spark, _) = c.spark.get
    val (ds, _) = c.p("engine.blocks.build")(
      SparkBlockAsyncEngine.blocks(spark, pr.g2, PageRank, pr.id, Pipeline.numBlocks))
    ds.unpersist()
  }
}

/** The paper's Table II: all seven reorders, M(·) of each, and async
  * PageRank/SSSP/BFS/PHP rounds in each order.
  */
object Table2Cp extends Workload {
  val name = "table2-cp"
  override val reps = 5

  def input(seed: Int, smoke: Boolean): Input = {
    val g = Inputs.cp(if (smoke) 1000 else 50000, seed)
    Pipeline.input(g, Seq(Eval.defaultSource(g)))
  }

  private def src(p: VertexProgram, s: Int) = if (p.sourced) s else -1

  /** A full pass as warm-up did not make the timed pass steadier here; a
    * fifth of the graph compiles the same code in a third of the time.
    */
  override def warmUp(in: Input, c: Ctx): Unit = {
    val g = Inputs.cp(10000, c.seed)
    pass(Pipeline.input(g, Seq(Eval.defaultSource(g))), c)
  }

  override def prepare(c: Ctx, in: Input): Pipeline.Prepared = {
    val g = Pipeline.build(c, in)
    Orders.competitors.foreach {
      case GoGraph => Pipeline.gograph(c, g)
      case r       => Pipeline.metric(c, r.name, g, c.p(s"order.${r.name}")(r.order(g)))
    }
    val o = c.orders("GoGraph")
    Pipeline.Prepared(in, g, o, c.p("graph.relabel")(g.relabel(o.pos)))
  }

  def runs(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult] =
    Eval.algorithms.map(p => Pipeline.async(c, pr.g2, p, pr.id, src(p, pr.goSource(in.sources.head))))

  def baseline(c: Ctx, in: Input, pr: Pipeline.Prepared): Seq[RunResult] =
    Eval.algorithms.map(p => Pipeline.async(c, pr.g, p, pr.id, src(p, in.sources.head)))

  def finish(c: Ctx, in: Input, pr: Pipeline.Prepared, go: Seq[RunResult], dflt: Seq[RunResult]): Unit = {
    val others = c.orders.toSeq.filter { case (m, _) => m != "GoGraph" && m != "Default" }
    val grid = c.p("bench.grid") {
      for ((m, o) <- others; p <- Eval.algorithms) yield (m, p, Pipeline.async(c, pr.g, p, o, src(p, in.sources.head)))
    }
    Eval.algorithms.zipWithIndex.foreach { case (p, i) =>
      c.checks.op(s"${p.name} GoGraph order")((go(i).converged, "did not converge"),
        Pipeline.sameFixedPoint(p, pr, go(i), dflt(i)))
      c.checks.op(s"${p.name} default order")((dflt(i).converged, "did not converge"))
      c.fingerprint(s"rounds.${p.name}") = s"${go(i).rounds}/${dflt(i).rounds}"
    }
    grid.foreach { case (m, p, r) =>
      c.checks.op(s"${p.name} $m order")((r.converged, "did not converge"))
      c.fingerprint(s"rounds.${p.name}.$m") = r.rounds.toString
    }
  }
}
