package perfbench

import repro.eval.Orders

/** End-to-end metrics, measured with tracing off. Times are means over
  * every call of the run's timed passes, which [[Affinity]] spreads evenly
  * over the CPUs (so a mean, not a median, weighs each CPU alike); counts are
  * medians over the passes; set-up is the median of its repetitions.
  */
final case class EndToEnd(values: Map[String, Double], setupS: Double, heapPeakMb: Double) {
  def metrics: Seq[(String, Double, String)] = Seq(
    ("setup_s", setupS, "s"),
    ("total_s", values("total_s"), "s"),
    ("reorder_s", values("reorder_s"), "s"),
    ("run_s", values("run_s"), "s"),
    ("baseline_run_s", values("baseline_run_s"), "s"),
    ("rounds", values("rounds"), "count"),
    ("baseline_rounds", values("baseline_rounds"), "count"),
    ("m_ratio", values("m_ratio"), "ratio"),
    ("heap_peak_mb", heapPeakMb, "MB"),
  )
}

object EndToEnd {

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val k = s.size
    if (k % 2 == 1) s(k / 2) else (s(k / 2 - 1) + s(k / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** Summed seconds of the named calls in each `bench.prep` of the pass
    * (each is made once per prep).
    */
  private def perPrep(c: Ctx, names: Seq[String]): Seq[Double] =
    names.map(c.p.durations).filter(_.nonEmpty).transpose.map(_.sum)

  /** Every `Reorder.order` call of one `bench.prep`. */
  private val reorderCalls = "core.gograph" +: Orders.competitors.filter(_.name != "GoGraph").map(r => s"order.${r.name}")

  /** Seconds of the `Reorder.order` calls of each `bench.prep` of the pass. */
  def reorderTimes(c: Ctx): Seq[Double] = perPrep(c, reorderCalls)

  /** The end-to-end values over the calls of the given passes. */
  def of(passes: Seq[Ctx]): Map[String, Double] = {
    def calls(name: String) = mean(passes.flatMap(_.p.durations(name)))
    val run = calls("bench.run"); val base = calls("bench.baseline")
    val savingPerRun = (base - run) / passes.head.count("runs")
    // (GoGraph reorder + relabel) paid back by the per-run saving; -1 if there is none
    val breakEven =
      if (savingPerRun > 0) mean(passes.flatMap(perPrep(_, Seq("core.gograph", "graph.relabel")))) / savingPerRun
      else -1.0
    def count(k: String) = median(passes.map(_.count(k)))
    Map(
      "total_s" -> (calls("bench.prep") + run),
      "reorder_s" -> mean(passes.flatMap(reorderTimes)),
      "run_s" -> run,
      "baseline_run_s" -> base,
      "break_even_runs" -> breakEven,
      "rounds" -> count("rounds"),
      "baseline_rounds" -> count("baseline_rounds"),
      "m_ratio" -> median(passes.map(c => c.count("order.m.GoGraph") / c.count("graph.edges"))),
    )
  }

  def of(passes: Seq[Ctx], setupTimes: Seq[Double], heapPeakMb: Double): EndToEnd =
    EndToEnd(of(passes), median(setupTimes), heapPeakMb)
}

/** Per-layer metrics from the traced pass. A layer the workload does not
  * call reads 0.
  */
object PerLayer {
  private val MB = 1048576.0
  /** Layers with calls inside `bench.total`; `bench` is the harness itself. */
  val layers = Seq("graph", "core", "order", "engine", "bench")

  def of(c: Ctx, e2e: EndToEnd, jvm: JvmStats): Seq[(String, Double, String)] = {
    val spans = c.p.spans
    def secs(name: String) = spans.filter(_.name == name).map(_.seconds).sum
    def allocMb(prefix: String) = spans.filter(_.name.startsWith(prefix)).map(_.allocBytes).sum / MB
    val cnt = c.count _

    // self time of each layer inside `bench.total`, the span total_s times
    val self = Spans.selfSeconds(spans)
    val total = spans.find(_.name == "bench.total").get
    val inTotal = Spans.subtree(spans, total.id)
    val selfByLayer = layers.map(l => l -> inTotal.filter(_.layer == l).map(s => self(s.id)).sum).toMap

    val seqS = secs("engine.seq.async") + secs("engine.seq.sync")
    // the competitor orders, only where the workload computes them (table2-cp)
    val competitors = Orders.competitors.map(_.name).filter(m => m != "GoGraph" && c.orders.contains(m))
    val orderMetrics = competitors.map(m => (s"order.${m}_s", secs(s"order.$m"), "s")) ++
      (competitors.filter(_ != "Default") :+ "GoGraph").map(m => (s"order.m.$m", cnt(s"order.m.$m"), "count"))

    Seq(
      ("graph.build_s", secs("graph.build"), "s"),
      ("graph.relabel_s", secs("graph.relabel"), "s"),
      ("graph.build_alloc_mb", allocMb("graph.build"), "MB"),
      ("graph.relabel_alloc_mb", allocMb("graph.relabel"), "MB"),
      ("core.gograph_s", secs("core.gograph"), "s"),
      ("core.gograph_alloc_mb", allocMb("core.gograph"), "MB"),
      ("partition.rabbit_s", secs("partition.rabbit"), "s"),
      ("partition.parts", cnt("partition.parts"), "count"),
      ("partition.internal_edge_ratio", cnt("partition.internal_edge_ratio"), "ratio"),
    ) ++ orderMetrics ++ Seq(
      ("order.m.Default", cnt("order.m.Default"), "count"),
      ("order.metric_s", secs("order.metric"), "s"),
      ("engine.seq.async_s", secs("engine.seq.async"), "s"),
      ("engine.seq.sync_s", secs("engine.seq.sync"), "s"),
      ("engine.seq.rounds", cnt("engine.seq.rounds"), "count"),
      ("engine.seq.edges_per_s", if (seqS > 0) cnt("engine.seq.edge_rounds") / seqS else 0.0, "edges/s"),
      // per round: 24 B per in-edge (neighbour id, weight, state, out-degree)
      // and 24 B per vertex (order slot, offsets, state read and write)
      ("engine.seq.bytes_computed", 24 * (cnt("engine.seq.edge_rounds") + cnt("engine.seq.vertex_rounds")), "B"),
      ("engine.seq.alloc_mb", allocMb("engine.seq."), "MB"),
      ("engine.blocks.build_s", secs("engine.blocks.build"), "s"),
      ("engine.blocks.supersteps", cnt("engine.blocks.supersteps"), "count"),
      ("engine.blocks.superstep_ms", if (c.jobMs.isEmpty) 0.0 else EndToEnd.median(c.jobMs.toSeq), "ms"),
      ("engine.blocks.task_s", cnt("engine.blocks.task_s"), "s"),
      ("engine.blocks.driver_s", cnt("engine.blocks.driver_s"), "s"),
      ("engine.blocks.sched_delay_s", cnt("engine.blocks.sched_delay_s"), "s"),
      ("engine.blocks.result_mb", cnt("engine.blocks.result_mb"), "MB"),
      ("engine.blocks.broadcast_mb_computed", cnt("engine.blocks.broadcast_mb_computed"), "MB"),
      ("engine.blocks.intra_pos_edges", cnt("engine.blocks.intra_pos_edges"), "count"),
      ("engine.blocks.cross_pos_edges", cnt("engine.blocks.cross_pos_edges"), "count"),
      ("engine.blocks.tasks_failed", cnt("engine.blocks.tasks_failed"), "count"),
      ("cache.misses.gograph", cnt("cache.misses.gograph"), "count"),
      ("cache.misses.default", cnt("cache.misses.default"), "count"),
      ("jvm.gc_s", jvm.gcMs / 1e3, "s"),
      ("jvm.gc_count", jvm.gcCount.toDouble, "count"),
      ("jvm.jit_ms", jvm.jitMs.toDouble, "ms"),
    ) ++ layers.map(l => (s"self.${l}_s", selfByLayer(l), "s")) ++ Seq(
      ("trace.total_s", total.seconds, "s"),
      ("trace.overhead_s", total.seconds - e2e.values("total_s"), "s"),
      ("trace.uncovered_share", selfByLayer("bench") / total.seconds, "ratio"),
      ("e2e.sync_run_s", c.p.seconds("bench.sync"), "s"),
      ("e2e.break_even_runs", e2e.values("break_even_runs"), "runs"),
    )
  }
}

/** Just enough JSON for the benchmark's own output. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case ch if ch < ' ' => f"\\u${ch.toInt}%04x"
      case ch   => ch.toString
    } + "\""
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")

  /** Parses a flat object of string values, as written by [[obj]] over [[str]]. */
  def parseFlat(s: String): Map[String, String] =
    "\"((?:[^\"\\\\]|\\\\.)*)\"\\s*:\\s*\"((?:[^\"\\\\]|\\\\.)*)\"".r
      .findAllMatchIn(s).map(m => m.group(1) -> m.group(2)).toMap
}
