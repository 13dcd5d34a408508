package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Runs one workload: set-up (median of several), a warm-up of the same
  * program mix on a smaller input, timed passes for `--seconds` with tracing
  * off, and with `--trace 1` one more pass with tracing on. Prints the result
  * as one JSON line and writes a fuller report (metadata, spans, fingerprints)
  * under `--work`.
  */
object Main {

  final case class Opts(workload: String = "", seed: Int = 0, seconds: Double = 10,
                        trace: Boolean = false, smoke: Boolean = false, work: String = ".",
                        gitSha: String = "none", sourceHash: String = "none")

  /** Set-up runs at least [[setupReps]] times and for [[setupMinSeconds]]
    * (at most 15 times). The first, with classes still loading, is the slowest.
    */
  val setupReps       = 4
  val setupMinSeconds = 3.0

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: t    => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t        => parse(t, o.copy(seed = v.toInt))
    case "--seconds" :: v :: t     => parse(t, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: t       => parse(t, o.copy(trace = v == "1"))
    case "--smoke" :: t            => parse(t, o.copy(smoke = true))
    case "--work" :: v :: t        => parse(t, o.copy(work = v))
    case "--git-sha" :: v :: t     => parse(t, o.copy(gitSha = v))
    case "--source-hash" :: v :: t => parse(t, o.copy(sourceHash = v))
    case Nil                       => o
    case other                     => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  /** Exits explicitly: a failure must not leave the JVM waiting on Spark's threads. */
  def main(args: Array[String]): Unit = {
    var session: Option[(SparkSession, SparkTap)] = None
    val code =
      try { run(parse(args.toList), s => session = s); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally session.foreach(_._1.stop())
    Console.out.flush()
    sys.exit(code)
  }

  def run(opts: Opts, onSession: Option[(SparkSession, SparkTap)] => Unit): Unit = {
    val w = Workloads.byName(opts.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '${opts.workload}'"))
    val work = Paths.get(opts.work).toAbsolutePath
    Files.createDirectories(work)
    val checks = new Checks
    var session: Option[(SparkSession, SparkTap)] = None

    // ---- set-up: generate the input; on Spark workloads also start Spark and
    // make one engine run. Repeated, and the median reported.
    var in: Input = null
    val setupTimes = scala.collection.mutable.ArrayBuffer.empty[Double]
    val setupStart = System.nanoTime()
    def moreSetup =
      if (opts.smoke) setupTimes.isEmpty
      else setupTimes.size < setupReps ||
        (setupTimes.size < 15 && System.nanoTime() - setupStart < setupMinSeconds * 1e9)
    while (moreSetup) {
      session.foreach(_._1.stop())
      session = None
      onSession(session)
      in = null
      def once(): Double = {
        val t0 = System.nanoTime()
        in = w.input(opts.seed, opts.smoke)
        if (w.usesSpark) {
          session = Some(Sparks.start(work))
          onSession(session)
          val warmCtx = new Ctx(new Probe(false), new Checks, session, opts.seed)
          val g = Inputs.cp(1000, opts.seed)
          Pipeline.blocks(warmCtx, g, repro.engine.SSSP, repro.order.VertexOrder.identity(g.numVertices), 0)
        }
        (System.nanoTime() - t0) / 1e9
      }
      // Spark's set-up starts threads, which must not inherit a pinned CPU;
      // other set-ups move between CPUs like the timed calls
      setupTimes += (if (w.usesSpark || opts.smoke) once() else Affinity.rotate(once()))
    }

    note(s"set-up ${setupTimes.map(t => f"$t%.2f").mkString(" ")} s")

    if (!opts.smoke) {
      val tw = System.nanoTime()
      w.warmUp(in, new Ctx(new Probe(false), new Checks, session, opts.seed, warm = true))
      note(f"warm-up ${(System.nanoTime() - tw) / 1e9}%.2f s")
    }

    // ---- timed passes, tracing off, while another pass would end by the
    // deadline (at least one)
    val passes = scala.collection.mutable.ArrayBuffer.empty[Ctx]
    val deadline = System.nanoTime() + (opts.seconds * 1e9).toLong
    var lastPassNs = 0L
    do {
      val t0 = System.nanoTime()
      val c = new Ctx(new Probe(false), checks, session, opts.seed)
      w.settle() // every pass starts from a collected heap
      w.pass(in, c)
      passes += c
      note(EndToEnd.of(Seq(c)).toSeq.sortBy(_._1).map { case (k, v) => f"$k=$v%.3f" }.mkString(s"pass ${passes.size}: ", " ", ""))
      lastPassNs = System.nanoTime() - t0
    } while (System.nanoTime() + lastPassNs <= deadline)
    val heapPeakMb = passes.map(_.liveHeapMb).max
    val jvm = passes.map(_.jvm).reduce(_ plus _)

    // ---- determinism: every pass, and every earlier run of the same code on
    // the same seed, must give the same fingerprint.
    val fp = passes.head.fingerprint.toMap
    passes.tail.foreach(c => checks.op("fingerprint repeats across passes")(
      (c.fingerprint.toMap == fp, s"differs: ${diff(fp, c.fingerprint.toMap)}")))
    val stored = work.resolve(s"fingerprints/${opts.sourceHash}-${w.name}-seed${opts.seed}${if (opts.smoke) "-smoke" else ""}.json")
    if (Files.exists(stored)) {
      val before = Json.parseFlat(new String(Files.readAllBytes(stored), StandardCharsets.UTF_8))
      checks.op("fingerprint repeats across runs")((before == fp, s"differs from $stored: ${diff(before, fp)}"))
    } else {
      Files.createDirectories(stored.getParent)
      Files.write(stored, Json.obj(fp.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.str(v) }).getBytes(StandardCharsets.UTF_8))
    }

    val e2e = EndToEnd.of(passes.toSeq, setupTimes.toSeq, heapPeakMb)
    val traced = if (opts.trace) Some {
      val c = new Ctx(new Probe(true), checks, session, opts.seed)
      Heap.liveMb()
      val pr = w.pass(in, c)
      c.p("bench.extras")(w.extras(c, pr))
      checks.op("fingerprint repeats in the traced pass")(
        (c.fingerprint.filter(kv => fp.contains(kv._1)).toMap == fp, s"differs: ${diff(fp, c.fingerprint.toMap)}"))
      c
    } else None

    val metrics: Seq[(String, Double, String)] = traced match {
      case None    => e2e.metrics
      case Some(c) => PerLayer.of(c, e2e, jvm)
    }
    val metricsJson =
      Json.obj(metrics.map { case (k, v, u) => k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })
    val meta = Seq(
      "workload" -> Json.str(w.name), "seed" -> opts.seed.toString, "smoke" -> opts.smoke.toString,
      "trace" -> opts.trace.toString, "git_sha" -> Json.str(opts.gitSha), "source_hash" -> Json.str(opts.sourceHash),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "spark_master" -> Json.str(if (w.usesSpark) Sparks.master else "none"),
      "cpu_rotation" -> Json.str(if (Affinity.enabled) Affinity.cpus.mkString(",") else "off"),
      "passes" -> passes.size.toString,
    )
    val report = Json.obj(meta ++ Seq(
      "setup_s" -> Json.arr(setupTimes.toSeq.map(Json.num)),
      "reorder_calls_s" -> Json.arr(passes.toSeq.flatMap(EndToEnd.reorderTimes).map(Json.num)),
      "passes_e2e" -> Json.arr(passes.toSeq.map(c => Json.obj(EndToEnd.of(Seq(c)).toSeq.map { case (k, v) => k -> Json.num(v) }))),
      "fingerprint" -> Json.obj(fp.toSeq.map { case (k, v) => k -> Json.str(v) }),
      "counts" -> Json.obj(passes.head.counts.toSeq.map { case (k, v) => k -> Json.num(v) }),
      "failures" -> Json.arr(checks.failures.toSeq.map(Json.str)),
      "metrics" -> metricsJson,
      "spans" -> Json.arr(traced.toSeq.flatMap(_.p.spans).map(s => Json.obj(Seq(
        "id" -> s.id.toString, "parent" -> s.parent.toString, "name" -> Json.str(s.name),
        "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString, "alloc_bytes" -> s.allocBytes.toString)))),
    ))
    val reportPath = work.resolve(s"reports/${w.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}${if (opts.smoke) "-smoke" else ""}.json")
    Files.createDirectories(reportPath.getParent)
    Files.write(reportPath, report.getBytes(StandardCharsets.UTF_8))
    checks.failures.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
    Console.err.println(s"[perfbench] report: $reportPath")

    println(Json.obj(Seq(
      "correct" -> (checks.failed == 0).toString,
      "attempted" -> checks.attempted.toString,
      "failed" -> checks.failed.toString,
      "metrics" -> metricsJson,
    )))
  }

  private def note(s: String): Unit = Console.err.println(s"[perfbench] $s")

  private def diff(a: Map[String, String], b: Map[String, String]): String =
    (a.keySet ++ b.keySet).toSeq.sorted.filter(k => a.get(k) != b.get(k))
      .map(k => s"$k ${a.getOrElse(k, "-")} vs ${b.getOrElse(k, "-")}").mkString(", ")
}

object Sparks {
  val master: String = s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]"

  def start(work: Path): (SparkSession, SparkTap) = {
    val spark = SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
      .getOrCreate()
    val tap = new SparkTap
    spark.sparkContext.addSparkListener(tap)
    (spark, tap)
  }
}

/** GC, compilation and heap figures from the JVM's management beans. */
final case class JvmStats(gcMs: Long, gcCount: Long, jitMs: Long) {
  def minus(o: JvmStats): JvmStats = JvmStats(gcMs - o.gcMs, gcCount - o.gcCount, jitMs - o.jitMs)
  def plus(o: JvmStats): JvmStats  = JvmStats(gcMs + o.gcMs, gcCount + o.gcCount, jitMs + o.jitMs)
}

object JvmStats {
  def now(): JvmStats = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    JvmStats(gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum,
      ManagementFactory.getCompilationMXBean.getTotalCompilationTime)
  }
}

object Heap {

  /** MB of heap in use after a full collection. */
  def liveMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}
