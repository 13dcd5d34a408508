package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable

/** One recorded call into a layer of the program. Times are `System.nanoTime`. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, allocBytes: Long) {
  def seconds: Double = (endNs - startNs) / 1e9

  /** The layer is the span name up to its first dot (`graph.build` → `graph`). */
  def layer: String = name.takeWhile(_ != '.')
}

/** Times calls into the program's layers from the benchmark's own code.
  *
  * Every call is timed, so the end-to-end metrics are sums of these timings.
  * With `tracing` on, each call is also kept as a [[Span]] with its parent
  * and the bytes its thread allocated; spans stay in memory until the run
  * writes its report.
  */
final class Probe(val tracing: Boolean) {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val secondsByName = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val recorded      = mutable.ArrayBuffer.empty[Span]
  private var nextId        = 0
  private var open: List[Int] = Nil

  /** `System.nanoTime` minus wall-clock nanoseconds, to place listener events. */
  val clockOffsetNs: Long = System.nanoTime() - System.currentTimeMillis() * 1000000L

  def apply[T](name: String)(body: => T): T = {
    val id     = nextId
    val parent = open.headOption.getOrElse(-1)
    nextId += 1
    val tid = Thread.currentThread().getId
    val a0  = if (tracing) threads.getThreadAllocatedBytes(tid) else 0L
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      secondsByName.getOrElseUpdate(name, mutable.ArrayBuffer.empty[Double]) += (t1 - t0) / 1e9
      if (tracing)
        recorded += Span(id, parent, name, t0, t1, threads.getThreadAllocatedBytes(tid) - a0)
    }
  }

  /** Id of the innermost open span (-1 outside any span). */
  def current: Int = open.headOption.getOrElse(-1)

  /** Adds a span measured elsewhere, e.g. a Spark job seen by a listener. */
  def external(name: String, parent: Int, startNs: Long, endNs: Long): Unit =
    if (tracing) { recorded += Span(nextId, parent, name, startNs, endNs, 0L); nextId += 1 }

  /** Seconds of each call named `name`, in call order. */
  def durations(name: String): Seq[Double] = secondsByName.get(name).fold(Seq.empty[Double])(_.toSeq)

  /** Summed seconds of all calls named `name`. */
  def seconds(name: String): Double = durations(name).sum

  def spans: Seq[Span] = recorded.sortBy(s => (s.startNs, s.id)).toSeq
}

object Spans {

  /** Length of the union of the given intervals. */
  private def covered(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L; var end = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s >= end) { total += e - s; end = e }
      else if (e > end) { total += e - end; end = e }
    }
    total
  }

  /** Self time of each span: its duration minus the time its children cover. */
  def selfSeconds(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      s.id -> (s.endNs - s.startNs - covered(kids.filter(k => k._2 > k._1))) / 1e9
    }.toMap
  }

  /** Spans at or below `root`. */
  def subtree(spans: Seq[Span], root: Int): Seq[Span] = {
    val children = spans.groupBy(_.parent)
    def walk(id: Int): Seq[Span] = children.getOrElse(id, Nil).flatMap(c => c +: walk(c.id))
    spans.filter(_.id == root) ++ walk(root)
  }
}
