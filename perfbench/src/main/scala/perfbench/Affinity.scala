package perfbench

import java.nio.file.{Files, Paths}
import scala.util.Try

/** Moves the calling thread over the CPUs the process may use, one timed
  * single-threaded call to the next CPU.
  *
  * On a shared host the CPUs a process is given differ in speed by up to 2×
  * at a time, and a busy thread left alone stays on one of them for tens of
  * seconds, so the same run is fast or slow by where it lands. Pinning each
  * call to the next CPU in turn makes every run sample all of them alike.
  * The thread is pinned only for the call and released after it, so threads
  * it starts otherwise (Spark's) are never confined to one CPU.
  *
  * Uses `taskset` on the thread's own id; where that is not possible it does
  * nothing and [[enabled]] is false.
  */
object Affinity {

  /** The CPUs this process may use, from `Cpus_allowed_list` ("0-3,6"). */
  val cpus: Seq[Int] = Try {
    val line = Files.readAllLines(Paths.get("/proc/self/status")).toArray.map(_.toString)
      .find(_.startsWith("Cpus_allowed_list:")).get
    line.split(":")(1).trim.split(",").toSeq.flatMap { r =>
      r.split("-") match {
        case Array(a, b) => a.trim.toInt to b.trim.toInt
        case Array(a)    => Seq(a.trim.toInt)
      }
    }
  }.getOrElse(Seq.empty)

  private def tid: String =
    Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString

  /** Sets the calling thread's CPUs; false if `taskset` failed. */
  private def set(list: String): Boolean = Try {
    val p = new ProcessBuilder("taskset", "-pc", list, tid).redirectErrorStream(true).start()
    p.getInputStream.readAllBytes()
    p.waitFor() == 0
  }.getOrElse(false)

  private val all = cpus.mkString(",")

  val enabled: Boolean = cpus.size > 1 && set(all)

  private var next = 0

  /** Runs `body` pinned to the next CPU in turn. */
  def rotate[T](body: => T): T =
    if (!enabled) body
    else {
      set(cpus(next % cpus.size).toString)
      next += 1
      try body
      finally set(all)
    }
}
