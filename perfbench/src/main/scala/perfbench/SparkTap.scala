package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** What Spark's scheduler reported for the jobs of one engine run. */
final case class JobLog(
    jobs: Seq[(Long, Long)], // (start, end) wall-clock ms, one per job
    taskRunMs: Long,         // Σ executor run time
    schedDelayMs: Long,      // Σ scheduler delay, as the Spark UI computes it
    resultBytes: Long,       // Σ serialized task results sent to the driver
    tasksFailed: Int,
)

/** A [[SparkListener]] that collects job and task events between resets. */
final class SparkTap extends SparkListener {
  private val jobStart  = mutable.LinkedHashMap.empty[Int, Long]
  private val jobEnd    = mutable.HashMap.empty[Int, Long]
  private var taskRunMs = 0L
  private var delayMs   = 0L
  private var resultB   = 0L
  private var failed    = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobStart(e.jobId) = e.time }
  override def onJobEnd(e: SparkListenerJobEnd): Unit     = synchronized { jobEnd(e.jobId) = e.time }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val info = e.taskInfo
    if (info.failed || info.killed) failed += 1
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs += m.executorRunTime
      resultB += m.resultSize
      val gettingResult = if (info.gettingResult) info.finishTime - info.gettingResultTime else 0L
      delayMs += math.max(0L, (info.finishTime - info.launchTime) - m.executorRunTime -
        m.executorDeserializeTime - m.resultSerializationTime - gettingResult)
    }
  }

  /** Waits for pending events, returns what arrived since the last call and clears it. */
  def take(spark: SparkSession): JobLog = {
    org.apache.spark.perfbench.ListenerBus.drain(spark.sparkContext)
    synchronized {
      val log = JobLog(jobStart.toSeq.map { case (id, s) => (s, jobEnd.getOrElse(id, s)) },
        taskRunMs, delayMs, resultB, failed)
      jobStart.clear(); jobEnd.clear(); taskRunMs = 0; delayMs = 0; resultB = 0; failed = 0
      log
    }
  }
}
