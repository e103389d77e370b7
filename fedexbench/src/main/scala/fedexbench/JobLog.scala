package fedexbench

import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler._

import scala.collection.mutable

/** One finished Spark job: submission and end time (epoch ms, the clock the
  * scheduler stamps events with) and the work its tasks did.
  */
final case class JobRec(id: Int, submitMs: Long, endMs: Long, tasks: Int,
                        cpuNs: Long, shuffleWriteBytes: Long) {
  def seconds: Double = (endMs - submitMs) / 1e3
}

/** Sums of a set of jobs, in the units the benchmark reports. */
final case class Work(jobs: Int, tasks: Long, cpuS: Double, shuffleWriteMb: Double, jobS: Double)

object Work {
  def of(js: Iterable[JobRec]): Work =
    Work(js.size, js.map(_.tasks.toLong).sum, js.map(_.cpuNs).sum / 1e9,
      js.map(_.shuffleWriteBytes).sum / 1e6, js.map(_.seconds).sum)
}

/** Listener that records every job with its tasks' CPU time and shuffle
  * writes. Read it only through `settled`, which waits until every started
  * job has ended and the listener bus is empty, so no count is partial.
  */
final class JobLog extends SparkListener {
  private final class Open(val id: Int, val submitMs: Long) {
    var tasks = 0; var cpuNs = 0L; var shuffleBytes = 0L
  }
  private val open       = mutable.Map.empty[Int, Open]
  private val stageToJob = mutable.Map.empty[Int, Int]
  private val done       = mutable.ArrayBuffer.empty[JobRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    open(e.jobId) = new Open(e.jobId, e.time)
    // a stage listed by several jobs ran its tasks under the first of them
    e.stageIds.foreach(stageToJob.getOrElseUpdate(_, e.jobId))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageToJob.get(e.stageId); o <- open.get(j)) {
      o.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        o.cpuNs += m.executorCpuTime
        o.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { o =>
      done += JobRec(o.id, o.submitMs, e.time, o.tasks, o.cpuNs, o.shuffleBytes)
    }
  }

  /** All finished jobs, once nothing is running and every event is delivered. */
  def settled(sc: SparkContext, timeoutMs: Long = 60000): Seq[JobRec] = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (true) {
      ListenerDrain(sc)
      val quiet = sc.statusTracker.getActiveJobIds().isEmpty && synchronized(open.isEmpty)
      if (quiet) return synchronized(done.toList)
      if (System.currentTimeMillis() > deadline)
        throw new IllegalStateException("Spark jobs still running after the pass ended")
      Thread.sleep(5)
    }
    Nil
  }
}
