package fedexbench

import scala.collection.mutable

/** One call into a layer. Times are epoch milliseconds with sub-millisecond
  * precision, on the clock Spark stamps job events with.
  */
final case class Span(id: Int, name: String, parent: Option[Int], pass: Int,
                      startMs: Double, endMs: Double) {
  def seconds: Double = (endMs - startMs) / 1e3
}

/** Records spans in memory; they are written out when the run ends. Safe to
  * use from several threads (contribution pairs run concurrently).
  */
final class Tracer {
  // anchor on a millisecond tick so span times and job times agree to ~µs
  private val (anchorMs, anchorNs) = {
    val t0 = System.currentTimeMillis()
    while (System.currentTimeMillis() == t0) {}
    (System.currentTimeMillis().toDouble, System.nanoTime())
  }
  private val spans    = mutable.ArrayBuffer.empty[Span]

  def nowMs: Double = anchorMs + (System.nanoTime() - anchorNs) / 1e6

  /** Runs `body`, which gets the new span's id, inside a span. */
  def span[T](name: String, pass: Int, parent: Option[Int] = None)(body: Int => T): T = {
    val id    = synchronized { spans += null; spans.size - 1 }
    val start = nowMs
    try body(id)
    finally {
      val s = Span(id, name, parent, pass, start, nowMs)
      synchronized { spans(id) = s }
    }
  }

  def all: Seq[Span] = synchronized(spans.filter(_ != null).toList)
}

object Trace {

  /** Length covered by the union of `intervals`, clipped to [lo, hi]. */
  def covered(intervals: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = intervals.map { case (a, b) => (a max lo, b min hi) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0.0; var curA = 0.0; var curB = Double.NegativeInfinity
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else curB = curB max b
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** Seconds of `span` that none of `intervals` (epoch ms) covers. */
  def uncoveredSeconds(span: Span, intervals: Seq[(Double, Double)]): Double =
    (span.endMs - span.startMs - covered(intervals, span.startMs, span.endMs)) / 1e3

  /** A span's self time: its duration minus the part of it that its
    * children cover (children may overlap each other).
    */
  def selfSeconds(span: Span, all: Seq[Span]): Double =
    uncoveredSeconds(span, all.filter(_.parent.contains(span.id)).map(k => (k.startMs, k.endMs)))

  /** Assigns each job to the span, among `spans`, that was open when the job
    * was submitted. `spans` must not overlap each other (one span per layer
    * call, run one after another). A job submitted in the millisecond that
    * one span ends and the next begins goes to the later span: a job takes
    * at least a millisecond, so one submitted that late in the earlier span
    * could not have finished inside it. Jobs matching no span are returned
    * as unattributed.
    */
  def attribute(jobs: Seq[JobRec], spans: Seq[Span]): (Map[Int, Seq[JobRec]], Seq[JobRec]) = {
    val sorted = spans.sortBy(_.startMs)
    val pairs = jobs.map { j =>
      val t = j.submitMs.toDouble
      // the scheduler truncates to whole milliseconds
      val hit = sorted.reverseIterator.find(s => math.floor(s.startMs) <= t && t <= s.endMs)
      hit.map(_.id) -> j
    }
    val byspan = pairs.collect { case (Some(id), j) => id -> j }.groupMap(_._1)(_._2)
    (byspan, pairs.collect { case (None, j) => j })
  }
}
