package fedexbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import repro.core.{Fedex, FedexConfig, FedexResult, Step}
import repro.data.Frames

import scala.collection.mutable
import scala.util.control.NonFatal

/** The FEDEX explain benchmark: one analyst asks `Fedex.explain` for one step
  * at a time (a closed loop with one client). A pass explains each query of
  * the workload once.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Prints human-readable lines, then one JSON line with every metric it
  * measured. Exits 0 once that line is printed (failed output checks show in
  * its `correct` and `failed`), non-zero when the run itself fails.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Seq[String]): Args = {
    val m = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(Workloads.byName(need("workload")), need("seed").toLong, need("seconds").toDouble, trace == "1")
  }

  val Layers: Seq[String] = Seq("interestingness", "partition", "contribution", "skyline")
  val SetupRepeats = 3

  def session(): SparkSession = {
    val b = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("fedexbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
    sys.props.get("fedexbench.work").foreach(w => b.config("spark.local.dir", s"$w/spark"))
    b.getOrCreate()
  }

  def main(argv: Array[String]): Unit = {
    var code = 1
    var spark: SparkSession = null
    try {
      val args  = parse(argv.toSeq)
      val start = System.nanoTime()
      spark = session()
      spark.sparkContext.setLogLevel("WARN")
      new Run(spark, args, (System.nanoTime() - start) / 1e9).apply()
      code = 0
    } catch {
      case NonFatal(e) => e.printStackTrace()
    } finally {
      if (spark != null) spark.stop()
    }
    // Fedex's scoring pool holds non-daemon threads: exit explicitly
    sys.exit(code)
  }
}

/** One benchmark run in an open Spark session, which took `sessionS` to start. */
final class Run(spark: SparkSession, args: Main.Args, sessionS: Double) {
  import Main.{Layers, SetupRepeats}

  private val wl     = args.workload
  private val cfg    = FedexConfig()
  private val log    = new JobLog
  private val tracer = new Tracer
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var attempted, failed = 0

  private def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics(name) = (value, unit)
  }
  private def seconds[T](body: => T): (T, Double) = {
    val t = System.nanoTime(); val r = body; (r, (System.nanoTime() - t) / 1e9)
  }
  private def fail(query: String, problems: Seq[String]): Unit =
    if (problems.nonEmpty) { failed += 1; problems.foreach(p => Console.err.println(s"[check] $query: $p")) }

  /** Jobs finished since the last call, once the listener has caught up. */
  private var seenJobs = 0
  private def newJobs(): Seq[JobRec] = {
    val all = log.settled(spark.sparkContext)
    val fresh = all.drop(seenJobs); seenJobs = all.size; fresh
  }

  /** Generates and caches the workload's frames; returns its steps. */
  private def setup(): Seq[(String, Step)] = {
    spark.catalog.clearCache()
    val steps = wl.steps(new Frames(spark, Workloads.scale(args.seed)))
    steps.foreach(_._2.inputs.foreach(_.count()))
    steps
  }

  /** One call of `Fedex.explain`, timed; a throw counts as a failed call. */
  private def call(q: String, step: Step): (Option[FedexResult], Double) = {
    attempted += 1
    val (r, s) = seconds(try Some(Fedex.explain(step, cfg)) catch {
      case NonFatal(e) => Console.err.println(s"[call] $q threw: $e"); None
    })
    if (r.isEmpty) failed += 1
    (r, s)
  }

  def apply(): Unit = {
    spark.sparkContext.addSparkListener(log)

    // Set-up, repeated: generate and cache the frames (the data layer).
    var steps: Seq[(String, Step)] = Nil
    val setups = (0 until SetupRepeats).map { i =>
      val (st, s) = seconds(tracer.span("data", -1 - i)(_ => setup()))
      steps = st; (s, newJobs().size)
    }
    put("data.s", Stats.median(setups.map(_._1)), "s")
    put("data.jobs", Stats.median(setups.map(_._2.toDouble)), "count")

    // Warm-up pass, untimed: its answers are what later calls must repeat.
    val (warm, warmS) = seconds(steps.map { case (q, step) =>
      val r = call(q, step)._1
      r.foreach(x => fail(q, Checks.call(x, Checks.answer(x))))
      q -> r
    })
    newJobs()
    put("warmup_s", warmS, "s")
    // what a user waits before the first answer at full speed: session
    // start, one data set-up (the median of the repeats) and the warm-up
    put("setup_s", sessionS + metrics("data.s")._1 + warmS, "s")
    val warmAnswer = warm.collect { case (q, Some(r)) => q -> Checks.answer(r) }.toMap

    // Timed passes, one call after another, until the run's time is used.
    val passS = mutable.ArrayBuffer.empty[Double]
    val passWork = mutable.ArrayBuffer.empty[Work]
    val last = mutable.Map.empty[String, FedexResult]
    val loopStart = System.nanoTime()
    while (passS.isEmpty || (System.nanoTime() - loopStart) / 1e9 < args.seconds) {
      val results = steps.map { case (q, step) => q -> call(q, step) }
      passS += results.map(_._2._2).sum
      passWork += Work.of(newJobs())
      results.foreach { case (q, (r, _)) =>
        r.foreach { x =>
          fail(q, warmAnswer.get(q).fold(Seq("warm-up call failed"))(Checks.call(x, _)))
          last(q) = x
        }
      }
    }
    val pass = Stats.summary(passS.toSeq)
    put("pass_s", pass.median, "s")
    put("pass_s.n", pass.n, "count")
    pass.tail.foreach { case (p, v) => put(s"pass_s.p${if (p.isWhole) p.toInt else p}", v, "s") }
    put("spark_jobs", Stats.median(passWork.map(_.jobs.toDouble).toSeq), "count")
    put("spark_tasks", Stats.median(passWork.map(_.tasks.toDouble).toSeq), "count")
    put("task_cpu_s", Stats.median(passWork.map(_.cpuS).toSeq), "s")
    put("shuffle_write_mb", Stats.median(passWork.map(_.shuffleWriteMb).toSeq), "MB")

    // Once per run, outside timing: the top answer against the literal intervention.
    val (gaps, checkS) = seconds(steps.flatMap { case (q, step) =>
      last.get(q).map { r =>
        attempted += 1
        val (problems, gap) = Checks.exactTop(step, cfg, r)
        fail(q, problems); gap
      }
    })
    newJobs()
    put("check_s", checkS, "s")
    // how far the fast path is from `Contribution.exact`, where the latter
    // re-buckets the reduced input (see `Checks.exactTop`); shown, not checked
    put("contribution.exact_gap", gaps.filterNot(_.isNaN).maxOption.getOrElse(0.0), "abs")

    if (args.trace) traced(steps, last.toMap, warmAnswer, pass.median)

    put("failed_frac", Stats.frac(failed, attempted), "ratio")
    writeTrace()
    metrics.foreach { case (k, (v, u)) => println(f"$k%-36s $v%14.6f $u") }
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}""")
  }

  /** One pass replayed through the layer functions, with spans and job
    * attribution; gives the per-layer metrics.
    */
  private def traced(steps: Seq[(String, Step)], explained: Map[String, FedexResult],
                     warmAnswer: Map[String, Seq[(String, String)]], passS: Double): Unit = {
    val pass = 0
    val counts = steps.map { case (q, step) =>
      attempted += 1
      val (r, c) = Replay.explain(step, cfg, tracer, pass)
      fail(q, Checks.call(r, warmAnswer.getOrElse(q, Nil)) ++
        explained.get(q).fold(Seq("no Fedex.explain result to compare"))(Checks.replay(r, _)))
      c
    }
    val jobs  = newJobs()
    val spans = tracer.all.filter(_.pass == pass)
    val layerSpans = spans.filter(s => Layers.contains(s.name))
    val (byspan, unattributed) = Trace.attribute(jobs, layerSpans)
    val roots = spans.filter(_.name == "explain")
    val tracedS = roots.map(_.seconds).sum
    put("trace.overhead_s", tracedS - passS, "s")
    put("trace.unattributed_jobs", unattributed.size, "count")
    // an explain span's self time is the time spent outside every layer
    put("trace.layer_share", 1 - Stats.frac(roots.map(Trace.selfSeconds(_, spans)).sum, tracedS), "ratio")

    val pairSpans = spans.filter(_.name == "contribution.pair")
    Layers.foreach { l =>
      val ss = layerSpans.filter(_.name == l)
      val js = ss.flatMap(s => byspan.getOrElse(s.id, Nil))
      val w  = Work.of(js)
      val driver = ss.map { s =>
        Trace.uncoveredSeconds(s, byspan.getOrElse(s.id, Nil).map(j => (j.submitMs.toDouble, j.endMs.toDouble)))
      }.sum
      put(s"$l.s", ss.map(_.seconds).sum, "s")
      put(s"$l.calls", if (l == "contribution") pairSpans.size else ss.size, "count")
      put(s"$l.jobs", w.jobs, "count")
      put(s"$l.tasks", w.tasks.toDouble, "count")
      put(s"$l.task_cpu_s", w.cpuS, "s")
      put(s"$l.shuffle_write_mb", w.shuffleWriteMb, "MB")
      put(s"$l.job_s", w.jobS, "s")
      put(s"$l.driver_s", driver, "s")
    }
    def total(f: StepCounts => Int): Double = counts.map(f).sum.toDouble
    put("interestingness.cols_scored", total(_.colsScored), "count")
    put("interestingness.topk_frac", Stats.frac(total(_.topCols), total(_.colsScored)), "ratio")
    put("partition.built", total(_.partitionsBuilt), "count")
    put("partition.distinct_frac", Stats.frac(total(_.partitionsDistinct), total(_.partitionsBuilt)), "ratio")
    put("contribution.pairs", total(_.pairs), "count")
    put("contribution.jobs_per_pair", Stats.frac(metrics("contribution.jobs")._1, total(_.pairs)), "count")
    val pairS = pairSpans.map(_.seconds)
    put("contribution.pair_s.p50", if (pairS.isEmpty) 0.0 else Stats.median(pairS), "s")
    put("contribution.pair_s.max", if (pairS.isEmpty) 0.0 else pairS.max, "s")
    put("contribution.positive_frac", Stats.frac(total(_.positive), total(_.setsEvaluated)), "ratio")
    put("skyline.candidates", total(_.positive), "count")
    put("skyline.kept_frac", Stats.frac(total(_.kept), total(_.positive)), "ratio")
  }

  /** Writes the spans kept in memory, one JSON object a line. */
  private def writeTrace(): Unit = sys.props.get("fedexbench.work").foreach { dir =>
    val lines = tracer.all.map { s =>
      s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent.getOrElse("null")}, """ +
        s""""pass": ${s.pass}, "start_ms": ${s.startMs}, "end_ms": ${s.endMs}}"""
    }
    val path = Paths.get(dir, s"spans-${wl.name}-${args.seed}-trace${if (args.trace) 1 else 0}.jsonl")
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}
