package fedexbench

import repro.core.Step
import repro.data.{DataScale, Frames, Queries}

/** One benchmark workload: the queries one pass explains, in order. Every
  * call uses the default `FedexConfig` (exact FEDEX). Why each workload was
  * chosen is recorded in BENCHMARK.json.
  */
final case class Workload(name: String, queries: Seq[Int]) {

  /** The workload's steps over freshly generated frames. */
  def steps(frames: Frames): Seq[(String, Step)] = {
    val byNum = Queries.all(frames).map(q => q.num -> q.step).toMap
    queries.map(n => s"q$n" -> byNum(n))
  }
}

object Workloads {

  /** Data scale of every workload; the run's seed replaces `seed`. */
  def scale(seed: Long): DataScale =
    DataScale(spotifyRows = 40000, bankRows = 10127, productsRows = 9977, salesRows = 50000, seed = seed)

  val all: Seq[Workload] = Seq(
    Workload("filter-exact", Seq(6)),
    Workload("groupby-exact", Seq(21, 26)))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
