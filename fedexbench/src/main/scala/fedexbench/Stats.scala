package fedexbench

/** Order statistics of a sample, as the benchmark reports them. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest of p90, p99 and p99.9 that has at least ten samples above
    * it, as (percentile, nearest-rank value); None below 100 samples.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] = {
    val n = xs.size
    Seq(999, 990, 900) // per mille, in integers so the ranks are exact
      .map(pm => pm -> (pm.toLong * n + 999) / 1000)
      .find { case (_, rank) => n - rank >= 10 }
      .map { case (pm, rank) => pm / 10.0 -> xs.sorted.apply(rank.toInt - 1) }
  }

  /** A timing as reported: sample count, median and the supported tail. */
  final case class Summary(n: Int, median: Double, tail: Option[(Double, Double)])

  def summary(xs: Seq[Double]): Summary = Summary(xs.size, median(xs), tail(xs))

  /** Share of `part` in `whole`, 0 when `whole` is 0. */
  def frac(part: Double, whole: Double): Double = if (whole == 0) 0.0 else part / whole
}
