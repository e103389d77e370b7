package fedexbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{approx_count_distinct, col, lit}
import repro.core._

/** Output checks. Each returns the problems it found; empty means passed. */
object Checks {

  /** What a call's answer is compared on: skyline keys and captions. */
  def answer(r: FedexResult): Seq[(String, String)] = r.skyline.map(e => e.candidate.key -> e.caption)

  private def dominates(o: ExplanationCandidate, x: ExplanationCandidate): Boolean =
    o.interestingness >= x.interestingness && o.stdContribution >= x.stdContribution &&
      (o.interestingness > x.interestingness || o.stdContribution > x.stdContribution)

  /** Checks every call must pass: positive contributions, a true skyline, and
    * the same answer as the query's warm-up call.
    */
  def call(r: FedexResult, warmup: Seq[(String, String)]): Seq[String] = {
    val nonPositive = r.candidates.filterNot(_.contribution > 0).map(c => s"candidate ${c.key} has contribution ${c.contribution}")
    // keys can repeat (a set found by both n = 5 and n = 10), so compare candidates
    val members = r.skyline.map(_.candidate)
    val inner = for (a <- members; b <- members if dominates(a, b)) yield s"skyline member ${a.key} dominates ${b.key}"
    val missed = r.candidates.filterNot(members.contains)
      .filterNot(c => members.exists(dominates(_, c))).map(c => s"non-member ${c.key} is not dominated")
    val drift = if (answer(r) == warmup) Nil else Seq("skyline keys or captions differ from the warm-up call")
    nonPositive ++ inner ++ missed ++ drift
  }

  /** The top explanation's contribution against the literal intervention:
    * remove the set from the input, re-apply the step, re-score.
    *
    * Where the attribute's KS keys are its values, the reference is
    * `Contribution.exact`. Where `Ks` buckets a numeric attribute with more
    * than `maxBins` distinct values, `Contribution.exact` takes new quantile
    * buckets from the reduced input, while the fast path keeps the full
    * input's buckets for both terms; `Ks` documents each as exact only up to
    * one bin's mass, so the two differ by design. There the reference is the
    * same intervention scored on the full input's buckets
    * (`Ks.statistic(..., statsFrom = full input)`). Either must match within
    * 1e-9. Also returns the gap to `Contribution.exact`, to be reported.
    */
  def exactTop(step: Step, cfg: FedexConfig, r: FedexResult): (Seq[String], Double) =
    r.skyline.headOption.fold((Seq.empty[String], 0.0)) { e =>
      val c  = e.candidate
      val df = step.inputs.head // the workloads' steps have one input
      // rebuild only the partition method that produced the set (no FD mining)
      val built = cfg.nSets.iterator.map { n =>
        if (c.method == "numeric") Partition.numericBins(df, c.partitionAttr, n)
        else Partition.frequency(df, c.labelAttr, n)
      }
      built.find(_.sets.contains(c.set)) match {
        case None => (Seq(s"no partition holds the top explanation's set ${c.key}"), 0.0)
        case Some(p) =>
          val exact = Contribution.exact(step, c.attr, p, c.set, 0, cfg.maxBins)
          val reference = step.op match {
            case _: FilterOp if bucketed(df, c.attr, cfg.maxBins) =>
              val reduced = p.labeled.where(!(col(Partition.LabelCol) <=> lit(c.set))).drop(Partition.LabelCol)
              val full = Ks.statistic(df, step.output, c.attr, cfg.maxBins)
              Some(full - Ks.statistic(reduced, step.reapply(Seq(reduced)), c.attr, cfg.maxBins, Some(df)))
            case _ => exact
          }
          val gap = exact.fold(Double.NaN)(x => math.abs(x - c.contribution))
          reference match {
            case Some(x) if math.abs(x - c.contribution) <= 1e-9 => (Nil, gap)
            case other => (Seq(s"top explanation ${c.key}: contribution ${c.contribution}, reference $other"), gap)
          }
      }
    }

  /** Does `Ks` bucket `column` of `df` on quantiles (see `Ks.keyExpr`)? */
  private def bucketed(df: DataFrame, column: String, maxBins: Int): Boolean =
    Ks.isNumeric(df, column) && df.agg(approx_count_distinct(col(column))).head.getLong(0) > maxBins

  /** The replay's candidates and skyline against `Fedex.explain`'s. */
  def replay(replayed: FedexResult, explained: FedexResult): Seq[String] = {
    def cands(r: FedexResult) = r.candidates.map(c => (c.key, c.contribution, c.interestingness)).sorted
    val (a, b) = (cands(replayed), cands(explained))
    val same = a.size == b.size && a.zip(b).forall { case ((k1, c1, i1), (k2, c2, i2)) =>
      k1 == k2 && math.abs(c1 - c2) <= 1e-9 && math.abs(i1 - i2) <= 1e-9
    }
    (if (same) Nil else Seq("replay candidates differ from Fedex.explain")) ++
      (if (answer(replayed) == answer(explained)) Nil else Seq("replay skyline differs from Fedex.explain"))
  }
}
