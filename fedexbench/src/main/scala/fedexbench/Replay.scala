package fedexbench

import java.util.concurrent.{Executors, ThreadFactory}

import repro.core._

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Counts of one explained step, at the layer boundaries where the work and
  * the pruning happen.
  */
final case class StepCounts(colsScored: Int, topCols: Int, partitionsBuilt: Int,
                            partitionsDistinct: Int, pairs: Int, setsEvaluated: Int,
                            positive: Int, kept: Int)

/** Algorithm 1 rebuilt from the public layer functions, with a span around
  * each layer call. It mirrors `Fedex.explain` step for step, so its result
  * must equal explain's; the benchmark checks that it does.
  */
object Replay {

  // Contribution pairs run on 8 threads, as in Fedex.explain; daemon threads
  // so the pool never keeps the JVM alive.
  lazy val pool: ExecutionContext = ExecutionContext.fromExecutorService(
    Executors.newFixedThreadPool(8, new ThreadFactory {
      def newThread(r: Runnable): Thread = { val t = new Thread(r, "replay-pair"); t.setDaemon(true); t }
    }))

  /** Mirror of the private `Fedex.partitionTargets`. */
  def partitionTargets(step: Step, attr: String): Seq[(Int, String)] =
    step.op match {
      case _: FilterOp  => if (step.inputs.head.columns.contains(attr)) Seq(0 -> attr) else Seq.empty
      case j: JoinOp    => j.inputOf(attr).toSeq
      case _: UnionOp   => if (step.inputs.head.columns.contains(attr)) Seq(0 -> attr) else Seq.empty
      case g: GroupByOp => g.keys.map(0 -> _)
    }

  def explain(step: Step, cfg: FedexConfig, tracer: Tracer, pass: Int): (FedexResult, StepCounts) =
    tracer.span("explain", pass) { root =>
      def layer[T](name: String)(body: Int => T): T = tracer.span(name, pass, Some(root))(body)

      val attrs = cfg.userColumns.getOrElse {
        val excluded = Fedex.excludedAttrs(step)
        step.outputAttrs.filterNot(excluded)
      }
      val columnScores = layer("interestingness") { _ =>
        Interestingness.scores(step, attrs, cfg.maxBins, cfg.sampleRows, cfg.seed)
      }
      val topCols = columnScores.toSeq.sortBy { case (a, s) => (-s, a) }.take(cfg.topKColumns).map(_._1)

      val targets = topCols.flatMap(partitionTargets(step, _)).distinct
      var built = 0
      val partitionsByTarget: Map[(Int, String), Seq[RowPartition]] = targets.map { case (idx, pattr) =>
        val parts = layer("partition") { _ =>
          Partition.candidatesMulti(step.inputs(idx), pattr, cfg.nSets, cfg.enableManyToOne)
        }
        built += parts.size
        (idx, pattr) -> parts.groupBy(p => (p.method, p.labelAttr, p.sets)).values.map(_.head).toSeq
      }.toMap

      val measure = if (step.op.kind == "groupby") "diversity" else "exceptionality"
      val pairs: Seq[(String, Int, RowPartition)] = topCols.flatMap { a =>
        val ts = if (cfg.crossColumns) targets else partitionTargets(step, a)
        ts.flatMap { case (idx, pattr) =>
          partitionsByTarget.getOrElse((idx, pattr), Seq.empty).map(p => (a, idx, p))
        }
      }.distinct

      val results = layer("contribution") { cspan =>
        implicit val ec: ExecutionContext = pool
        val futures = pairs.map { case (a, idx, p) =>
          Future {
            tracer.span("contribution.pair", pass, Some(cspan)) { _ =>
              (a, p, Contribution.all(step, a, p, idx, cfg.maxBins))
            }
          }
        }
        Await.result(Future.sequence(futures), Duration.Inf)
      }
      val candidates = results.flatMap { case (a, p, res) =>
        res.toSeq.flatMap { r =>
          val std = r.standardized
          r.perSet.toSeq.collect {
            case (set, c) if c > 0 =>
              ExplanationCandidate(
                attr = a, measure = measure, method = p.method,
                partitionAttr = p.attr, labelAttr = p.labelAttr, set = set,
                interestingness = columnScores.getOrElse(a, r.full),
                contribution = c, stdContribution = std(set),
                stats = r.stats.getOrElse(set, SetStats()))
          }
        }
      }
      val setsEvaluated = results.map(_._3.fold(0)(_.perSet.size)).sum

      val explanations = layer("skyline") { _ =>
        val partitionOf = pairs.map { case (a, _, p) => (a, p.method, p.labelAttr) -> p }.toMap
        Skyline.of(candidates)(_.interestingness, _.stdContribution).map { c =>
          val p = partitionOf((c.attr, c.method, c.labelAttr))
          Explanation(c, Caption.render(c.measure, c.attr, p, c.set,
            c.interestingness, c.stdContribution, c.stats), c.weightedScore(cfg.wI, cfg.wC))
        }.sortBy(e => (-e.weightedScore, e.candidate.key))
      }

      val counts = StepCounts(
        colsScored = columnScores.size, topCols = topCols.size,
        partitionsBuilt = built, partitionsDistinct = partitionsByTarget.values.map(_.size).sum,
        pairs = pairs.size, setsEvaluated = setsEvaluated, positive = candidates.size,
        kept = explanations.size)
      (FedexResult(columnScores, candidates, explanations), counts)
    }
}
