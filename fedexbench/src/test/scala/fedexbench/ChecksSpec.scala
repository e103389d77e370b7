package fedexbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class ChecksSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder().master("local[2]").appName("checks-spec")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.sql.shuffle.partitions", "4").getOrCreate()

  override def afterAll(): Unit = spark.stop()

  /** A filter step whose explained attribute `w` has far more distinct
    * values than `maxBins`, so `Ks` buckets it on quantiles.
    */
  private def bucketedStep(): (Step, FedexConfig) = {
    import spark.implicits._
    val rows = (0 until 600).map { i =>
      val g = "abcd"(i % 4).toString
      val v = ((i * 7919) % 997) / 997.0
      (g, if (g == "a") v * 0.4 else v)
    }
    val df = rows.toDF("g", "w").cache()
    (Step(Seq(df), FilterOp("w > 0.3")), FedexConfig(maxBins = 8, userColumns = Some(Seq("w"))))
  }

  test("the top explanation on a bucketed attribute matches the literal intervention") {
    val (step, cfg) = bucketedStep()
    val r = Fedex.explain(step, cfg)
    assert(r.skyline.nonEmpty)
    assert(r.skyline.head.candidate.attr === "w")
    val (problems, gap) = Checks.exactTop(step, cfg, r)
    assert(problems === Nil)
    // Contribution.exact re-buckets the reduced input, so it does not match here
    assert(gap > 1e-9)
  }

  test("a top contribution off by 1e-6 fails the check") {
    val (step, cfg) = bucketedStep()
    val r   = Fedex.explain(step, cfg)
    val top = r.skyline.head
    val off = top.copy(candidate = top.candidate.copy(contribution = top.candidate.contribution + 1e-6))
    val (problems, _) = Checks.exactTop(step, cfg, r.copy(skyline = off +: r.skyline.tail))
    assert(problems.size === 1)
  }
}
