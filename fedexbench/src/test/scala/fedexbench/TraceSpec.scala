package fedexbench

import java.util.concurrent.Executors

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

class TraceSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder().master("local[2]").appName("trace-spec")
    .config("spark.driver.host", "127.0.0.1").getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("covered length merges overlapping intervals and clips them") {
    val iv = Seq((1.0, 4.0), (3.0, 6.0), (8.0, 12.0), (20.0, 30.0))
    assert(Trace.covered(iv, 0.0, 10.0) === 7.0)
    assert(Trace.covered(Nil, 0.0, 10.0) === 0.0)
  }

  test("self time subtracts the union of overlapping children") {
    val root  = Span(0, "contribution", None, 0, 0.0, 10.0)
    val kids  = Seq(Span(1, "pair", Some(0), 0, 1.0, 4.0), Span(2, "pair", Some(0), 0, 3.0, 6.0),
                    Span(3, "pair", Some(0), 0, 8.0, 12.0))
    val other = Span(4, "pair", Some(9), 0, 0.0, 10.0) // not a child
    assert(math.abs(Trace.selfSeconds(root, root +: other +: kids) - 0.003) < 1e-12)
  }

  test("a job at the boundary millisecond goes to the later span") {
    val a = Span(0, "a", None, 0, 100.2, 150.0)
    val b = Span(1, "b", None, 0, 150.0, 200.0)
    val jobs = Seq(JobRec(1, 120, 130, 1, 0, 0), JobRec(2, 150, 160, 1, 0, 0), JobRec(3, 250, 260, 1, 0, 0))
    val (by, none) = Trace.attribute(jobs, Seq(b, a))
    assert(by(0).map(_.id) === Seq(1))
    assert(by(1).map(_.id) === Seq(2))
    assert(none.map(_.id) === Seq(3))
  }

  test("real Spark jobs are attributed by submission time, also from an older pool thread") {
    val sc  = spark.sparkContext
    val log = new JobLog
    sc.addSparkListener(log)
    try {
      // created (and its thread started) before any span opens, so it never
      // inherits a local property set inside one
      val pool = Executors.newFixedThreadPool(1)
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
      Await.result(Future(()), Duration.Inf)
      val tracer = new Tracer
      sc.parallelize(1 to 10, 2).count() // before any span
      tracer.span("a", 0) { _ => sc.parallelize(1 to 10, 2).count(); sc.parallelize(1 to 10, 3).count() }
      tracer.span("b", 0) { _ =>
        sc.parallelize(1 to 10, 2).count()
        Await.result(Future(sc.parallelize(1 to 10, 2).count()), Duration.Inf)
        Await.result(Future(sc.parallelize(1 to 10, 2).count()), Duration.Inf)
      }
      pool.shutdown()
      val jobs  = log.settled(sc)
      val spans = tracer.all
      val (by, none) = Trace.attribute(jobs, spans)
      def of(name: String) = by.getOrElse(spans.find(_.name == name).get.id, Nil)
      assert(jobs.size === 6)
      assert(of("a").size === 2)
      assert(of("a").map(_.tasks).sum === 5)
      assert(of("b").size === 3)
      assert(none.size === 1)
      assert(jobs.forall(j => j.cpuNs >= 0 && j.endMs >= j.submitMs))
    } finally sc.removeSparkListener(log)
  }
}
