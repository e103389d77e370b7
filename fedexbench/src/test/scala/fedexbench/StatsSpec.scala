package fedexbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) === 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) === 2.5)
  }

  test("tail is the highest percentile with ten samples above it") {
    assert(Stats.tail((1 to 99).map(_.toDouble)).isEmpty)
    assert(Stats.tail((1 to 100).map(_.toDouble).reverse) === Some(90.0 -> 90.0))
    assert(Stats.tail((1 to 999).map(_.toDouble)) === Some(90.0 -> 900.0))
    assert(Stats.tail((1 to 1000).map(_.toDouble)) === Some(99.0 -> 990.0))
    assert(Stats.tail((1 to 10000).map(_.toDouble)) === Some(99.9 -> 9990.0))
  }

  test("summary carries the sample count") {
    val s = Stats.summary((1 to 12).map(_.toDouble))
    assert(s.n === 12)
    assert(s.median === 6.5)
    assert(s.tail.isEmpty)
    assert(Stats.summary(Seq(5.0)) === Stats.Summary(1, 5.0, None))
  }

  test("frac of an empty whole is 0") {
    assert(Stats.frac(3, 0) === 0.0)
    assert(Stats.frac(1, 4) === 0.25)
  }
}
