package repro.util

import scala.collection.mutable

/** Wall-clock helpers for the experiment harnesses. */
object Timing {

  /** Run `f`, returning its result and elapsed seconds. */
  def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Accumulates named phase timings (e.g. the Fig 5 runtime breakdown). */
  final class StopWatch {
    private val acc = mutable.LinkedHashMap.empty[String, Double]

    def phase[T](name: String)(f: => T): T = {
      val (r, s) = timed(f)
      acc.update(name, acc.getOrElse(name, 0.0) + s)
      r
    }

    def snapshot: Map[String, Double] = acc.toMap
  }
}
