package org.apache.spark

/** Lets the benchmark wait until every listener event posted so far has been
  * delivered, so per-call counters are complete before they are read.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
