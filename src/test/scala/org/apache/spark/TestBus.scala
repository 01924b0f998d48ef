package org.apache.spark

/** Lets a test wait until every listener event posted so far has been
  * delivered, so job counts are complete before they are read.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
