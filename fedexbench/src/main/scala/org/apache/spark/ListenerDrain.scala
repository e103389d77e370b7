package org.apache.spark

/** Blocks until the live listener bus has delivered every posted event.
  * `listenerBus` is package-private to Spark, hence this file's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
