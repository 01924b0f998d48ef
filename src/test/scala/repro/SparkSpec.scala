package repro

import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.call_udf
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.ring.{Cofactor, CofactorSchema, Triple}

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or to half of physical memory clamped to 2–8g when it
  * is unset. Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Spark jobs that `thunk` starts, counted by a listener scoped to a job
    * group of its own.
    */
  def jobsOf(spark: SparkSession)(thunk: => Any): Int = {
    val sc = spark.sparkContext
    val group = s"jobs-of-${System.nanoTime()}"
    val started = new java.util.concurrent.atomic.AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) started.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setJobGroup(group, group)
    try thunk
    finally { sc.clearJobGroup(); TestBus.drain(sc); sc.removeSparkListener(listener) }
    started.get
  }

  /** The cofactor triple of `df` under `schema` from the `sum_triple` UDAF
    * (the typed `Aggregator`), a reference independent of the evaluator
    * behind `Cofactor.triple` and `Plan.cofactor`.
    */
  def sumTriple(df: DataFrame, schema: CofactorSchema): Triple = {
    val name = s"sum_triple_${schema.k}_${schema.l}"
    if (!df.sparkSession.catalog.functionExists(name)) Cofactor.registerUdaf(df.sparkSession, name, schema.k, schema.l)
    val (c, d) = Cofactor.inputCols(schema)
    Triple.fromBytes(df.select(call_udf(name, c, d)).head().getAs[Array[Byte]](0))
  }
}
