package repro.perfbench

import org.apache.spark.{BenchBus, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Counters of one Spark job, filled from its stages' task-end events. */
final class JobStats(val group: String, val startMs: Long) {
  var stages = 0
  var tasks = 0
  var cpuNs = 0L
  var gcMs = 0L
  var schedDelayMs = 0L
  var inputRecords = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var resultBytes = 0L
}

/** Spark-layer counters of one public call, summed over its jobs. */
final case class CallStats(
    jobs: Int, roundJobs: Int, stages: Int, tasks: Int,
    cpuS: Double, gcS: Double, schedDelayS: Double,
    inputRecords: Long, roundInputRecords: Long,
    shuffleWriteBytes: Long, shuffleReadBytes: Long, resultBytes: Long)

/** Listener that attributes every job to the job group the benchmark set
  * around the public call that caused it. Call sites are no use here: on
  * Spark 4 a Dataset aggregate's jobs report a JDK future as their call site.
  */
final class GroupListener extends SparkListener {
  private val jobs = mutable.LinkedHashMap.empty[Int, JobStats]
  private val stageJob = mutable.HashMap.empty[Int, JobStats]
  private val stageSubmitMs = mutable.HashMap.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    val js = new JobStats(group, e.time)
    jobs.update(e.jobId, js)
    e.stageIds.foreach(id => if (!stageJob.contains(id)) stageJob.update(id, js))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val info = e.stageInfo
    stageSubmitMs.update(info.stageId, info.submissionTime.getOrElse(System.currentTimeMillis()))
    stageJob.get(info.stageId).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).foreach { js =>
      js.tasks += 1
      stageSubmitMs.get(e.stageId).foreach(s => js.schedDelayMs += math.max(0L, e.taskInfo.launchTime - s))
      val m = e.taskMetrics
      if (m != null) {
        js.cpuNs += m.executorCpuTime
        js.gcMs += m.jvmGCTime
        js.inputRecords += m.inputMetrics.recordsRead
        js.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        js.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        js.resultBytes += m.resultSize
      }
    }
  }

  /** Sum of the jobs of `group`; jobs started at or after `roundStartMs`
    * (epoch ms) are also counted separately as round jobs.
    */
  def stats(group: String, roundStartMs: Long): CallStats = synchronized {
    val js = jobs.values.filter(_.group == group).toSeq
    val rj = js.filter(_.startMs >= roundStartMs)
    CallStats(
      jobs = js.size, roundJobs = rj.size,
      stages = js.map(_.stages).sum, tasks = js.map(_.tasks).sum,
      cpuS = js.map(_.cpuNs).sum / 1e9, gcS = js.map(_.gcMs).sum / 1e3,
      schedDelayS = js.map(_.schedDelayMs).sum / 1e3,
      inputRecords = js.map(_.inputRecords).sum, roundInputRecords = rj.map(_.inputRecords).sum,
      shuffleWriteBytes = js.map(_.shuffleWriteBytes).sum,
      shuffleReadBytes = js.map(_.shuffleReadBytes).sum,
      resultBytes = js.map(_.resultBytes).sum)
  }
}

/** Tracing from outside the program: job groups around public calls, a
  * listener that counts their jobs, and storage-memory sampling. With
  * tracing off no listener is registered and no job group is set.
  */
final class SparkTrace(sc: SparkContext, val enabled: Boolean) {
  private val listener = new GroupListener
  private var seq = 0
  if (enabled) sc.addSparkListener(listener)

  /** Run `f` under a fresh job group; returns the group id. With tracing
    * on, `traced = false` runs `f` with the listener detached and no group,
    * as an untraced run would.
    */
  def scoped[T](label: String, traced: Boolean)(f: => T): (T, String) = {
    seq += 1
    val group = s"$label#$seq"
    if (enabled && traced) sc.setJobGroup(group, label, interruptOnCancel = false)
    if (enabled && !traced) { BenchBus.drain(sc); sc.removeSparkListener(listener) }
    try (f, group)
    finally {
      if (enabled && traced) sc.clearJobGroup()
      if (enabled && !traced) sc.addSparkListener(listener)
    }
  }

  /** Counters of one call, once the listener bus has caught up. */
  def stats(group: String, roundStartMs: Long = Long.MaxValue): CallStats = {
    BenchBus.drain(sc)
    listener.stats(group, roundStartMs)
  }

  /** Bytes held by cached and locally checkpointed blocks, in MB. */
  def storageMb: Double =
    sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  /** Storage after garbage the program dropped has been cleaned: collect,
    * then wait until the context cleaner has stopped removing blocks.
    */
  def settledStorageMb(): Double = {
    System.gc()
    var cur = storageMb
    var stable = 0
    var polls = 0
    while (stable < 2 && polls < 40) {
      Thread.sleep(25)
      val next = storageMb
      stable = if (next == cur) stable + 1 else 0
      cur = next; polls += 1
    }
    cur
  }
}
