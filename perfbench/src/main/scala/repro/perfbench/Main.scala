package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.eval.Metrics
import repro.mice.{Imputation, MiceConfig}
import repro.ml.{LinearRegression, RegressionModel, Unpacked}
import repro.perfbench.Workload.{missCol, trueCol}
import repro.ring.{Cofactor, Factorized}
import scala.collection.mutable.ArrayBuffer

/** Command line: `--workload W --seed N --seconds S --trace 0|1`, plus
  * `--scale full|tiny` and `--fault truncate` for the self-test.
  */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      scale: String, fault: Option[String])

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      kv.getOrElse("scale", "full"), kv.get("fault"))
  }
}

/** Entry point: runs one workload and prints, as its last line, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv)
    val workload = Workload.byName(args.workload)
    val cores = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .getOrCreate()
    val code =
      try {
        val out = new Bench(spark, workload, args).run()
        println(out)
        0
      } catch {
        case e: Throwable =>
          Console.err.println(s"perfbench: ${workload.name} aborted: $e")
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }
}

/** One imputation call as measured. Storage figures are MB held above the
  * level before the call: `heldMb` with the output still referenced,
  * `retainedMb` after it was released and collected.
  */
final case class ImputeRec(role: String, traced: Boolean, secs: Double, preprocessSecs: Double,
                           roundSecs: Seq[Double], breakdown: Map[String, Double], nrmse: Double,
                           downstreamNrmse: Double, heldMb: Double, call: Option[CallStats], var retainedMb: Double = 0.0)

final case class TrainRec(kind: String, secs: Double, model: RegressionModel, call: Option[CallStats])

/** Runs a workload as a closed loop with one client: set-up, one warm-up
  * cycle, then timed cycles of every call until the time is up.
  */
final class Bench(spark: SparkSession, w: Workload, args: Args) {
  private val sc = spark.sparkContext
  private val cores = sc.defaultParallelism
  private val trace = new SparkTrace(sc, args.trace)
  private val rows = w.rows(args.scale)
  private val genSeed = 1000L + 104729L * args.seed
  private val cfg = MiceConfig(iterations = w.rounds, stochastic = true, seed = 7L + 7919L * args.seed)
  private val setups = 3
  // Training calls are short, so each cycle repeats the ring training, the
  // shorter and noisier one, for a steadier median.
  private val ringTrains = 5

  private var attempted = 0
  private var failed = 0
  private var truncateNext = args.fault.contains("truncate")
  private val imputes = ArrayBuffer.empty[ImputeRec]
  private val trains = ArrayBuffer.empty[TrainRec]
  private var inputs: Inputs = _
  private var truth: Truth = _

  private def secsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def fail(what: String, why: String): Unit = {
    failed += 1
    Console.err.println(s"perfbench: FAILED $what: $why")
  }

  /** Imputed cells against their true values: per continuous target, the
    * RMSE over its missing cells divided by the deviation of its true values,
    * averaged over the targets. `view` is an output in the joined view; the
    * second value is how many rows holding a missing cell were found in it
    * by their complete attributes.
    */
  private def cellNrmse(view: DataFrame): (Double, Long) = {
    val ts = w.contTargets(inputs.dims)
    val sq = ts.flatMap { t =>
      val miss = col(missCol(t))
      Seq(sum(when(miss, pow(col(t) - col(trueCol(t)), 2))), sum(miss.cast("long")))
    }
    val r = view.join(broadcast(truth.rows), w.completeAttrs(inputs.dims)).agg(count(lit(1)), sq: _*).head()
    val perTarget = ts.indices.map { i =>
      math.sqrt(r.getDouble(1 + 2 * i) / r.getLong(2 + 2 * i)) / truth.targetSd(ts(i))
    }
    (perTarget.sum / ts.size, r.getLong(0))
  }

  /** The cell score of a model trained on the complete training rows, each
    * missing cell predicted from the true values of the other attributes.
    */
  private def completeModelNrmse(): Double = {
    val all = w.combined(inputs.dims)
    val triple = Cofactor.triple(inputs.trainView, all)
    val ts = w.contTargets(inputs.dims)
    val rows = truth.rows.select(w.completeAttrs(inputs.dims).map(col) ++
      w.schema.targets.flatMap(t => Seq(col(trueCol(t)).as(t), col(missCol(t)))): _*)
    val sq = ts.flatMap { t =>
      val pred = LinearRegression.train(new Unpacked(all, triple), t, lambda = 1e-4)
        .predictColumn(stochastic = false, seed = 0)
      Seq(avg(when(col(missCol(t)), pow(pred - col(t), 2))))
    }
    val r = rows.agg(sq.head, sq.tail: _*).head()
    ts.indices.map(i => math.sqrt(r.getDouble(i)) / truth.targetSd(ts(i))).sum / ts.size
  }

  /** §6.4 protocol: ridge LR for the label trained on `view`, RMSE on the
    * complete held-out split, normalized by the label's deviation there.
    */
  private def downstreamNrmse(view: DataFrame): Double = {
    val model = LinearRegression.trainOn(view, w.combined(inputs.dims), w.label, lambda = 1e-4)
    Metrics.rmse(inputs.test, w.label, model.predictColumn(stochastic = false, seed = 0)) / inputs.labelSd
  }

  /** One imputation call: timed from the call until its output is counted,
    * then checked: row count, and unless `warm`, no nulls left in a target,
    * every row holding a missing cell found again and a finite nrmse.
    */
  private def impute(role: String, traced: Boolean, cfg: MiceConfig, warm: Boolean,
                     before: Double): Option[ImputeRec] = {
    attempted += 1
    val what = s"$role (${if (role == "ref") w.refMethod else w.optMethod})"
    try {
      val startMs = System.currentTimeMillis()
      val t0 = System.nanoTime()
      // The output is counted, and its rows with a null target with it.
      val anyNull = w.schema.targets.map(t => col(t).isNull).reduce(_ || _)
      val ((im, n, nulls), group) = trace.scoped(role, traced) {
        val im = if (role == "ref") w.runRef(inputs, cfg) else w.runOpt(inputs, cfg)
        val out = if (truncateNext) im.out.limit((inputs.miceRows - 1).toInt) else im.out
        val c = out.agg(count(lit(1)), sum(anyNull.cast("long"))).head()
        (im, c.getLong(0), if (c.isNullAt(1)) 0L else c.getLong(1))
      }
      val secs = secsSince(t0)
      truncateNext = false
      val heldMb = trace.settledStorageMb() - before
      val call = if (traced) Some(trace.stats(group, startMs + (im.preprocessSecs * 1000).toLong)) else None
      val (nrmse, found) = if (warm) (0.0, 0L) else cellNrmse(im.view)
      val downstream = if (warm || !traced) 0.0 else downstreamNrmse(im.view)
      im.release()
      val problems = Seq(
        Option.when(n != inputs.miceRows)(s"output has $n rows, input ${inputs.miceRows}"),
        Option.when(nulls > 0)(s"$nulls rows still have a null target"),
        Option.when(!warm && found != truth.count)(
          s"$found of ${truth.count} rows with a missing cell found with their observed values"),
        Option.when(!nrmse.isFinite)(s"nrmse is $nrmse")).flatten
      Console.err.println(f"perfbench: $what%-26s $secs%8.3f s  rounds ${im.roundSecs.map(x => f"$x%.3f").mkString(" ")}")
      if (problems.nonEmpty) { fail(what, problems.mkString("; ")); None }
      else Some(ImputeRec(role, traced, secs, im.preprocessSecs, im.roundSecs, im.breakdown, nrmse,
        downstream, heldMb, call))
    } catch { case e: Exception => fail(what, e.toString); None }
  }

  /** An imputation call; traced runs also sample the storage it left behind. */
  private def imputeAndSettle(role: String, traced: Boolean, cfg: MiceConfig, warm: Boolean): Unit = {
    val before = trace.settledStorageMb()
    impute(role, traced, cfg, warm, before).foreach { r =>
      if (args.trace) r.retainedMb = trace.settledStorageMb() - before
      imputes += r
    }
  }

  /** Train ridge LR for the label over the complete join, by materializing
    * the join into a ring aggregate or by factorized evaluation.
    */
  private def train(kind: String): Option[TrainRec] = {
    attempted += 1
    try {
      val t0 = System.nanoTime()
      val (model, group) = trace.scoped(s"train_$kind", args.trace) {
        if (kind == "ring") {
          val all = w.combined(inputs.dims)
          val triple = Cofactor.triple(Workload.joinDims(inputs.fact, inputs.dims), all)
          LinearRegression.train(new Unpacked(all, triple), w.label)
        } else {
          val plan = Factorized.plan(spark, w.factSchema, inputs.dims, w.hierarchy)
          LinearRegression.train(new Unpacked(plan.combined, plan.cofactor(inputs.fact)), w.label)
        }
      }
      val secs = secsSince(t0)
      Console.err.println(f"perfbench: train_$kind%-20s $secs%8.3f s")
      Some(TrainRec(kind, secs, model, Option.when(args.trace)(trace.stats(group))))
    } catch { case e: Exception => fail(s"train_$kind", e.toString); None }
  }

  /** Coefficients keyed by attribute name (and category code). */
  private def coefs(m: RegressionModel): Map[String, Double] =
    Map("(intercept)" -> m.intercept) ++ m.schema.cont.zip(m.wCont) ++
      m.schema.cat.zipWithIndex.flatMap { case (c, j) => m.wCat(j).map { case (v, x) => s"$c=$v" -> x } }

  /** Largest coefficient difference, relative to the largest coefficient. */
  private def disagreement(a: RegressionModel, b: RegressionModel): Double = {
    val (ca, cb) = (coefs(a), coefs(b))
    if (ca.keySet != cb.keySet) Double.PositiveInfinity
    else {
      val scale = math.max(1e-12, ca.values.map(math.abs).max)
      ca.keys.map(k => math.abs(ca(k) - cb(k))).max / scale
    }
  }

  /** The cycle's trainings; each factorized model is checked against the
    * last ring model.
    */
  private def trainAll(): Unit = {
    val rings = (1 to ringTrains).flatMap(_ => train("ring"))
    trains ++= rings
    for (f <- (1 to w.factorizedTrains).flatMap(_ => train("factorized"))) {
      val d = rings.lastOption.fold(0.0)(r => disagreement(r.model, f.model))
      if (d > 1e-6) fail("train_factorized", s"coefficients differ from ring training by $d (relative)")
      else trains += f
    }
  }

  private def cycle(cfg: MiceConfig, warm: Boolean): Unit = {
    // Untraced calls in a traced run give `trace.overhead_s`.
    if (args.trace && !warm) imputeAndSettle("ref", traced = false, cfg, warm)
    imputeAndSettle("ref", args.trace, cfg, warm)
    imputeAndSettle("opt", args.trace, cfg, warm)
    trainAll()
  }

  def run(): String = {
    val setupSecs = (1 to setups).map { _ =>
      if (inputs != null) inputs.release()
      val t0 = System.nanoTime()
      inputs = w.setup(spark, rows, genSeed)
      secsSince(t0)
    }
    val genSecs = inputs.genSecs
    truth = w.truth(inputs)

    // Warm-up: JIT, code generation and lazy initialisation, not counted.
    // One round exercises every code path of an imputation call.
    val tw = System.nanoTime()
    cycle(cfg.copy(iterations = 1), warm = true)
    imputes.clear(); trains.clear()
    Console.err.println(f"perfbench: setup ${setupSecs.sum}%.1f s, warm-up ${secsSince(tw)}%.1f s")

    // Timed cycles until the time is used up, and untraced at least two, so
    // that a slow spell does not leave an end-to-end metric with a single
    // sample per call. Per-layer metrics have no bound; one cycle will do.
    val minCycles = if (args.trace) 1 else 2
    val t0 = System.nanoTime()
    var cycles = 0
    while (cycles < minCycles || secsSince(t0) < args.seconds) { cycle(cfg, warm = false); cycles += 1 }
    val measuredSecs = secsSince(t0)

    val metrics =
      if (!args.trace) endToEnd(setupSecs)
      else perLayer(genSecs)
    val context = Json.obj(Seq(
      "workload" -> Json.str(w.name), "ref" -> Json.str(w.refMethod), "opt" -> Json.str(w.optMethod),
      "rows" -> Json.num(rows.toDouble), "cores" -> Json.num(cores.toDouble),
      "cycles" -> Json.num(cycles.toDouble), "measured_s" -> Json.num(measuredSecs),
      "breakdown" -> Json.obj(imputes.filter(_.traced == args.trace).groupBy(_.role).toSeq.sortBy(_._1)
        .map { case (role, rs) => role -> Json.obj(rs.last.breakdown.toSeq.sorted.map { case (k, v) => k -> Json.num(v) }) })))
    println(Json.obj(Seq("context" -> context)))
    metrics.foreach { case (n, v, u) => println(f"  $n%-40s $v%14.6f $u") }
    Json.obj(Seq(
      "correct" -> Json.bool(failed == 0),
      "attempted" -> Json.num(attempted.toDouble),
      "failed" -> Json.num(failed.toDouble),
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) })))
  }

  private def med(xs: Iterable[Double]): Double = if (xs.isEmpty) Double.NaN else Stats.median(xs.toSeq)

  private def of(role: String, traced: Boolean) = imputes.filter(r => r.role == role && r.traced == traced)

  private def endToEnd(setupSecs: Seq[Double]): Seq[(String, Double, String)] = {
    val roles = Seq("ref", "opt")
    Seq(("setup_s", med(setupSecs), "s")) ++
      roles.map(r => (s"impute_s.$r", med(of(r, false).map(_.secs)), "s")) ++
      roles.map(r => (s"round_s.$r", med(of(r, false).flatMap(_.roundSecs)), "s")) ++
      Seq("ring", "factorized").map(k => (s"train_s.$k", med(trains.filter(_.kind == k).map(_.secs)), "s")) ++
      Seq(("nrmse", roles.map(r => med(of(r, false).map(_.nrmse))).max, "ratio"),
        ("storage_mb", imputes.map(_.heldMb).maxOption.getOrElse(Double.NaN), "MB"))
  }

  /** Median over the calls of a role of one Spark counter. */
  private def spark(role: String, f: (ImputeRec, CallStats) => Double): Double =
    med(of(role, true).flatMap(r => r.call.map(c => f(r, c))))

  private def perLayer(genSecs: Double): Seq[(String, Double, String)] = {
    val out = ArrayBuffer.empty[(String, Double, String)]
    for (r <- Seq("ref", "opt")) {
      out ++= Seq(
        (s"$r.spark.jobs", spark(r, (_, c) => c.jobs), "count"),
        (s"$r.spark.jobs_per_round", spark(r, (i, c) => c.roundJobs.toDouble / i.roundSecs.size), "count"),
        (s"$r.spark.stages", spark(r, (_, c) => c.stages), "count"),
        (s"$r.spark.tasks", spark(r, (_, c) => c.tasks), "count"),
        (s"$r.spark.sched_delay_s", spark(r, (_, c) => c.schedDelayS), "s"),
        (s"$r.spark.cpu_util", spark(r, (i, c) => c.cpuS / (i.secs * cores)), "ratio"),
        (s"$r.spark.cpu_s", spark(r, (_, c) => c.cpuS), "s"),
        (s"$r.spark.wall_per_job_ms", spark(r, (i, c) => i.secs * 1000 / c.jobs), "ms"),
        (s"$r.spark.gc_s", spark(r, (_, c) => c.gcS), "s"),
        (s"$r.spark.input_records", spark(r, (_, c) => c.inputRecords.toDouble), "count"),
        (s"$r.spark.shuffle_write_bytes", spark(r, (_, c) => c.shuffleWriteBytes.toDouble), "B"),
        (s"$r.spark.shuffle_read_bytes", spark(r, (_, c) => c.shuffleReadBytes.toDouble), "B"),
        (s"$r.spark.result_bytes", spark(r, (_, c) => c.resultBytes.toDouble), "B"),
        (s"$r.rows_read_per_imputed_cell", spark(r, (i, c) =>
          c.roundInputRecords.toDouble / (inputs.missingCells * i.roundSecs.size)), "ratio"),
      )
      val rs = of(r, true)
      def phaseOf(b: Map[String, Double], pred: String => Boolean) = b.filter(p => pred(p._1)).values.sum
      def phase(pred: String => Boolean) = med(rs.map(i => phaseOf(i.breakdown, pred)))
      val isCofactor = (p: String) => p.contains("cofactor") || p == "dim_partials"
      out ++= Seq(
        (s"$r.impute_s", med(rs.map(_.secs)), "s"),
        (s"$r.round_s", med(rs.flatMap(_.roundSecs)), "s"),
        (s"$r.preprocess_s", med(rs.map(_.preprocessSecs)), "s"),
        (s"$r.phase.cofactor_s", phase(isCofactor), "s"),
        (s"$r.phase.cofactor_share", med(rs.map(i => phaseOf(i.breakdown, isCofactor) / i.secs)), "ratio"),
        (s"$r.phase.train_s", phase(_ == "train"), "s"),
        (s"$r.phase.update_s", phase(_ == "update"), "s"),
        (s"$r.nrmse", med(rs.map(_.nrmse)), "ratio"),
        (s"$r.downstream_nrmse", med(rs.map(_.downstreamNrmse)), "ratio"),
        (s"$r.storage.held_mb", rs.map(_.heldMb).maxOption.getOrElse(Double.NaN), "MB"),
        (s"$r.storage.retained_mb", rs.map(_.retainedMb).maxOption.getOrElse(Double.NaN), "MB"),
      )
    }
    for (k <- Seq("ring", "factorized")) {
      val ts = trains.filter(_.kind == k)
      out ++= Seq(
        (s"train_$k.spark.jobs", med(ts.flatMap(_.call.map(_.jobs.toDouble))), "count"),
        (s"train_$k.spark.shuffle_write_bytes", med(ts.flatMap(_.call.map(_.shuffleWriteBytes.toDouble))), "B"),
        (s"train_$k.spark.cpu_s", med(ts.flatMap(_.call.map(_.cpuS))), "s"),
      )
    }
    val refRound = med(of("ref", true).flatMap(_.roundSecs))
    val refImpute = med(of("ref", true).map(_.secs))
    val ringTrain = med(trains.filter(_.kind == "ring").map(_.secs))
    out ++= Seq(
      ("shape.opt_vs_ref.round_s", med(of("opt", true).flatMap(_.roundSecs)) / refRound, "ratio"),
      ("shape.opt_vs_ref.round_s.base", refRound, "s"),
      ("shape.opt_vs_ref.impute_s", med(of("opt", true).map(_.secs)) / refImpute, "ratio"),
      ("shape.opt_vs_ref.impute_s.base", refImpute, "s"),
      ("shape.factorized_vs_ring.train_s", med(trains.filter(_.kind == "factorized").map(_.secs)) / ringTrain, "ratio"),
      ("shape.factorized_vs_ring.train_s.base", ringTrain, "s"),
      ("trace.overhead_s", refImpute - med(of("ref", false).map(_.secs)), "s"),
      ("data.gen_s", genSecs, "s"),
    )
    out ++= directCalls()
    out ++= RingMicro.run(w.ringShape, if (args.scale == "tiny") 2000 else 20000, args.seed)
    out.toSeq
  }

  /** Median seconds of `reps` calls of `f`. */
  private def timeReps(reps: Int)(f: => Any): Double =
    med((1 to reps).map { _ => val t0 = System.nanoTime(); f; secsSince(t0) })

  /** Single public calls into `mice` and `ring`, timed on their own. */
  private def directCalls(): Seq[(String, Double, String)] = {
    val reps = 3
    val schema = w.schema
    val all = w.combined(inputs.dims)

    val masked = Imputation.addMasks(inputs.miceInput, schema)
    var cur: DataFrame = null
    val initS = timeReps(reps) {
      val m = Imputation.addMasks(inputs.miceInput, schema)
      cur = Imputation.initImpute(m, schema, Imputation.initialGuesses(m, schema)).localCheckpoint(true)
    }
    val t = schema.targets.head
    val updateS = timeReps(reps)(Imputation.updateWhereMasked(cur, schema, t, col(t) + lit(1.0)))
    val meanImputed = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
      .drop(schema.maskCols: _*)
    val meanView = w.view(meanImputed, inputs.dims)
    val nrmseMean = cellNrmse(meanView)._1
    val nrmseComplete = completeModelNrmse()
    val downstreamMean = downstreamNrmse(meanView)
    val downstreamComplete = downstreamNrmse(inputs.trainView)

    val joined = Workload.joinDims(inputs.fact, inputs.dims).cache()
    val joinedRows = joined.count()
    val tripleS = timeReps(reps)(Cofactor.triple(joined, all))
    joined.unpersist(blocking = true)
    var plan: Factorized.Plan = null
    val planS = timeReps(reps) { plan = Factorized.plan(spark, w.factSchema, inputs.dims, w.hierarchy) }
    val factS = timeReps(reps)(plan.cofactor(inputs.fact))
    val slice = inputs.fact.filter(rand(genSeed + 5) < w.rate).cache()
    slice.count()
    val flatS = timeReps(reps)(plan.cofactor(slice, hierarchical = false))
    val enrichS = timeReps(reps)(plan.enrich(slice).count())
    slice.unpersist(blocking = true)

    Seq(
      ("mice.init_s", initS, "s"),
      ("mice.update_s", updateS, "s"),
      ("quality.nrmse_mean", nrmseMean, "ratio"),
      ("quality.nrmse_complete", nrmseComplete, "ratio"),
      ("quality.downstream_nrmse_mean", downstreamMean, "ratio"),
      ("quality.downstream_nrmse_complete", downstreamComplete, "ratio"),
      ("ring.triple_s", tripleS, "s"),
      ("ring.triple_mrows_per_s", joinedRows / tripleS / 1e6, "Mrows/s"),
      ("ring.plan_s", planS, "s"),
      ("ring.fact_cofactor_s", factS, "s"),
      ("ring.fact_cofactor_flat_s", flatS, "s"),
      ("ring.enrich_s", enrichS, "s"),
    )
  }
}

/** Minimal JSON rendering; numbers keep every digit. */
object Json {
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else java.lang.Double.toString(d)
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
  } + "\""
  def bool(b: Boolean): String = b.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
