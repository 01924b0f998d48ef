package repro.mice

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{AirQuality, Missingness}
import repro.ring.{Cofactor, Triple}

/** The heart of Algorithm 2: maintaining the global cofactor with ring +/−
  * while imputations change must always equal recomputing it from scratch.
  * This spec replays the maintenance loop manually and checks the invariant
  * after every step.
  */
class IncrementalMaintenanceSpec extends SparkSpec {

  private lazy val base = AirQuality.table(spark, 2000).cache()
  private val schema = MiceSchema(AirQuality.Columns, Nil, Seq("pm25", "pm10", "o3"))
  private val cof = schema.cofactor

  test("C − ΔC + ΔC_new tracks the recomputed global cofactor across updates") {
    val holey = Missingness.mcar(base, schema.targets, 0.3, seed = 13)
    val masked = Imputation.addMasks(holey, schema)
    var cur = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
      .localCheckpoint(true)
    var c = Cofactor.triple(cur, cof)

    for (iter <- 0 until 2; t <- schema.targets) {
      val mask = col(schema.maskCol(t))
      // ΔC over the missing part (Alg 2, l.5).
      val delta = Cofactor.triple(cur.filter(mask), cof)
      val cTrain = c.copyTriple().minus(delta)
      // The training cofactor must equal a direct aggregate over the observed part.
      val direct = Cofactor.triple(cur.filter(!mask), cof)
      assert(cTrain.approxEquals(direct, 1e-6), s"iter=$iter target=$t (train cofactor)")

      val model = Imputation.train(cTrain, schema, t)
      cur = Imputation.updateWhereMasked(cur, schema, t, model.predictColumn)
      // ΔC_new over the refreshed rows (Alg 2, l.9-10).
      val deltaNew = Cofactor.triple(cur.filter(mask), cof)
      c = cTrain.plus(deltaNew)
      // Invariant: the maintained C equals a full recompute.
      val recomputed = Cofactor.triple(cur, cof)
      assert(c.approxEquals(recomputed, 1e-6), s"iter=$iter target=$t (global cofactor)")
    }
  }

  test("maintenance works with categorical targets (relational entries)") {
    val cat = base.withColumn("grade", (col("aqi") > 100).cast("int"))
      .withColumn("windy", (col("windspeed") > 8).cast("int"))
    val sch = MiceSchema(AirQuality.Columns, Seq("grade", "windy"), Seq("pm25", "grade"))
    val holey = Missingness.mcar(cat, sch.targets, 0.25, seed = 14)
    val masked = Imputation.addMasks(holey, sch)
    var cur = Imputation.initImpute(masked, sch, Imputation.initialGuesses(masked, sch))
      .localCheckpoint(true)
    var c = Cofactor.triple(cur, sch.cofactor)

    for (t <- sch.targets) {
      val mask = col(sch.maskCol(t))
      val delta = Cofactor.triple(cur.filter(mask), sch.cofactor)
      val cTrain = c.copyTriple().minus(delta)
      assert(cTrain.approxEquals(Cofactor.triple(cur.filter(!mask), sch.cofactor), 1e-6), t)
      val model = Imputation.train(cTrain, sch, t)
      cur = Imputation.updateWhereMasked(cur, sch, t, model.predictColumn)
      c = cTrain.plus(Cofactor.triple(cur.filter(mask), sch.cofactor))
      assert(c.approxEquals(Cofactor.triple(cur, sch.cofactor), 1e-6), t)
    }
  }

  /** 25 rounds of C − ΔC + ΔC_new in memory over 600 rows with x1, x3 and
    * c complete and `targets` (of x2, y) 20% missing; x1, x2, x3 and y are
    * multiplied by `scale`, and y is offset by `offset`. Every step trains the
    * model of the maintained triple and the model of a recompute over the
    * rows observing the target, and compares their continuous weights and
    * their predictions on every row; the maintained model imputes.
    */
  private def maintainAtScale(scale: Double, offset: Double, targets: Seq[String]): Unit = {
    val n = 600
    val sch = MiceSchema(Seq("x1", "x2", "x3", "y"), Seq("c"), targets)
    val rng = new scala.util.Random(21)
    val cat = Array.tabulate(n)(i => Array(i % 3))
    val cont = Array.tabulate(n) { i =>
      val x1 = rng.nextGaussian(); val x3 = rng.nextGaussian()
      val x2 = 2.0 * x1 - x3 + rng.nextGaussian()
      val y = 3.0 + 2.0 * x1 - 1.5 * x2 + x3 + 4.0 * cat(i)(0) + 0.5 * rng.nextGaussian()
      Array(x1 * scale, x2 * scale, x3 * scale, offset + y * scale)
    }
    val tIdx = targets.map(sch.cont.indexOf)
    val missing = tIdx.map(_ => Array.fill(n)(rng.nextDouble() < 0.2))
    for ((j, miss) <- tIdx.zip(missing)) {
      val obs = (0 until n).filterNot(miss(_))
      val mean = obs.map(cont(_)(j)).sum / obs.size
      for (i <- 0 until n if miss(i)) cont(i)(j) = mean
    }
    def fold(rows: Iterable[Int]): Triple = {
      val t = Triple.zero(4, 1)
      for (i <- rows) t.addRow(cont(i), cat(i))
      t
    }
    var c = fold(0 until n)
    for (round <- 0 until 25; (t, ti) <- targets.zipWithIndex) {
      val (j, miss) = (tIdx(ti), missing(ti))
      val rows = (0 until n).filter(miss(_))
      val cTrain = c.minus(fold(rows))
      val ContAttrModel(kept) = Imputation.train(cTrain, sch, t)
      val ContAttrModel(fresh) = Imputation.train(fold((0 until n).filterNot(miss(_))), sch, t)
      for (w <- kept.wCont.indices)
        assert(math.abs(kept.wCont(w) - fresh.wCont(w)) <= 1e-6 * (1 + math.abs(fresh.wCont(w))),
          s"round $round, $t: weight $w ${kept.wCont(w)} vs ${fresh.wCont(w)}")
      for (i <- 0 until n)
        assert(math.abs(kept.predict(cont(i), cat(i)) - fresh.predict(cont(i), cat(i))) <= 1e-6 * scale,
          s"round $round, $t: row $i")
      for (i <- rows) cont(i)(j) = kept.predict(cont(i), cat(i))
      c = cTrain.plus(fold(rows))
    }
    // The models are not degenerate at this scale: y's slope on x1 (in units
    // of x1) is recovered.
    val ContAttrModel(y) = Imputation.train(c, sch, "y")
    assert(math.abs(y.wCont(0) - 2.0) < 0.2, s"y slope on x1 ${y.wCont(0)}")
  }

  test("25 rounds of C − ΔC + ΔC_new over data scaled by 1e-8 train the models of a recompute") {
    maintainAtScale(1e-8, 0.0, Seq("x2", "y"))
  }

  test("25 rounds of C − ΔC + ΔC_new with a target offset by 1e8 train the models of a recompute") {
    maintainAtScale(1.0, 1e8, Seq("y"))
  }

  test("a full add/remove cycle leaves the cofactor numerically clean") {
    val t0 = Cofactor.triple(base, cof)
    val sub = Cofactor.triple(base.filter(col("aqi") > 100), cof)
    val cycled = t0.copyTriple().minus(sub).plus(sub).minus(sub).plus(sub)
    assert(cycled.approxEquals(t0, 1e-9))
  }
}
