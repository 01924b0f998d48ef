package repro.mice

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{AirQuality, Missingness}
import repro.ring.Cofactor

/** The heart of Algorithm 2: maintaining the global cofactor with ring +/−
  * while imputations change must always equal recomputing it from scratch.
  * This spec replays the maintenance loop manually and checks the invariant
  * after every step.
  */
class IncrementalMaintenanceSpec extends SparkSpec {

  private lazy val base = AirQuality.table(spark, 2000).cache()
  private val schema = MiceSchema(AirQuality.Columns, Nil, Seq("pm25", "pm10", "o3"))
  private val cof = schema.cofactor

  /** Deterministic prediction column of a MICE model. */
  private def predictColumn(m: AttrModel): Column = m match {
    case ContAttrModel(r) => r.predictColumn(stochastic = false, seed = 0)
    case CatAttrModel(c) => c.predictColumn
  }

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

      val model = Imputation.train(cTrain, schema, t,
        MiceConfig(stochastic = false, seed = 1))
      cur = Imputation.updateWhereMasked(cur, schema, t, predictColumn(model))
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
      val model = Imputation.train(cTrain, sch, t, MiceConfig(stochastic = false))
      cur = Imputation.updateWhereMasked(cur, sch, t, predictColumn(model))
      c = cTrain.plus(Cofactor.triple(cur.filter(mask), sch.cofactor))
      assert(c.approxEquals(Cofactor.triple(cur, sch.cofactor), 1e-6), t)
    }
  }

  test("a full add/remove cycle leaves the cofactor numerically clean") {
    val t0 = Cofactor.triple(base, cof)
    val sub = Cofactor.triple(base.filter(col("aqi") > 100), cof)
    val cycled = t0.copyTriple().minus(sub).plus(sub).minus(sub).plus(sub)
    assert(cycled.approxEquals(t0, 1e-9))
  }
}
