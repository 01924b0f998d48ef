package repro.baselines

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{AirQuality, Flight, Missingness}
import repro.mice.{MiceBaseline, MiceConfig, MiceSchema, MiceSpec}
import repro.ring.CofactorSchema
import scala.util.Random

/** Competitor simulators: mean imputation (oracle-checked), the one-hot +
  * scalar-SUM MICE (SystemDS/MADlib/"MICE Python" profile), MissForest-lite
  * on MLlib random forests (regression and classification targets), and the
  * autoencoder (GAIN/MIDAS-sim).
  */
class BaselinesSpec extends SparkSpec {

  private lazy val aq = AirQuality.table(spark, 4000).cache()
  private val schema = MiceSchema(AirQuality.Columns, Nil, Seq("pm25", "pm10", "o3"))
  private lazy val holey = Missingness.mcar(aq, schema.targets, 0.2, seed = 2).cache()

  // ---- mean imputation -----------------------------------------------------

  test("mean imputation fills every null with the column mean (oracle-checked)") {
    import spark.implicits._
    val out = MeanImputer.impute(holey, schema).imputed
    assert(schema.targets.forall(t => out.filter(col(t).isNull).count() == 0))
    val sparkSide = Seq((
      round4(out.select(avg("pm25")).head().getDouble(0)),
    )).toDF("m")
    // Mean of the imputed column equals the observed mean (mean imputation is mean-preserving).
    Oracle.assertEquivalent(sparkSide,
      "SELECT ROUND(AVG(CAST(pm25 AS DOUBLE)), 4) AS m FROM t",
      "t" -> holey)
  }

  test("mean imputation shrinks the column variance (the §1 pathology)") {
    val out = MeanImputer.impute(holey, schema).imputed
    val vOut = out.select(var_pop("pm25")).head().getDouble(0)
    val vOrig = aq.select(var_pop("pm25")).head().getDouble(0)
    assert(vOut < vOrig * 0.95, s"imputed var=$vOut original=$vOrig")
  }

  // ---- MiceDirect (SystemDS / MADlib / MICE Python simulator) --------------

  test("MiceDirect imputes every missing value") {
    val r = MiceDirect.impute(holey, schema, iterations = 2)
    assert(r.imputed.count() == aq.count())
    assert(schema.targets.forall(t => r.imputed.filter(col(t).isNull).count() == 0))
  }

  test("scalar-SUM cofactor equals the ring triple") {
    // Without o_region 2, whose one-hot column is then all zero.
    val cof = CofactorSchema(Flight.JoinedCont, Flight.JoinedCat)
    val (encoded, codes) = MiceDirect.oneHot(Flight.normalized(spark, 3000).joined, cof.cat)
    val sample = encoded.filter(col("o_region") =!= 2).cache()
    val (scalar, ring) = (MiceDirect.scalarCofactor(sample, cof, codes), SparkSpec.sumTriple(sample, cof))
    assert(scalar.approxEquals(ring, 1e-9))
    assert(scalar.scat.map(_.keySet.toSet).toSeq == ring.scat.map(_.keySet.toSet).toSeq)
    assert(!scalar.scat(cof.catIdx("o_region")).contains(2))
    sample.unpersist()
  }

  test("MiceDirect matches MiceBaseline cell for cell") {
    val graded = aq.withColumn("grade", (col("aqi") / 40).cast("int"))
    val mixed = MiceSchema(AirQuality.Columns, Seq("grade"), Seq("pm25", "grade", "o3"))
    val holeyMixed = Missingness.mcar(graded, mixed.targets, 0.2, seed = 4)
    for ((df, sch) <- Seq(holey -> schema, holeyMixed -> mixed)) {
      val ring = MiceBaseline.impute(df, sch, MiceConfig(iterations = 2, stochastic = false))
      MiceSpec.assertSameCells(ring.imputed, MiceDirect.impute(df, sch, iterations = 2).imputed, "aqi", sch)
    }
  }

  test("MiceDirect handles categorical targets via LDA") {
    val cat = aq.withColumn("grade", (col("aqi") > 100).cast("int"))
    val sch = MiceSchema(AirQuality.Columns, Seq("grade"), Seq("grade"))
    val holeyCat = Missingness.mcar(cat, Seq("grade"), 0.3, seed = 5)
    val r = MiceDirect.impute(holeyCat, sch, iterations = 1)
    assert(r.imputed.filter(col("grade").isNull).count() == 0)
    // Imputations must beat the mode baseline in accuracy.
    val joined = r.imputed.select(col("aqi").as("k"), col("grade").as("imp"))
      .join(cat.select(col("aqi").as("k"), col("grade").as("tru")), "k")
      .join(holeyCat.select(col("aqi").as("k"), col("grade").as("obs")), "k")
      .filter(col("obs").isNull)
    val acc = joined.select(avg((col("imp") === col("tru")).cast("double"))).head().getDouble(0)
    assert(acc > 0.7, s"accuracy=$acc")
  }

  test("MiceDirect mask features (MIRACLE-lite) run and impute completely") {
    val r = MiceDirect.impute(holey, schema, iterations = 1, maskFeatures = true)
    assert(schema.targets.forall(t => r.imputed.filter(col(t).isNull).count() == 0))
  }

  test("MiceDirect imputes when a category occurs only where the target is missing") {
    // Zone 9 marks exactly the rows missing pm25, so its one-hot column is all
    // zero over the rows that train pm25's model.
    val zoned = Missingness.mcar(aq, Seq("pm25"), 0.2, seed = 2)
      .withColumn("zone", when(col("pm25").isNull, 9).otherwise(col("aqi").cast("int") % 3))
    val sch = MiceSchema(AirQuality.Columns, Seq("zone"), Seq("pm25"))
    val r = MiceDirect.impute(zoned, sch, iterations = 1)
    assert(r.imputed.count() == aq.count())
    assert(r.imputed.filter(col("pm25").isNull || isnan(col("pm25"))).count() == 0)
  }

  test("MiceDirect, MissForestLite and MeanImputer reject a null in an attribute that is not a target") {
    val sch = MiceSchema(AirQuality.Columns, Nil, Seq("pm25"))
    val pm10Holey = Missingness.mcar(Missingness.mcar(aq, Seq("pm10"), 0.1, seed = 5), Seq("pm25"), 0.2, seed = 6)
    for ((name, impute) <- Seq[(String, () => Any)](
      "MiceDirect" -> (() => MiceDirect.impute(pm10Holey, sch, iterations = 1)),
      "MissForestLite" -> (() => MissForestLite.impute(pm10Holey, sch, MissForestLite.Config(iterations = 1))),
      "MeanImputer" -> (() => MeanImputer.impute(pm10Holey, sch)))) {
      val e = intercept[IllegalArgumentException](impute())
      assert(e.getMessage.contains("attribute pm10"), s"$name: ${e.getMessage}")
    }
  }

  // ---- MissForest-lite -----------------------------------------------------

  test("MissForestLite imputes everything and beats mean imputation") {
    val r = MissForestLite.impute(holey, schema, MissForestLite.Config(iterations = 2))
    assert(schema.targets.forall(t => r.imputed.filter(col(t).isNull).count() == 0))
    def errMissing(imp: org.apache.spark.sql.DataFrame): Double = {
      val j = imp.select(col("aqi").as("k"), col("pm25").as("imp"))
        .join(aq.select(col("aqi").as("k"), col("pm25").as("tru")), "k")
        .join(holey.select(col("aqi").as("k"), col("pm25").as("obs")), "k")
        .filter(col("obs").isNull)
      math.sqrt(j.select(avg(pow(col("imp") - col("tru"), 2))).head().getDouble(0))
    }
    val meanOut = MeanImputer.impute(holey, schema).imputed
    assert(errMissing(r.imputed) < errMissing(meanOut) * 0.9)
  }

  test("MissForestLite imputes a categorical target with codes observed in its column") {
    val flight = Flight.normalized(spark, 3000).joined.cache()
    val sch = MiceSchema(Flight.JoinedCont, Flight.JoinedCat, Seq("diverted"))
    val holeyCat = Missingness.mcar(flight, sch.targets, 0.2, seed = 8).cache()
    val r = MissForestLite.impute(holeyCat, sch, MissForestLite.Config(iterations = 1))
    assert(r.imputed.filter(col("diverted").isNull).count() == 0)
    val observed = holeyCat.filter(col("diverted").isNotNull).select("diverted").distinct()
      .collect().map(_.getInt(0)).toSet
    // The output keeps only the schema's attributes; two complete continuous
    // ones identify a row.
    val key = Seq("airtime", "elapsed")
    val cells = r.imputed.select((key :+ "diverted").map(col): _*)
      .join(holeyCat.select(key.map(col) :+ col("diverted").as("obs"): _*), key)
    assert(cells.count() == flight.count())
    val codes = cells.filter(col("obs").isNull).select("diverted").distinct().collect().map(_.getInt(0)).toSet
    assert(codes.nonEmpty && codes.subsetOf(observed), s"imputed codes $codes, observed $observed")
    assert(cells.filter(col("obs").isNotNull && col("obs") =!= col("diverted")).count() == 0)
    Seq(holeyCat, flight).foreach(_.unpersist())
  }

  // ---- autoencoder (GAIN/MIDAS stand-in) -----------------------------------

  test("autoencoder training reduces reconstruction loss") {
    val rng = new Random(7)
    val rows = Array.fill(500)(Array.fill(4)(rng.nextGaussian()))
    rows.foreach(r => r(3) = r(0) + r(1)) // learnable structure
    val masks = rows.map(_ => Array.fill(4)(rng.nextDouble() < 0.2))
    val m0 = AutoencoderImputer.fit(rows, masks, AutoencoderImputer.Config(epochs = 1))
    val m1 = AutoencoderImputer.fit(rows, masks, AutoencoderImputer.Config(epochs = 40))
    def loss(m: AutoencoderImputer.Model): Double =
      rows.zip(masks).map { case (r, mk) =>
        val imp = m.impute(r, mk)
        r.indices.filter(i => !mk(i)).map(i => { val d = imp(i) - r(i); d * d }).sum
      }.sum
    assert(loss(m1) < loss(m0), s"loss did not decrease: ${loss(m0)} -> ${loss(m1)}")
  }

  test("autoencoder imputer fills every missing cell") {
    val r = AutoencoderImputer.impute(holey, schema, AutoencoderImputer.Config(epochs = 5))
    assert(schema.targets.forall(t => r.imputed.filter(col(t).isNull).count() == 0))
    assert(r.imputed.count() == aq.count())
  }

  test("autoencoder rounds categorical imputations to observed codes") {
    val cat = aq.withColumn("grade", (col("aqi") > 100).cast("int"))
    val sch = MiceSchema(AirQuality.Columns, Seq("grade"), Seq("grade", "pm25"))
    val holeyCat = Missingness.mcar(cat, sch.targets, 0.3, seed = 6)
    val r = AutoencoderImputer.impute(holeyCat, sch, AutoencoderImputer.Config(epochs = 3))
    val distinct = r.imputed.select("grade").distinct().collect().map(_.getInt(0)).toSet
    assert(distinct.subsetOf(Set(0, 1)), s"codes=$distinct")
  }

  private def round4(v: Double): Double = math.rint(v * 1e4) / 1e4
}
