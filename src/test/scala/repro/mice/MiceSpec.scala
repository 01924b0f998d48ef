package repro.mice

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.{Flight, Missingness}

/** End-to-end MICE tests: init imputation (oracle-checked), completeness,
  * quality vs mean imputation, and the Baseline ≡ Low ≡ High equivalence that
  * certifies the shared-computation bookkeeping of Algorithm 2 and both §4
  * partitioning strategies.
  */
class MiceSpec extends SparkSpec {

  /** Correlated mixed data: x2 ≈ 2·x1, x3 ≈ x1+x2, c ∈ {0,1} tracks sign. */
  private def makeComplete(n: Int, seed: Int): DataFrame = {
    val rng = new scala.util.Random(seed)
    val rows = (1 to n).map { _ =>
      val x1 = rng.nextGaussian() * 2
      val x2 = 2.0 * x1 + rng.nextGaussian() * 0.3
      val x3 = x1 + x2 + rng.nextGaussian() * 0.3 + 1
      val c = if (x1 + rng.nextGaussian() * 0.5 > 0) 1 else 0
      Row(x1, x2, x3, c)
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8),
      StructType(Seq(StructField("x1", DoubleType), StructField("x2", DoubleType),
        StructField("x3", DoubleType), StructField("c", IntegerType))))
  }

  private val schema = MiceSchema(Seq("x1", "x2", "x3"), Seq("c"), Seq("x2", "x3", "c"))

  private lazy val complete = makeComplete(3000, 5).cache()
  private lazy val holey = Missingness.mcar(complete, schema.targets, 0.2, seed = 9).cache()

  // ---- init imputation -----------------------------------------------------

  test("initial guesses are the column means (oracle-checked)") {
    import spark.implicits._
    val g = Imputation.initialGuesses(Imputation.addMasks(holey, schema), schema)
    val sparkSide = Seq((round4(g("x2")), round4(g("x3")))).toDF("m2", "m3")
    Oracle.assertEquivalent(sparkSide,
      "SELECT ROUND(AVG(CAST(x2 AS DOUBLE)), 4) AS m2, ROUND(AVG(CAST(x3 AS DOUBLE)), 4) AS m3 FROM t",
      "t" -> holey)
  }

  test("initial guess for a categorical target is the mode") {
    val g = Imputation.initialGuesses(Imputation.addMasks(holey, schema), schema)
    val counts = holey.filter(col("c").isNotNull).groupBy("c").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(g("c").toInt == counts.maxBy(_._2)._1)
  }

  test("the initial guess of a categorical target breaks a tie towards the lower code") {
    import spark.implicits._
    val tied = Seq((1.0, Some(3)), (2.0, Some(3)), (3.0, None), (4.0, Some(1)), (5.0, Some(1)), (6.0, Some(2)))
      .toDF("x", "c").repartition(3)
    assert(Imputation.initialGuesses(tied, MiceSchema(Seq("x"), Seq("c"), Seq("c")))("c") == 1.0)
  }

  test("initImpute leaves no nulls and preserves observed values") {
    val masked = Imputation.addMasks(holey, schema)
    val init = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
    for (t <- schema.targets) {
      assert(init.filter(col(t).isNull).count() == 0)
      // Observed values unchanged.
      val changed = init.filter(!col(schema.maskCol(t)))
        .join(holey.select(col("x1").as("x1_o"), col(t).as(s"${t}_orig")), col("x1") === col("x1_o"))
        .filter(col(t) =!= col(s"${t}_orig")).count()
      assert(changed == 0)
    }
  }

  test("masks mark exactly the null cells") {
    val masked = Imputation.addMasks(holey, schema)
    for (t <- schema.targets) {
      val nulls = holey.filter(col(t).isNull).count()
      assert(masked.filter(col(schema.maskCol(t))).count() == nulls)
    }
  }

  // ---- the three implementations -------------------------------------------

  private def cfgDet(iters: Int = 2) =
    MiceConfig(iterations = iters, stochastic = false, seed = 1)

  test("MiceBaseline imputes every missing value") {
    val r = MiceBaseline.impute(holey, schema, cfgDet())
    assert(r.imputed.count() == holey.count())
    for (t <- schema.targets) assert(r.imputed.filter(col(t).isNull).count() == 0)
    assert(r.roundSecs.size == 2 && r.preprocessSecs > 0)
  }

  test("MiceLow imputes every missing value and preserves row count") {
    val r = MiceLow.impute(holey, schema, cfgDet())
    assert(r.imputed.count() == holey.count())
    for (t <- schema.targets) assert(r.imputed.filter(col(t).isNull).count() == 0)
  }

  test("MiceHigh imputes every missing value and preserves row count") {
    val r = MiceHigh.impute(holey, schema, cfgDet())
    assert(r.imputed.count() == holey.count())
    for (t <- schema.targets) assert(r.imputed.filter(col(t).isNull).count() == 0)
  }

  test("observed cells are never modified by any variant") {
    for (impl <- Seq(MiceBaseline.impute(_: DataFrame, schema, cfgDet()),
      MiceLow.impute(_: DataFrame, schema, cfgDet()),
      MiceHigh.impute(_: DataFrame, schema, cfgDet()))) {
      val out = impl(holey)
      val joinedBack = out.imputed.join(
        holey.select(col("x1").as("k"), col("x2").as("x2_o")), col("x1") === col("k"))
      assert(joinedBack.filter(col("x2_o").isNotNull && col("x2") =!= col("x2_o")).count() == 0)
    }
  }

  /** Sum-of-imputed-values fingerprint for cross-variant comparison. */
  private def fingerprint(df: DataFrame): Seq[Double] =
    schema.targets.map(t => df.select(sum(col(t).cast("double"))).head().getDouble(0))

  test("Low matches Baseline with deterministic models (Algorithm 2 correctness)") {
    val base = MiceBaseline.impute(holey, schema, cfgDet())
    val low = MiceLow.impute(holey, schema, cfgDet())
    MiceSpec.assertSameCells(base.imputed, low.imputed, "x1", schema)
  }

  test("High matches Baseline with deterministic models (partitioning correctness)") {
    val base = MiceBaseline.impute(holey, schema, cfgDet())
    val high = MiceHigh.impute(holey, schema, cfgDet())
    MiceSpec.assertSameCells(base.imputed, high.imputed, "x1", schema)
  }

  test("stochastic imputations do not depend on the partition layout") {
    val cfg = MiceConfig(iterations = 2, stochastic = true, seed = 1)
    for (impute <- Seq(MiceBaseline.impute _, MiceLow.impute _, MiceHigh.impute _)) {
      val ref = impute(holey, schema, cfg).imputed
      for (layout <- Seq(holey.repartition(3), holey.coalesce(1)))
        MiceSpec.assertSameCells(ref, impute(layout, schema, cfg).imputed, "x1", schema)
    }
  }

  test("a round runs at most one Spark job per target") {
    holey.count()
    for (impute <- Seq(MiceBaseline.impute _, MiceLow.impute _, MiceHigh.impute _)) {
      val perRound = MiceSpec.jobsPerRound(spark)(iters => impute(holey, schema, cfgDet(iters)))
      assert(perRound <= schema.targets.size, s"$perRound jobs per round")
    }
  }

  test("preprocessing runs at most 3 Spark jobs for Baseline and 4 for Low and High") {
    val fSchema = MiceSchema(Flight.JoinedCont, Flight.JoinedCat, Flight.IncompleteAttrs)
    val fHoley = Missingness.mcar(Flight.normalized(spark, 2000).joined, fSchema.targets, 0.1, seed = 3).cache()
    fHoley.count()
    for ((name, impute, most) <- Seq(("Baseline", MiceBaseline.impute _, 3), ("Low", MiceLow.impute _, 4),
      ("High", MiceHigh.impute _, 4))) {
      val jobs = SparkSpec.jobsOf(spark)(impute(fHoley, fSchema, cfgDet(0)))
      assert(jobs <= most, s"$name: $jobs jobs")
    }
    fHoley.unpersist()
  }

  test("MICE recovers correlated values far better than mean imputation") {
    val masked = Imputation.addMasks(holey, schema)
    val init = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
    val mice = MiceLow.impute(holey, schema, cfgDet(3))

    def errVs(truth: DataFrame, imp: DataFrame, t: String): Double = {
      val j = imp.select(col("x1").as("k"), col(t).as("imp"))
        .join(truth.select(col("x1"), col(t).as("tru")), col("x1") === col("k"))
      math.sqrt(j.select(avg(pow(col("imp") - col("tru"), 2))).head().getDouble(0))
    }
    // Compare error restricted to originally-missing x2 cells.
    val missingKeys = Imputation.addMasks(holey, schema).filter(col(schema.maskCol("x2")))
      .select(col("x1").as("mk"))
    def errMissing(imp: DataFrame): Double = {
      val j = imp.join(missingKeys, col("x1") === col("mk"))
        .select(col("x1"), col("x2").as("imp"))
        .join(complete.select(col("x1"), col("x2").as("tru")), "x1")
      math.sqrt(j.select(avg(pow(col("imp") - col("tru"), 2))).head().getDouble(0))
    }
    val meanErr = errMissing(init)
    val miceErr = errMissing(mice.imputed)
    assert(miceErr < meanErr * 0.5, s"mice=$miceErr mean=$meanErr")
  }

  test("categorical imputation beats mode imputation in accuracy") {
    val masked = Imputation.addMasks(holey, schema)
    val init = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
    val mice = MiceLow.impute(holey, schema, cfgDet(3))
    val missingKeys = masked.filter(col(schema.maskCol("c"))).select(col("x1").as("mk"))
    def acc(imp: DataFrame): Double = {
      val j = imp.join(missingKeys, col("x1") === col("mk"))
        .select(col("x1"), col("c").as("imp"))
        .join(complete.select(col("x1"), col("c").as("tru")), "x1")
      j.select(avg((col("imp") === col("tru")).cast("double"))).head().getDouble(0)
    }
    assert(acc(mice.imputed) > acc(init) + 0.1, s"mice=${acc(mice.imputed)} mode=${acc(init)}")
  }

  test("stochastic imputation varies with the seed, deterministic does not") {
    val a = MiceLow.impute(holey, schema, MiceConfig(iterations = 1, stochastic = true, seed = 1))
    val b = MiceLow.impute(holey, schema, MiceConfig(iterations = 1, stochastic = true, seed = 2))
    val c1 = MiceLow.impute(holey, schema, cfgDet(1))
    val c2 = MiceLow.impute(holey, schema, cfgDet(1))
    assert(fingerprint(a.imputed) != fingerprint(b.imputed))
    assert(fingerprint(c1.imputed) == fingerprint(c2.imputed))
  }

  test("single incomplete attribute works in all variants") {
    val sch1 = MiceSchema(Seq("x1", "x2", "x3"), Seq("c"), Seq("x2"))
    val holey1 = Missingness.mcar(complete, Seq("x2"), 0.3, seed = 4)
    for (r <- Seq(MiceBaseline.impute(holey1, sch1, cfgDet()),
      MiceLow.impute(holey1, sch1, cfgDet()),
      MiceHigh.impute(holey1, sch1, cfgDet()))) {
      assert(r.imputed.count() == complete.count())
      assert(r.imputed.filter(col("x2").isNull).count() == 0)
    }
  }

  test("two incomplete attributes (boundary partitioning) works in all variants") {
    val sch2 = MiceSchema(Seq("x1", "x2", "x3"), Seq("c"), Seq("x2", "x3"))
    val holey2 = Missingness.mcar(complete, Seq("x2", "x3"), 0.4, seed = 6)
    for (r <- Seq(MiceBaseline.impute(holey2, sch2, cfgDet()),
      MiceLow.impute(holey2, sch2, cfgDet()),
      MiceHigh.impute(holey2, sch2, cfgDet()))) {
      assert(r.imputed.count() == complete.count())
      assert(r.imputed.filter(col("x2").isNull || col("x3").isNull).count() == 0)
    }
  }

  test("high missing rate (70%) is handled by all variants") {
    val vh = Missingness.mcar(complete, schema.targets, 0.7, seed = 8)
    for (r <- Seq(MiceBaseline.impute(vh, schema, cfgDet(1)),
      MiceLow.impute(vh, schema, cfgDet(1)),
      MiceHigh.impute(vh, schema, cfgDet(1)))) {
      assert(r.imputed.count() == complete.count())
      for (t <- schema.targets) assert(r.imputed.filter(col(t).isNull).count() == 0)
    }
  }

  test("dataset with no missing values passes through unchanged") {
    val r = MiceLow.impute(complete, schema, cfgDet(1))
    assert(r.imputed.count() == complete.count())
    assert(fingerprint(r.imputed) == fingerprint(complete.select(schema.dataCols.map(col): _*)))
  }

  // ---- degenerate inputs ---------------------------------------------------

  test("a categorical target with no observed value is rejected by name") {
    val none = holey.withColumn("c", lit(null).cast(IntegerType))
    val e = intercept[IllegalArgumentException](MiceLow.impute(none, schema, cfgDet(1)))
    assert(e.getMessage.contains("target c"), e.getMessage)
  }

  test("a continuous target with no observed value is rejected by name") {
    val none = holey.withColumn("x3", lit(null).cast(DoubleType))
    val e = intercept[IllegalArgumentException](MiceLow.impute(none, schema, cfgDet(1)))
    assert(e.getMessage.contains("target x3"), e.getMessage)
  }

  test("a NaN in a complete continuous attribute is rejected by name") {
    val x1Min = holey.select(min("x1")).head().getDouble(0)
    val nan = holey.withColumn("x1", when(col("x1") === x1Min, Double.NaN).otherwise(col("x1")))
    val e = intercept[IllegalArgumentException](MiceLow.impute(nan, schema, cfgDet(1)))
    assert(e.getMessage.contains("attribute x1"), e.getMessage)
  }

  test("a null in an attribute that is not a target is rejected by name") {
    val x1Min = holey.select(min("x1")).head().getDouble(0)
    val nul = holey.withColumn("x1", when(col("x1") =!= x1Min, col("x1")))
    for (impute <- Seq(MiceBaseline.impute _, MiceLow.impute _, MiceHigh.impute _)) {
      val e = intercept[IllegalArgumentException](impute(nul, schema, cfgDet(1)))
      assert(e.getMessage.contains("attribute x1"), e.getMessage)
    }
  }

  private def round4(v: Double): Double = math.rint(v * 1e4) / 1e4
}

object MiceSpec {
  import org.apache.spark.sql.SparkSession
  import org.scalatest.Assertions._

  /** Spark jobs one extra MICE round costs: the jobs of `run(3)` minus those
    * of `run(1)` (each including counting the output), halved.
    */
  def jobsPerRound(spark: SparkSession)(run: Int => MiceResult): Double = {
    def jobs(iters: Int): Int = SparkSpec.jobsOf(spark)(run(iters).imputed.count())
    (jobs(3) - jobs(1)) / 2.0
  }

  /** Two imputations agree cell by cell on `schema.targets`, rows matched on
    * `key` (unique, never a target): continuous targets within 1e-6 relative,
    * categorical targets equal.
    */
  def assertSameCells(a: DataFrame, b: DataFrame, key: String, schema: MiceSchema): Unit = {
    val ts = schema.targets
    val joined = a.select(col(key) +: ts.map(col): _*)
      .join(b.select(col(key) +: ts.map(t => col(t).as(s"${t}__b")): _*), key)
    val n = a.count()
    assert(joined.count() == n && b.count() == n, s"rows do not match one-to-one on $key")
    for (t <- ts) {
      val (x, y) = (col(t), col(s"${t}__b"))
      val differs =
        if (schema.isContinuous(t)) abs(x - y) > lit(1e-6) * greatest(abs(x), abs(y))
        else x =!= y
      val bad = joined.filter(x.isNull || y.isNull || differs).count()
      assert(bad == 0, s"$t: $bad of $n cells differ")
    }
  }
}
