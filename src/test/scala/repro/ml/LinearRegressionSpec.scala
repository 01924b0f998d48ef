package repro.ml

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.ring.{Cofactor, CofactorSchema}

/** Ridge / stochastic linear regression trained from cofactor triples:
  * parameter recovery, σ² semantics, categorical predictors, invariance to the
  * scale of a predictor, and the Catalyst prediction column.
  */
class LinearRegressionSpec extends SparkSpec {

  /** y = 3 + 2·x1 − 1.5·x2 + shift(c) + N(0, 0.5²), c ∈ {0,1,2}. */
  private lazy val df: DataFrame = {
    val rng = new scala.util.Random(7)
    val shift = Array(0.0, 4.0, -2.0)
    val rows = (1 to 4000).map { _ =>
      val x1 = rng.nextGaussian() * 2
      val x2 = rng.nextGaussian() * 3 + 1
      val c = rng.nextInt(3)
      val y = 3.0 + 2.0 * x1 - 1.5 * x2 + shift(c) + rng.nextGaussian() * 0.5
      Row(x1, x2, c, y)
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8),
      StructType(Seq(StructField("x1", DoubleType), StructField("x2", DoubleType),
        StructField("c", IntegerType), StructField("y", DoubleType)))).cache()
  }

  private val schema = CofactorSchema(Seq("x1", "x2", "y"), Seq("c"))

  test("train recovers the generating slopes") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    assert(math.abs(m.wCont(0) - 2.0) < 0.05, s"x1 slope ${m.wCont(0)}")
    assert(math.abs(m.wCont(1) + 1.5) < 0.05, s"x2 slope ${m.wCont(1)}")
    assert(m.wCont(2) == 0.0, "target slot weight must stay 0")
  }

  test("categorical one-hot weights recover the class shifts") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    // Shifts are identified up to a constant absorbed by the intercept.
    val w = m.wCat(0)
    val rel1 = (m.intercept + w(1)) - (m.intercept + w(0))
    val rel2 = (m.intercept + w(2)) - (m.intercept + w(0))
    assert(math.abs(rel1 - 4.0) < 0.1, s"shift(1)-shift(0)=$rel1")
    assert(math.abs(rel2 + 2.0) < 0.1, s"shift(2)-shift(0)=$rel2")
  }

  test("sigma2 estimates the residual noise variance") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    assert(m.sigma2 > 0.15 && m.sigma2 < 0.40, s"sigma2=${m.sigma2} expected ≈0.25")
  }

  test("a predictor scaled by 1e-10 predicts as the unscaled one") {
    val scale = 1e-10
    val m = LinearRegression.trainOn(df, schema, "y")
    val ms = LinearRegression.trainOn(df.withColumn("x1", col("x1") * scale), schema, "y")
    assert(math.abs(m.wCont(0) - 2.0) < 0.05, s"x1 slope ${m.wCont(0)}")
    for (r <- df.collect()) {
      val (x1, x2, c) = (r.getDouble(0), r.getDouble(1), r.getInt(2))
      val p = m.predict(Array(x1, x2, 0.0), Array(c))
      val ps = ms.predict(Array(x1 * scale, x2, 0.0), Array(c))
      assert(math.abs(p - ps) <= 1e-9 * math.max(math.abs(p), math.abs(ps)), s"$p vs $ps at x1=$x1")
    }
  }

  test("in-sample predictions have low error") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    val withPred = df.withColumn("pred", m.predictColumn(stochastic = false, seed = 1))
    val rmse = math.sqrt(withPred.select(avg(pow(col("pred") - col("y"), 2))).head().getDouble(0))
    assert(rmse < 0.6, s"rmse=$rmse")
  }

  test("deterministic prediction column is reproducible") {
    val m = LinearRegression.trainOn(df, schema, "y")
    val a = df.withColumn("p", m.predictColumn(stochastic = false, seed = 5)).select(sum("p")).head().getDouble(0)
    val b = df.withColumn("p", m.predictColumn(stochastic = false, seed = 9)).select(sum("p")).head().getDouble(0)
    assert(a == b)
  }

  test("stochastic predictions deviate from the mean with variance ≈ sigma2") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    val both = df
      .withColumn("mean_p", m.predictColumn(stochastic = false, seed = 3))
      .withColumn("sto_p", m.predictColumn(stochastic = true, seed = 3))
      .select(avg(pow(col("sto_p") - col("mean_p"), 2)).as("noiseVar")).head().getDouble(0)
    assert(math.abs(both - m.sigma2) < 0.35 * m.sigma2, s"noise var $both vs sigma2 ${m.sigma2}")
  }

  test("stochastic noise is mean-zero") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    val drift = df
      .withColumn("d", m.predictColumn(stochastic = true, seed = 11) -
        m.predictColumn(stochastic = false, seed = 11))
      .select(avg("d")).head().getDouble(0)
    assert(math.abs(drift) < 0.05, s"noise mean $drift")
  }

  test("unseen categories fall back to the intercept path") {
    val m = LinearRegression.trainOn(df, schema, "y", lambda = 1e-6)
    val pred = m.predict(Array(0.0, 0.0, 0.0), Array(99))
    assert(pred == m.intercept)
  }

  test("training on a constant target gives near-zero sigma2 and slopes") {
    val const = df.withColumn("y", lit(5.0))
    val m = LinearRegression.trainOn(const, schema, "y", lambda = 1e-6)
    assert(math.abs(m.predict(Array(1.0, 1.0, 0.0), Array(0)) - 5.0) < 1e-3)
    assert(m.sigma2 < 1e-6)
  }

  test("ridge lambda shrinks weights monotonically") {
    val up = new Unpacked(schema, Cofactor.triple(df, schema))
    val small = LinearRegression.train(up, "y", lambda = 1e-6)
    val big = LinearRegression.train(up, "y", lambda = 10.0)
    assert(math.abs(big.wCont(0)) < math.abs(small.wCont(0)))
  }

  test("training from an empty triple yields the zero model") {
    val m = LinearRegression.trainOn(df.limit(0), schema, "y")
    assert(m.intercept == 0.0 && m.wCont.forall(_ == 0.0) && m.sigma2 == 0.0)
  }

  test("continuous-only schema trains without categorical attrs") {
    val sch = CofactorSchema(Seq("x1", "x2", "y"), Nil)
    val m = LinearRegression.trainOn(df, sch, "y", lambda = 1e-6)
    assert(math.abs(m.wCont(0) - 2.0) < 0.1)
  }
}
