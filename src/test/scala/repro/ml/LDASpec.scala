package repro.ml

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.ring.{Cofactor, CofactorSchema}

/** LDA trained from cofactor triples: parameter recovery on Gaussian class
  * data, prediction accuracy, categorical features, and degenerate cases.
  */
class LDASpec extends SparkSpec {

  /** Three Gaussian classes in 2D with shared covariance; an extra categorical
    * predictor `g` correlated with the class.
    */
  private lazy val df: DataFrame = {
    val rng = new scala.util.Random(11)
    val mus = Array(Array(0.0, 0.0), Array(4.0, 1.0), Array(-3.0, 3.0))
    val rows = (1 to 6000).map { _ =>
      val y = rng.nextInt(3)
      val x1 = mus(y)(0) + rng.nextGaussian()
      val x2 = mus(y)(1) + rng.nextGaussian()
      val g = if (rng.nextDouble() < 0.7) y else rng.nextInt(3) // noisy copy of y
      Row(x1, x2, g, y)
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8),
      StructType(Seq(StructField("x1", DoubleType), StructField("x2", DoubleType),
        StructField("g", IntegerType), StructField("y", IntegerType)))).cache()
  }

  private val schema = CofactorSchema(Seq("x1", "x2"), Seq("g", "y"))

  test("classes are discovered from the triple") {
    val m = LDA.trainOn(df, schema, "y")
    assert(m.classes.toSeq == Seq(0, 1, 2))
  }

  test("high accuracy on separable Gaussian classes") {
    val m = LDA.trainOn(df, schema, "y")
    val acc = df.withColumn("p", m.predictColumn)
      .select(avg((col("p") === col("y")).cast("double"))).head().getDouble(0)
    assert(acc > 0.9, s"accuracy=$acc")
  }

  test("accuracy beats the majority-class baseline on skewed priors") {
    val skewed = df.filter(col("y") =!= 2 || rand(1) < 0.1)
    val m = LDA.trainOn(skewed, schema, "y")
    val acc = skewed.withColumn("p", m.predictColumn)
      .select(avg((col("p") === col("y")).cast("double"))).head().getDouble(0)
    val maj = skewed.groupBy("y").count().agg(max("count")).head().getLong(0).toDouble /
      skewed.count()
    assert(acc > maj + 0.1, s"accuracy=$acc majority=$maj")
  }

  test("prediction from driver-side predict matches the Catalyst column") {
    val m = LDA.trainOn(df, schema, "y")
    val sample = df.limit(50).collect()
    val preds = df.limit(50).withColumn("p", m.predictColumn).collect()
    sample.zip(preds).foreach { case (r, pr) =>
      val local = m.predict(Array(r.getDouble(0), r.getDouble(1)), Array(r.getInt(2), r.getInt(3)))
      assert(local == pr.getInt(4))
    }
  }

  test("categorical feature improves accuracy over continuous-only") {
    val mFull = LDA.trainOn(df, schema, "y")
    val mCont = LDA.trainOn(df, CofactorSchema(Seq("x1", "x2"), Seq("y")), "y")
    def acc(m: LdaModel): Double = df.withColumn("p", m.predictColumn)
      .select(avg((col("p") === col("y")).cast("double"))).head().getDouble(0)
    assert(acc(mFull) >= acc(mCont) - 1e-9)
  }

  test("the target's own category map carries no weights") {
    val m = LDA.trainOn(df, schema, "y")
    val jT = schema.catIdx("y")
    assert(m.aCat.forall(perClass => perClass(jT).isEmpty))
  }

  test("priors are reflected in the bias terms") {
    val m = LDA.trainOn(df, schema, "y")
    // Equal priors here: biases differ only via the Mahalanobis term, so no
    // class dominates on its own mean.
    val mus = Array(Array(0.0, 0.0), Array(4.0, 1.0), Array(-3.0, 3.0))
    mus.zipWithIndex.foreach { case (mu, c) =>
      assert(m.predict(mu.toArray, Array(c, 0)) == c)
    }
  }

  test("binary target works (two classes)") {
    val bin = df.withColumn("y", (col("y") === 1).cast("int"))
    val m = LDA.trainOn(bin, schema, "y")
    assert(m.classes.toSeq == Seq(0, 1))
    val acc = bin.withColumn("p", m.predictColumn)
      .select(avg((col("p") === col("y")).cast("double"))).head().getDouble(0)
    assert(acc > 0.9)
  }

  test("single observed class predicts that class everywhere") {
    val one = df.filter(col("y") === 1)
    val m = LDA.trainOn(one, schema, "y")
    assert(m.classes.toSeq == Seq(1))
    assert(m.predict(Array(-100.0, 100.0), Array(0, 0)) == 1)
  }

  test("training rejects an empty dataset") {
    intercept[IllegalArgumentException](LDA.trainOn(df.limit(0), schema, "y"))
  }

  test("shared covariance shrinkage keeps one-hot features solvable") {
    // g one-hot columns are collinear with the intercept-free scatter; with
    // shrinkage the solve must not throw.
    val m = LDA.trainOn(df, schema, "y")
    assert(m.b.length == 3 && m.b.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("a predictor scaled by 1e-6 and another by 1e4 give the classes of the unscaled data") {
    val ref = LDA.trainOn(df, schema, "y")
    val m = LDA.trainOn(df.withColumn("x1", col("x1") * 1e-6).withColumn("x2", col("x2") * 1e4), schema, "y")
    val rows = df.collect()
    val differ = rows.count { r =>
      val cat = Array(r.getInt(2), r.getInt(3))
      ref.predict(Array(r.getDouble(0), r.getDouble(1)), cat) !=
        m.predict(Array(r.getDouble(0) * 1e-6, r.getDouble(1) * 1e4), cat)
    }
    assert(differ == 0, s"$differ of ${rows.length} predictions differ")
  }

  test("a categorical predictor that copies the target predicts it") {
    val copy = df.withColumn("g", col("y"))
    val m = LDA.trainOn(copy, schema, "y")
    val acc = copy.withColumn("p", m.predictColumn)
      .select(avg((col("p") === col("y")).cast("double"))).head().getDouble(0)
    assert(acc > 0.99, s"accuracy=$acc")
  }

  test("a constant predictor gets weight 0 and changes no prediction") {
    val m = LDA.trainOn(df.withColumn("x1", lit(1e3)), schema, "y")
    val without = LDA.trainOn(df, CofactorSchema(Seq("x2"), Seq("g", "y")), "y")
    assert(m.aCont.forall(_(0) == 0.0))
    val rows = df.collect()
    val differ = rows.count { r =>
      val cat = Array(r.getInt(2), r.getInt(3))
      m.predict(Array(1e3, r.getDouble(1)), cat) != without.predict(Array(r.getDouble(1)), cat)
    }
    assert(differ == 0, s"$differ of ${rows.length} predictions differ")
  }
}
