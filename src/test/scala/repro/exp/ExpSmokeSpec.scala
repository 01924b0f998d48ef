package repro.exp

import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.data.{AirQuality, Missingness}
import repro.mice.{MiceConfig, MiceLow, MiceSchema}

/** Tiny-scale integration runs of every experiment harness — the same code
  * paths the bench suites execute, validated end-to-end on small data.
  */
class ExpSmokeSpec extends SparkSpec {

  test("LearningExp produces the full approach grid on flight") {
    val rows = LearningExp.run(spark, "flight", 4000)
    assert(rows.map(_.approach).distinct.sorted == Seq("ring", "ring + fact", "scalar SUM"))
    assert(rows.size == 6 && rows.forall(_.aggSecs > 0))
  }

  test("LearningExp runs on the retailer snowflake") {
    val rows = LearningExp.run(spark, "retailer", 4000)
    assert(rows.size == 6)
  }

  test("CostExp.singleTable produces one row per (rate, method)") {
    val rows = CostExp.singleTable(spark, "flight", 4000, Seq(0.1, 0.5))
    assert(rows.size == 10)
    assert(rows.forall(r => r.roundSecs > 0 && r.preprocessSecs > 0))
  }

  test("AttrScalingExp reports the phase breakdown") {
    val rows = AttrScalingExp.run(spark, 4000, rates = Seq(0.1), maxAttrs = 2)
    assert(rows.size == 2)
    assert(rows.forall(r => r.initCofactorSecs > 0 && r.roundSecs > 0))
  }

  test("CostExp.normalized compares materialized and factorized on retailer") {
    val rows = CostExp.normalized(spark, "retailer", 4000, Seq(0.2))
    assert(rows.map(_.method).sorted == Seq("factorized", "materialized join"))
  }

  test("CostExp.normalized runs on flight with 7 incomplete attributes") {
    val rows = CostExp.normalized(spark, "flight", 4000, Seq(0.2))
    assert(rows.size == 2 && rows.forall(_.roundSecs > 0))
  }

  test("QualityExp runs the full §6.4 line-up on air quality") {
    val cells = QualityExp.run(spark, "airquality", 4000, Seq("mcar"), Seq(0.06), iterations = 1)
    assert(cells.size == 6)
    assert(cells.map(_.method) == Seq("MICE ring (ours)", "MICE direct (Python-sim)", "Mean", "MissForest-lite",
      "GAIN-sim (autoenc)", "MIRACLE-lite"))
    assert(cells.forall(c => c.rmse > 0 && c.imputeSecs > 0))
  }

  test("QualityExp supports all three missingness patterns") {
    val cells = QualityExp.run(spark, "flight", 4000, Seq("mcar", "mar", "mnar"), Seq(0.2),
      iterations = 1)
    assert(cells.map(_.pattern).distinct.sorted == Seq("mar", "mcar", "mnar"))
    assert(cells.size == 18)
  }

  test("formatters emit one markdown row per result") {
    val rows = CostExp.singleTable(spark, "flight", 4000, Seq(0.3))
    val text = CostExp.format(rows)
    assert(text.linesIterator.size == rows.size + 2)
  }

  test("a MiceLow output can be counted after Inputs.cached unpersists its inputs") {
    val schema = MiceSchema(AirQuality.Columns, Nil, Seq("pm25", "o3"))
    val holey = Missingness.mcar(AirQuality.table(spark, 1000), schema.targets, 0.2, seed = 3)
    val out = Inputs.cached(holey) { _ =>
      assert(holey.storageLevel != StorageLevel.NONE)
      MiceLow.impute(holey, schema, MiceConfig(iterations = 1)).imputed
    }
    assert(holey.storageLevel == StorageLevel.NONE)
    assert(out.count() == 1000)
  }
}
