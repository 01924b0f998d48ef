package repro.eval

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ml.LinearRegression
import repro.ring.CofactorSchema

/** Quality metrics and the paper's downstream-model evaluation protocol
  * (§6.4): imputation quality is measured as the RMSE / R² of a linear
  * regression model trained on the *imputed* dataset and evaluated on a
  * held-out *complete* test split.
  */
object Metrics {

  def rmse(df: DataFrame, label: String, pred: Column): Double =
    math.sqrt(df.select(avg(pow(pred - col(label), 2))).head().getDouble(0))

  def r2(df: DataFrame, label: String, pred: Column): Double = {
    val row = df.select(
      sum(pow(pred - col(label), 2)).as("ssRes"),
      sum(pow(col(label) - lit(df.select(avg(col(label))).head().getDouble(0)), 2)).as("ssTot"),
    ).head()
    1.0 - row.getDouble(0) / math.max(row.getDouble(1), 1e-12)
  }

  /** Classification accuracy of `pred` against integer `label`. */
  def accuracy(df: DataFrame, label: String, pred: Column): Double =
    df.select(avg((pred === col(label)).cast("double"))).head().getDouble(0)

  final case class Downstream(rmse: Double, r2: Double)

  /** Train ridge regression for `label` on `trainImputed` (via the ring) and
    * evaluate on the complete `test` split.
    */
  def downstream(trainImputed: DataFrame, test: DataFrame, schema: CofactorSchema,
                 label: String): Downstream = {
    val model = LinearRegression.trainOn(trainImputed, schema, label, lambda = 1e-4)
    val pred = model.predictColumn(stochastic = false, seed = 0)
    Downstream(rmse(test, label, pred), r2(test, label, pred))
  }

  /** Train/test split on `rand(seed)`: deterministic for a fixed input partition layout. */
  def split(df: DataFrame, testFraction: Double, seed: Long): (DataFrame, DataFrame) = {
    val withR = df.withColumn("__r", rand(seed))
    val train = withR.filter(col("__r") >= testFraction).drop("__r")
    val test = withR.filter(col("__r") < testFraction).drop("__r")
    (train, test)
  }
}
