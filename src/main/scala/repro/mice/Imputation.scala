package repro.mice

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ml.{LDA, LdaModel, LinearRegression, RegressionModel, Unpacked}
import repro.ring.Triple

/** A model trained for one incomplete attribute, able to impute one row.
  * Stochastic linear regression for continuous targets, LDA for categorical
  * ones — the two §3 models that share the triple's aggregates.
  */
sealed trait AttrModel {
  def target: String

  /** Imputed value of one row given in cofactor-schema order (the target's
    * own slot is ignored). `noise` is a standard normal draw that stochastic
    * regression scales by σ (§3.1); classification ignores it.
    */
  def predict(cont: Array[Double], cat: Array[Int], noise: Double): Double

  /** Catalyst column of the imputed value without noise, over the model's
    * schema columns.
    */
  def predictColumn: Column
}

final case class ContAttrModel(model: RegressionModel) extends AttrModel {
  def target: String = model.target
  def predict(cont: Array[Double], cat: Array[Int], noise: Double): Double =
    model.predict(cont, cat) + noise * math.sqrt(model.sigma2)
  def predictColumn: Column = model.predictColumn(stochastic = false, seed = 0)
}

final case class CatAttrModel(model: LdaModel) extends AttrModel {
  def target: String = model.target
  def predict(cont: Array[Double], cat: Array[Int], noise: Double): Double =
    model.predict(cont, cat).toDouble
  def predictColumn: Column = model.predictColumn
}

/** Shared plumbing of the MICE implementations: mask bookkeeping, mean/mode
  * initial imputation, model training off a triple, per-row noise, and
  * checkpointed DataFrame column updates.
  */
object Imputation {

  /** Add `__miss_t` mask columns recording which values are (originally) null. */
  def addMasks(df: DataFrame, schema: MiceSchema): DataFrame =
    schema.targets.foldLeft(df)((d, t) => d.withColumn(schema.maskCol(t), col(t).isNull))

  /** Per-target initial guesses, in one aggregate: the mean for a
    * continuous target, the most frequent code for a categorical one (the
    * lowest code on a tie).
    *
    * @throws IllegalArgumentException naming an attribute that is not a
    *         target and has a null (only targets may be missing), or a target
    *         that has no observed value (no model can be trained for it).
    */
  def initialGuesses(df: DataFrame, schema: MiceSchema): Map[String, Double] = {
    val ts = schema.targets
    val others = schema.dataCols.filterNot(ts.contains)
    val row = df.select(ts.map(t => if (schema.isContinuous(t)) avg(col(t)) else mode(col(t), deterministic = true)) ++
      others.map(c => count(when(col(c).isNull, 1))): _*).head()
    for ((c, i) <- others.zipWithIndex if row.getLong(ts.size + i) > 0)
      throw new IllegalArgumentException(s"attribute $c has a null value; only targets may be missing")
    ts.zipWithIndex.map { case (t, i) =>
      if (row.isNullAt(i)) throw new IllegalArgumentException(s"target $t has no observed value")
      t -> row.getAs[Number](i).doubleValue
    }.toMap
  }

  /** Replace nulls in every target with its initial guess (Algorithm 1/2, line 1). */
  def initImpute(df: DataFrame, schema: MiceSchema, guesses: Map[String, Double]): DataFrame =
    schema.targets.foldLeft(df) { (d, t) =>
      val v: Column =
        if (schema.isContinuous(t)) lit(guesses(t)) else lit(guesses(t).toInt)
      d.withColumn(t, coalesce(col(t), v))
    }

  /** Train the §3 model for `target` from an already-computed triple. */
  def train(triple: Triple, schema: MiceSchema, target: String): AttrModel = {
    val up = new Unpacked(schema.cofactor, triple)
    if (schema.isContinuous(target)) ContAttrModel(LinearRegression.train(up, target))
    else CatAttrModel(LDA.train(up, target))
  }

  /** Deterministic per-(iteration, attribute) noise seed. */
  def noiseSeed(cfg: MiceConfig, iter: Int, target: String): Long =
    cfg.seed + 1_000_003L * iter + 17L * target.hashCode

  /** A standard normal draw fixed by `seed` and a row's content hash alone,
    * so it does not depend on how the rows are partitioned (Box–Muller over
    * two SplitMix64 outputs).
    */
  def gaussian(seed: Long, rowHash: Long): Double = {
    val a = mix64(mix64(seed) ^ rowHash)
    val b = mix64(a)
    val u1 = ((a >>> 11) + 1) / TwoPow53 // (0, 1]
    val u2 = (b >>> 11) / TwoPow53
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  private val TwoPow53 = math.pow(2, 53)

  private def mix64(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** `target := pred where mask` as a new, lineage-truncated DataFrame.
    *
    * `localCheckpoint(eager)` materializes the updated column and cuts the
    * logical plan — repeated `withColumn` chains across rounds would
    * otherwise replay every previous imputation on each aggregate.
    */
  def updateWhereMasked(df: DataFrame, schema: MiceSchema, target: String, pred: Column): DataFrame = {
    val dt = df.schema(target).dataType
    df.withColumn(target, when(col(schema.maskCol(target)), pred.cast(dt)).otherwise(col(target)))
      .localCheckpoint(true)
  }

  /** Drop bookkeeping columns, restoring the user-facing schema. */
  def stripMasks(df: DataFrame, schema: MiceSchema): DataFrame =
    df.select(schema.dataCols.map(col): _*)
}
