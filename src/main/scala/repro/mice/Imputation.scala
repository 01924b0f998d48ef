package repro.mice

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ml.{LDA, LdaModel, LinearRegression, RegressionModel, Unpacked}
import repro.ring.{CofactorSchema, Triple}

/** A model trained for one incomplete attribute, able to emit its imputation
  * column. Stochastic linear regression for continuous targets, LDA for
  * categorical ones — the two §3 models that share the triple's aggregates.
  */
sealed trait AttrModel {
  def target: String

  /** Prediction column over the cofactor-schema columns of the dataset. */
  def predictColumn(stochastic: Boolean, seed: Long): Column
}

final case class ContAttrModel(model: RegressionModel) extends AttrModel {
  def target: String = model.target
  def predictColumn(stochastic: Boolean, seed: Long): Column =
    model.predictColumn(stochastic, seed)
}

final case class CatAttrModel(model: LdaModel) extends AttrModel {
  def target: String = model.target
  def predictColumn(stochastic: Boolean, seed: Long): Column = model.predictColumn
}

/** Shared plumbing of all MICE implementations: mask bookkeeping, mean/mode
  * initial imputation, model training off a triple, and checkpointed column
  * updates (the Spark analogue of the paper's cheap column swap).
  */
object Imputation {

  /** Add `__miss_t` mask columns recording which values are (originally) null. */
  def addMasks(df: DataFrame, schema: MiceSchema): DataFrame =
    schema.targets.foldLeft(df)((d, t) => d.withColumn(schema.maskCol(t), col(t).isNull))

  /** Per-attribute initial guesses: mean for continuous, mode for categorical. */
  def initialGuesses(df: DataFrame, schema: MiceSchema): Map[String, Double] = {
    val contTargets = schema.targets.filter(schema.isContinuous)
    val means: Map[String, Double] =
      if (contTargets.isEmpty) Map.empty
      else {
        val row = df.select(contTargets.map(t => avg(col(t)).as(t)): _*).head()
        contTargets.map(t => t -> Option(row.getAs[Any](t)).fold(0.0)(_.toString.toDouble)).toMap
      }
    val modes: Map[String, Double] = schema.targets.filterNot(schema.isContinuous).map { t =>
      val top = df.filter(col(t).isNotNull).groupBy(col(t)).count()
        .orderBy(desc("count"), col(t)).head()
      t -> top.get(0).toString.toDouble
    }.toMap
    means ++ modes
  }

  /** Replace nulls in every target with its initial guess (Algorithm 1/2, line 1). */
  def initImpute(df: DataFrame, schema: MiceSchema, guesses: Map[String, Double]): DataFrame =
    schema.targets.foldLeft(df) { (d, t) =>
      val v: Column =
        if (schema.isContinuous(t)) lit(guesses(t)) else lit(guesses(t).toInt)
      d.withColumn(t, coalesce(col(t), v))
    }

  /** Train the §3 model for `target` from an already-computed triple. */
  def train(triple: Triple, schema: MiceSchema, target: String, cfg: MiceConfig): AttrModel = {
    val up = new Unpacked(schema.cofactor, triple)
    if (schema.isContinuous(target))
      ContAttrModel(LinearRegression.train(up, target, cfg.lambda, cfg.cg))
    else
      CatAttrModel(LDA.train(up, target, cfg.lambda))
  }

  /** Deterministic per-(iteration, attribute) noise seed. */
  def noiseSeed(cfg: MiceConfig, iter: Int, target: String): Long =
    cfg.seed + 1_000_003L * iter + 17L * target.hashCode

  /** `target := pred where mask` as a new, lineage-truncated DataFrame with
    * `df`'s columns; `pred` may read the columns `enrich` adds.
    *
    * `localCheckpoint(eager)` materializes the updated column and cuts the
    * logical plan — repeated `withColumn` chains across MICE rounds would
    * otherwise replay every previous imputation on each aggregate.
    */
  def updateWhereMasked(df: DataFrame, schema: MiceSchema, target: String, pred: Column,
                        enrich: DataFrame => DataFrame = identity): DataFrame = {
    val dt = df.schema(target).dataType
    enrich(df).withColumn(target, when(col(schema.maskCol(target)), pred.cast(dt)).otherwise(col(target)))
      .select(df.columns.toSeq.map(col): _*).localCheckpoint(true)
  }

  /** Number-of-missing-targets column (partitioning criterion of §4). */
  def missCount(schema: MiceSchema): Column =
    schema.targets.map(t => col(schema.maskCol(t)).cast("int")).reduce(_ + _)

  /** Drop bookkeeping columns, restoring the user-facing schema. */
  def stripMasks(df: DataFrame, schema: MiceSchema): DataFrame =
    df.select(schema.dataCols.map(col): _*)
}
