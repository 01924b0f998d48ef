package repro.baselines

import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.ml.regression.RandomForestRegressor
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.mice.{Imputation, MiceResult, MiceSchema}
import repro.util.Timing

/** MissForest simulator [65]: iterative imputation where each incomplete
  * attribute is predicted by a random forest trained on the other attributes.
  * Each forest is Spark MLlib's, fitted on a driver-side sample of the
  * observed rows (the original is an in-memory R/Python tool) and applied to
  * the missing rows through a UDF. Categorical attributes enter as ordinal
  * codes; a categorical target is a classification label. One round of the
  * same machinery doubles as the MindsDB (GBM-per-column) cost stand-in in
  * the Fig 4 bench.
  */
object MissForestLite {

  /** @param numTrees  trees per forest
    * @param maxSample observed rows sampled to train each forest
    */
  final case class Config(iterations: Int = 3, numTrees: Int = 5, maxSample: Int = 10000)

  private val MaxDepth = 8
  private val MinInstancesPerNode = 10
  private val FeatureSubset = "0.7" // fraction of the features tried at each split
  private val ForestSeed = 17L
  private val SampleSeed = 23L
  private val TrainSlices = 4

  /** Fits a forest on `sample` (`features`, `label`); returns its predictor. */
  private def fitForest(sample: DataFrame, classification: Boolean, numTrees: Int): Vector => Double =
    if (classification)
      new RandomForestClassifier().setNumTrees(numTrees).setMaxDepth(MaxDepth)
        .setMinInstancesPerNode(MinInstancesPerNode).setFeatureSubsetStrategy(FeatureSubset)
        .setBootstrap(true).setSeed(ForestSeed).fit(sample).predict
    else
      new RandomForestRegressor().setNumTrees(numTrees).setMaxDepth(MaxDepth)
        .setMinInstancesPerNode(MinInstancesPerNode).setFeatureSubsetStrategy(FeatureSubset)
        .setBootstrap(true).setSeed(ForestSeed).fit(sample).predict

  def impute(df0: DataFrame, schema: MiceSchema, cfg: Config = Config()): MiceResult = {
    val spark = df0.sparkSession
    val sw = new Timing.StopWatch
    val (cur0, prepSecs) = Timing.timed {
      val masked = Imputation.addMasks(df0, schema)
      val guesses = Imputation.initialGuesses(masked, schema)
      Imputation.initImpute(masked, schema, guesses).localCheckpoint(true)
    }
    var cur = cur0
    val cof = schema.cofactor
    val n = cur.count().toDouble

    val roundSecs = (0 until cfg.iterations).map { iter =>
      val (_, secs) = Timing.timed {
        for (t <- schema.targets) {
          val mask = col(schema.maskCol(t))
          // Feature layout: all cont then all cat attrs, minus the target.
          val featNames = (cof.cont ++ cof.cat).filterNot(_ == t)
          val frac = math.min(1.0, cfg.maxSample / math.max(n, 1.0))
          val sampled = sw.phase("sample") {
            cur.filter(!mask).sample(withReplacement = false, frac, SampleSeed + iter)
              .select((featNames :+ t).map(c => col(c).cast("double")): _*)
              .collect()
          }
          if (sampled.nonEmpty) {
            // A fixed number of slices: MLlib seeds its bagging per
            // partition, so the forest does not depend on the core count.
            // Each task of the fit ships its slice of the sample.
            val sample = spark.createDataFrame(spark.sparkContext.parallelize(sampled.toSeq.map(r =>
              (Vectors.dense(Array.tabulate(featNames.length)(r.getDouble)), r.getDouble(featNames.length))),
              TrainSlices)).toDF("features", "label")
            val predict = sw.phase("train")(fitForest(sample, !schema.isContinuous(t), cfg.numTrees))
            val predUdf = udf((feats: Seq[Double]) => predict(Vectors.dense(feats.toArray)))
            val pred = predUdf(array(featNames.map(c => col(c).cast("double")): _*))
            cur = sw.phase("update")(Imputation.updateWhereMasked(cur, schema, t, pred))
          }
        }
      }
      secs
    }
    MiceResult(Imputation.stripMasks(cur, schema), prepSecs, roundSecs, sw.snapshot)
  }
}
