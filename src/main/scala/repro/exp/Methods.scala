package repro.exp

import org.apache.spark.sql.DataFrame
import repro.baselines._
import repro.mice._
import repro.util.Timing

/** The imputation methods compared in the quality experiments (§6.4), under a
  * common interface. Names follow the paper's method labels, annotated with
  * what simulates what (see DESIGN.md substitution table).
  */
object Methods {

  /** (imputed dataset, imputation seconds). */
  type Imputer = (DataFrame, MiceSchema) => (DataFrame, Double)

  private def timeResult(r: => MiceResult): (DataFrame, Double) = {
    val (res, total) = Timing.timed { val x = r; x.imputed.count(); x }
    (res.imputed, total)
  }

  /** Our MICE (ring + shared computation, Low variant) — "MICE DuckDB" slot. */
  def miceRing(iterations: Int = 3): Imputer = (df, schema) =>
    timeResult(MiceLow.impute(df, schema, MiceConfig(iterations = iterations, seed = 42)))

  /** One-hot + scalar-SUM chained equations — the "MICE Python" slot. */
  def miceDirect(iterations: Int = 3): Imputer = (df, schema) =>
    timeResult(MiceDirect.impute(df, schema, iterations))

  /** Mean/mode imputation. */
  def mean: Imputer = (df, schema) => {
    val (out, secs) = MeanImputer.imputeTimed(df, schema)
    (Imputation.stripMasks(out, schema), secs)
  }

  /** Iterative random-forest imputer — the "MissForest" slot. */
  def missForest: Imputer = (df, schema) =>
    timeResult(MissForestLite.impute(df, schema,
      MissForestLite.Config(iterations = 2, numTrees = 3, maxSample = 6000)))

  /** Denoising-autoencoder one-shot imputer — the "GAIN" / "MIDASpy" slot. */
  def gainSim: Imputer = (df, schema) =>
    timeResult(AutoencoderImputer.impute(df, schema, AutoencoderImputer.Config(epochs = 20)))

  /** Mask-feature-augmented scalar-SUM MICE — the "MIRACLE" quality slot. */
  def miracleLite(iterations: Int = 3): Imputer = (df, schema) =>
    timeResult(MiceDirect.impute(df, schema, iterations, maskFeatures = true))

  /** The §6.4 line-up in paper order. */
  def qualityLineup(iterations: Int = 3): Seq[(String, Imputer)] = Seq(
    "MICE ring (ours)" -> miceRing(iterations),
    "MICE direct (Python-sim)" -> miceDirect(iterations),
    "Mean" -> mean,
    "MissForest-lite" -> missForest,
    "GAIN-sim (autoenc)" -> gainSim,
    "MIRACLE-lite" -> miracleLite(iterations),
  )
}
