package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.mice.{Imputation, MiceResult, MiceSchema}
import repro.util.Timing

/** Mean/mode imputation — the model-free comparator of §6.4: each missing
  * continuous value becomes its column mean, each missing categorical value
  * its column mode. Fast, but distorts variance and relationships. The one
  * aggregate of the means and modes is its preprocessing; it has no rounds.
  */
object MeanImputer {

  def impute(df: DataFrame, schema: MiceSchema): MiceResult = {
    val (guesses, secs) = Timing.timed(Imputation.initialGuesses(df, schema))
    MiceResult(Imputation.stripMasks(Imputation.initImpute(df, schema, guesses), schema), secs, Nil, Map.empty)
  }
}
