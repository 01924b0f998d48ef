package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, var_pop}
import repro.baselines.{AutoencoderImputer, MeanImputer, MiceDirect, MissForestLite}
import repro.data.Missingness
import repro.eval.Metrics
import repro.mice.{MiceConfig, MiceLow, MiceResult, MiceSchema}
import repro.ring.CofactorSchema
import repro.util.Timing

/** Fig 7 and Fig 8 — imputation quality, following the paper's protocol:
  * hold out a complete test split, inject missingness into the training
  * split's predictor attributes, impute with each method, train a linear
  * regression on the imputed data, and report its RMSE / R² on the test
  * split plus the imputation time. RMSE is reported normalized by the test
  * label's standard deviation so magnitudes are comparable to the paper's
  * (their pipeline standardizes features). A method's time runs from its
  * call until its output is counted.
  */
object QualityExp {

  final case class Cell(dataset: String, pattern: String, rate: Double, method: String,
                        rmse: Double, r2: Double, imputeSecs: Double)

  def run(spark: SparkSession, name: String, rows: Long, patterns: Seq[String],
          rates: Seq[Double], iterations: Int = 3): Seq[Cell] = {
    val in = Inputs.of(spark, name, rows)
    val (label, schema) = (in.label, in.schema)
    require(!schema.targets.contains(label), "the downstream label must stay complete")
    val downstreamSchema = CofactorSchema(schema.cont, schema.cat)
    // The §6.4 line-up in paper order. Names follow the paper's method
    // labels, annotated with what simulates what (DESIGN.md substitution table).
    val lineup: Seq[(String, (DataFrame, MiceSchema) => MiceResult)] = Seq(
      ("MICE ring (ours)", (df, s) => MiceLow.impute(df, s, MiceConfig(iterations = iterations, seed = 42))),
      ("MICE direct (Python-sim)", (df, s) => MiceDirect.impute(df, s, iterations)),
      ("Mean", MeanImputer.impute),
      ("MissForest-lite", (df, s) =>
        MissForestLite.impute(df, s, MissForestLite.Config(iterations = 2, numTrees = 3, maxSample = 6000))),
      ("GAIN-sim (autoenc)", (df, s) => AutoencoderImputer.impute(df, s, AutoencoderImputer.Config(epochs = 20))),
      ("MIRACLE-lite", (df, s) => MiceDirect.impute(df, s, iterations, maskFeatures = true)))
    // The split reads the cached table, so both sides see the same rows.
    Inputs.cached(in.table) { _ =>
      val (train, test) = Metrics.split(in.table, testFraction = 0.2, seed = 61)
      Inputs.cached(train, test) { _ =>
        val labelSd = math.sqrt(test.select(var_pop(col(label))).head().getDouble(0))
        (for (pattern <- patterns; rate <- rates) yield {
          val holey = Missingness.inject(train, pattern, schema.targets, rate, label, seed = 71)
          Inputs.cached(holey) { _ =>
            for ((methodName, impute) <- lineup) yield {
              val (r, secs) = Timing.timed { val r = impute(holey, schema); r.imputed.count(); r }
              val d = Metrics.downstream(r.imputed, test, downstreamSchema, label)
              Cell(name, pattern, rate, methodName, d.rmse / labelSd, d.r2, secs)
            }
          }
        }).flatten
      }
    }
  }

  def format(cells: Seq[Cell]): String = {
    val header = "| dataset | pattern | missing % | method | RMSE (norm.) | R2 | impute s |"
    val sep = "|---|---|---|---|---|---|---|"
    (header +: sep +: cells.map(c =>
      f"| ${c.dataset} | ${c.pattern} | ${(c.rate * 100).round}%d | ${c.method} | ${c.rmse}%.3f | ${c.r2}%.3f | ${c.imputeSecs}%.1f |"))
      .mkString("\n")
  }
}
