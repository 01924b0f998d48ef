package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.{MiceDirect, MissForestLite}
import repro.data.Missingness
import repro.mice._

/** Fig 4 — single-table imputation: preprocessing time (one-off) and the cost
  * of one MICE round over 7 incomplete attributes, for our Baseline / Low /
  * High implementations vs the SystemDS/MADlib simulator (one-hot + scalar
  * SUM, the same models) and the MindsDB simulator (tree ensemble per column),
  * while the missing rate sweeps 5% … 80%.
  */
object SingleTableExp {

  final case class Row(dataset: String, rate: Double, method: String,
                       preprocessSecs: Double, roundSecs: Double)

  def run(spark: SparkSession, name: String, rows: Long, rates: Seq[Double],
          rounds: Int = 1): Seq[Row] = {
    val in = Inputs.of(spark, name, rows)
    val schema = in.schema
    val cfg = MiceConfig(iterations = rounds, stochastic = true, seed = 7)
    Inputs.cached(in.table) { _ =>
      rates.flatMap { rate =>
        val holey = Missingness.mcar(in.table, schema.targets, rate, seed = 31)
        Inputs.cached(holey) { _ =>
          def record(method: String, r: MiceResult): Row = {
            r.imputed.count() // force the final round's lazy work
            Row(name, rate, method, r.preprocessSecs, r.roundSecs.sum / r.roundSecs.size)
          }

          Seq(
            record("ours baseline (ring)", MiceBaseline.impute(holey, schema, cfg)),
            record("ours low", MiceLow.impute(holey, schema, cfg)),
            record("ours high", MiceHigh.impute(holey, schema, cfg)),
            record("SystemDS-sim (one-hot+direct)",
              MiceDirect.impute(holey, schema, rounds)),
            record("MindsDB-sim (trees/column)",
              MissForestLite.impute(holey, schema, MissForestLite.Config(iterations = rounds))))
        }
      }
    }
  }

  def format(rows: Seq[Row]): String = {
    val header = "| dataset | missing % | method | preprocess s | per-round s |"
    val sep = "|---|---|---|---|---|"
    (header +: sep +: rows.map(r =>
      f"| ${r.dataset} | ${(r.rate * 100).round}%d | ${r.method} | ${r.preprocessSecs}%.2f | ${r.roundSecs}%.2f |"))
      .mkString("\n")
  }
}
