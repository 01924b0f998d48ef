package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{MiceDirect, MissForestLite}
import repro.data.Missingness
import repro.mice._

/** Fig 4 and Fig 6 — the cost of imputation: one-off preprocessing and the
  * mean of one MICE round per method, while the MCAR rate sweeps.
  */
object CostExp {

  final case class Row(dataset: String, rate: Double, method: String,
                       preprocessSecs: Double, roundSecs: Double)

  /** One stochastic MICE round with a fixed seed, as every cost figure
    * (Fig 4–6) runs it.
    */
  val OneRound: MiceConfig = MiceConfig(iterations = 1, stochastic = true, seed = 7)

  /** Fig 4 — single-table imputation over 7 incomplete attributes: our
    * Baseline / Low / High implementations vs the SystemDS/MADlib simulator
    * (one-hot + scalar SUM, the same models) and the MindsDB simulator (tree
    * ensemble per column).
    */
  def singleTable(spark: SparkSession, name: String, rows: Long, rates: Seq[Double]): Seq[Row] = {
    val in = Inputs.of(spark, name, rows)
    val schema = in.schema
    sweep(Seq(in.table), in.table, schema.targets, rates, seed = 31) { (rate, holey) =>
      Seq(
        record(name, rate, "ours baseline (ring)", MiceBaseline.impute(holey, schema, OneRound)),
        record(name, rate, "ours low", MiceLow.impute(holey, schema, OneRound)),
        record(name, rate, "ours high", MiceHigh.impute(holey, schema, OneRound)),
        record(name, rate, "SystemDS-sim (one-hot+direct)",
          MiceDirect.impute(holey, schema, OneRound.iterations)),
        record(name, rate, "MindsDB-sim (trees/column)",
          MissForestLite.impute(holey, schema, MissForestLite.Config(iterations = OneRound.iterations))))
    }
  }

  /** Fig 6 — imputation over normalized data: the Low implementation over the
    * materialized join (join time counted as preprocessing) vs factorized
    * evaluation that never materializes the join. Missing values are injected
    * into fact-table attributes only, so both runs impute identical cells.
    */
  def normalized(spark: SparkSession, name: String, rows: Long, rates: Seq[Double]): Seq[Row] = {
    val in = Inputs.of(spark, name, rows)
    val data = in.star
    val schema = MiceSchema(data.factSchema.cont, data.factSchema.cat, in.factTargets)
    sweep(data.tables, data.fact, schema.targets, rates, seed = 51) { (rate, holey) =>
      // (a) materialize the join, then run single-table Low over it.
      val joined = data.join(holey)
      val materialized = Inputs.cached(joined) { joinSecs =>
        val r = record(name, rate, "materialized join",
          MiceLow.impute(joined, MiceSchema(data.combined.cont, data.combined.cat, schema.targets), OneRound))
        r.copy(preprocessSecs = joinSecs + r.preprocessSecs)
      }
      // (b) factorized: no join materialization; hierarchical evaluation order.
      Seq(materialized, record(name, rate, "factorized",
        FactorizedMice.impute(holey, schema, data.dims, OneRound, data.hierarchy)))
    }
  }

  /** Cache `base`; then per rate, inject MCAR into `targets` of `table` with
    * `seed`, cache the result and run `body` on it.
    */
  private def sweep(base: Seq[DataFrame], table: DataFrame, targets: Seq[String], rates: Seq[Double],
                    seed: Long)(body: (Double, DataFrame) => Seq[Row]): Seq[Row] =
    Inputs.cached(base: _*) { _ =>
      rates.flatMap { rate =>
        val holey = Missingness.mcar(table, targets, rate, seed)
        Inputs.cached(holey)(_ => body(rate, holey))
      }
    }

  /** Count `r`'s output, forcing the final round's lazy work, and record its
    * preprocessing and mean round.
    */
  private def record(dataset: String, rate: Double, method: String, r: MiceResult): Row = {
    r.imputed.count()
    Row(dataset, rate, method, r.preprocessSecs, r.roundSecs.sum / r.roundSecs.size)
  }

  def format(rows: Seq[Row]): String = {
    val header = "| dataset | missing % | method | preprocess s | per-round s |"
    val sep = "|---|---|---|---|---|"
    (header +: sep +: rows.map(r =>
      f"| ${r.dataset} | ${(r.rate * 100).round}%d | ${r.method} | ${r.preprocessSecs}%.2f | ${r.roundSecs}%.2f |"))
      .mkString("\n")
  }
}
