package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.Missingness
import repro.mice._

/** Fig 6 — imputation over normalized data: the Low implementation over the
  * materialized join (join time counted as preprocessing) vs factorized
  * evaluation that never materializes the join. Missing values are injected
  * into fact-table attributes only, so both runs impute identical cells.
  */
object NormalizedExp {

  final case class Row(dataset: String, rate: Double, approach: String,
                       preprocessSecs: Double, roundSecs: Double)

  def run(spark: SparkSession, name: String, rows: Long, rates: Seq[Double],
          rounds: Int = 1): Seq[Row] = {
    val in = Inputs.of(spark, name, rows)
    val data = in.star
    val schema = MiceSchema(data.factSchema.cont, data.factSchema.cat, in.factTargets)
    val cfg = MiceConfig(iterations = rounds, stochastic = true, seed = 7)
    Inputs.cached(data.tables: _*) { _ =>
      rates.flatMap { rate =>
        val holey = Missingness.mcar(data.fact, schema.targets, rate, seed = 51)
        Inputs.cached(holey) { _ =>
          // (a) materialize the join, then run single-table Low over it.
          val joined = data.join(holey)
          val materialized = Inputs.cached(joined) { joinSecs =>
            val mat = MiceLow.impute(joined,
              MiceSchema(data.combined.cont, data.combined.cat, schema.targets), cfg)
            mat.imputed.count()
            Row(name, rate, "materialized join", joinSecs + mat.preprocessSecs,
              mat.roundSecs.sum / mat.roundSecs.size)
          }

          // (b) factorized: no join materialization; hierarchical evaluation order.
          val fct = FactorizedMice.impute(holey, schema, data.dims, cfg, data.hierarchy)
          fct.imputed.count()
          Seq(materialized, Row(name, rate, "factorized", fct.preprocessSecs,
            fct.roundSecs.sum / fct.roundSecs.size))
        }
      }
    }
  }

  def format(rows: Seq[Row]): String = {
    val header = "| dataset | missing % | approach | preprocess s | per-round s |"
    val sep = "|---|---|---|---|---|"
    (header +: sep +: rows.map(r =>
      f"| ${r.dataset} | ${(r.rate * 100).round}%d | ${r.approach} | ${r.preprocessSecs}%.2f | ${r.roundSecs}%.2f |"))
      .mkString("\n")
  }
}
