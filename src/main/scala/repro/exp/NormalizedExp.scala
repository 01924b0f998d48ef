package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.{Flight, Missingness, Retailer}
import repro.mice._
import repro.util.Timing

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
    val (data, targets) = name match {
      case "flight" => (Flight.normalized(spark, rows).cache(), Flight.IncompleteAttrs)
      // Retailer's only incomplete fact attribute: inventoryunits (as in Fig 6).
      case "retailer" => (Retailer.normalized(spark, rows).cache(), Seq("inventoryunits"))
      case other => throw new IllegalArgumentException(s"unknown dataset $other")
    }
    val schema = MiceSchema(data.factSchema.cont, data.factSchema.cat, targets)
    val out = Seq.newBuilder[Row]
    for (rate <- rates) {
      val holey = Missingness.mcar(data.fact, schema.targets, rate, seed = 51).cache()
      holey.count()
      val cfg = MiceConfig(iterations = rounds, stochastic = true, seed = 7)

      // (a) materialize the join, then run single-table Low over it.
      val (joined, joinSecs) = Timing.timed {
        val j = data.join(holey).cache()
        j.count()
        j
      }
      val mat = MiceLow.impute(joined, MiceSchema(data.combined.cont, data.combined.cat, targets), cfg)
      mat.imputed.count()
      out += Row(name, rate, "materialized join", joinSecs + mat.preprocessSecs,
        mat.roundSecs.sum / mat.roundSecs.size)

      // (b) factorized: no join materialization; hierarchical evaluation order.
      val fct = FactorizedMice.impute(holey, schema, data.dims, cfg, data.hierarchy)
      fct.imputed.count()
      out += Row(name, rate, "factorized", fct.preprocessSecs,
        fct.roundSecs.sum / fct.roundSecs.size)

      joined.unpersist(blocking = false)
      holey.unpersist(blocking = false)
      Methods.clearCaches(spark)
      data.cache()
    }
    out.result()
  }

  def format(rows: Seq[Row]): String = {
    val header = "| dataset | missing % | approach | preprocess s | per-round s |"
    val sep = "|---|---|---|---|---|"
    (header +: sep +: rows.map(r =>
      f"| ${r.dataset} | ${(r.rate * 100).round}%d | ${r.approach} | ${r.preprocessSecs}%.2f | ${r.roundSecs}%.2f |"))
      .mkString("\n")
  }
}
