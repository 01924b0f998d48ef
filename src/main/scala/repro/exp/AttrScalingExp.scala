package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.Missingness
import repro.mice.MiceLow

/** Fig 5 — runtime of the Low implementation vs the number of incomplete
  * attributes (1…6) at 5% and 20% missing, with the per-phase breakdown:
  * initial cofactor (complete rows plus building the blocks), training, and
  * the fused update passes that rewrite a column and refresh the triples.
  */
object AttrScalingExp {

  final case class Row(rate: Double, nAttrs: Int, initCofactorSecs: Double,
                       trainSecs: Double, updateSecs: Double, roundSecs: Double)

  def run(spark: SparkSession, rows: Long, rates: Seq[Double] = Seq(0.05, 0.20),
          maxAttrs: Int = 6): Seq[Row] = {
    val in = Inputs.of(spark, "flight", rows)
    Inputs.cached(in.table) { _ =>
      for (rate <- rates; n <- 1 to maxAttrs) yield {
        val schema = in.schema.copy(targets = in.schema.targets.take(n))
        val holey = Missingness.mcar(in.table, schema.targets, rate, seed = 41)
        Inputs.cached(holey) { _ =>
          val r = MiceLow.impute(holey, schema, CostExp.OneRound)
          r.imputed.count()
          Row(rate, n,
            r.breakdown.getOrElse("init_cofactor", 0.0),
            r.breakdown.getOrElse("train", 0.0),
            r.breakdown.getOrElse("update", 0.0),
            r.roundSecs.sum)
        }
      }
    }
  }

  def format(rows: Seq[Row]): String = {
    val header = "| missing % | #incomplete attrs | init cofactor s | train s | update s | round s |"
    val sep = "|---|---|---|---|---|---|"
    (header +: sep +: rows.map(r =>
      f"| ${(r.rate * 100).round}%d | ${r.nAttrs}%d | ${r.initCofactorSecs}%.2f | ${r.trainSecs}%.3f | ${r.updateSecs}%.2f | ${r.roundSecs}%.2f |"))
      .mkString("\n")
  }
}
