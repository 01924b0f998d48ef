package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.{Flight, Missingness}
import repro.mice.{MiceConfig, MiceLow, MiceSchema}

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
    val (df, fullSchema) = SingleTableExp.dataset(spark, "flight", rows)
    val out = Seq.newBuilder[Row]
    for (rate <- rates; n <- 1 to maxAttrs) {
      val targets = Flight.IncompleteAttrs.take(n)
      val schema = MiceSchema(fullSchema.cont, fullSchema.cat, targets)
      val holey = Missingness.mcar(df, targets, rate, seed = 41).cache()
      holey.count()
      val r = MiceLow.impute(holey, schema, MiceConfig(iterations = 1, stochastic = true, seed = 7))
      r.imputed.count()
      out += Row(rate, n,
        r.breakdown.getOrElse("init_cofactor", 0.0),
        r.breakdown.getOrElse("train", 0.0),
        r.breakdown.getOrElse("update", 0.0),
        r.roundSecs.sum)
      holey.unpersist(blocking = false)
      Methods.clearCaches(spark)
      df.cache().count()
    }
    out.result()
  }

  def format(rows: Seq[Row]): String = {
    val header = "| missing % | #incomplete attrs | init cofactor s | train s | update s | round s |"
    val sep = "|---|---|---|---|---|---|"
    (header +: sep +: rows.map(r =>
      f"| ${(r.rate * 100).round}%d | ${r.nAttrs}%d | ${r.initCofactorSecs}%.2f | ${r.trainSecs}%.3f | ${r.updateSecs}%.2f | ${r.roundSecs}%.2f |"))
      .mkString("\n")
  }
}
