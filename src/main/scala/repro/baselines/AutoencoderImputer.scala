package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.mice.{Imputation, MiceResult, MiceSchema}
import repro.util.Timing
import scala.util.Random

/** Neural generative-imputation stand-in for GAIN [69] / MIDASpy [37]: a
  * single-hidden-layer denoising autoencoder that takes the standardized
  * record with missing entries zeroed plus the missingness mask, and
  * reconstructs the record; the reconstruction loss is computed on observed
  * entries only. Trained by SGD on a driver-side sample (as the originals
  * train in-memory), then applied one-shot to missing cells via a broadcast
  * UDF. Categorical attributes enter as standardized codes and predictions
  * are rounded to the nearest observed code.
  */
object AutoencoderImputer {

  final case class Config(epochs: Int = 30)

  private val Hidden = 16
  private val LearningRate = 0.01
  private val MaxSample = 8000
  private val Seed = 29L

  /** The fitted network + standardization stats. */
  final case class Model(
      w1: Array[Array[Double]], b1: Array[Double],
      w2: Array[Array[Double]], b2: Array[Double],
      mean: Array[Double], std: Array[Double],
  ) extends Serializable {

    /** The network input: the standardized values, zero where missing, ++ the mask. */
    def encode(values: Array[Double], missing: Array[Boolean]): Array[Double] = {
      val m = mean.length
      val input = new Array[Double](2 * m)
      var i = 0
      while (i < m) {
        input(i) = if (missing(i)) 0.0 else (values(i) - mean(i)) / std(i)
        input(m + i) = if (missing(i)) 1.0 else 0.0
        i += 1
      }
      input
    }

    /** Hidden-layer activations. */
    def hidden(input: Array[Double]): Array[Double] =
      Array.tabulate(b1.length) { j =>
        var s = b1(j); var i = 0
        while (i < input.length) { s += w1(j)(i) * input(i); i += 1 }
        math.tanh(s)
      }

    /** The reconstructed standardized record. */
    def output(h: Array[Double]): Array[Double] =
      Array.tabulate(b2.length) { o =>
        var s = b2(o); var j = 0
        while (j < h.length) { s += w2(o)(j) * h(j); j += 1 }
        s
      }

    /** Impute one record: returns reconstructed raw values for all attrs. */
    def impute(values: Array[Double], missing: Array[Boolean]): Array[Double] = {
      val rec = output(hidden(encode(values, missing)))
      Array.tabulate(mean.length)(i => rec(i) * std(i) + mean(i))
    }
  }

  def fit(rows: Array[Array[Double]], masks: Array[Array[Boolean]], cfg: Config): Model = {
    require(rows.nonEmpty, "autoencoder needs training rows")
    val m = rows.head.length
    val mean = new Array[Double](m); val std = new Array[Double](m)
    for (i <- 0 until m) {
      val obs = rows.indices.filter(r => !masks(r)(i)).map(r => rows(r)(i))
      mean(i) = if (obs.nonEmpty) obs.sum / obs.size else 0.0
      val v = if (obs.nonEmpty) obs.map(x => (x - mean(i)) * (x - mean(i))).sum / obs.size else 1.0
      std(i) = math.max(math.sqrt(v), 1e-6)
    }
    val rng = new Random(Seed)
    val h = Hidden
    def init(rowsN: Int, colsN: Int): Array[Array[Double]] =
      Array.fill(rowsN, colsN)((rng.nextDouble() - 0.5) * 2.0 / math.sqrt(colsN))
    val w1 = init(h, 2 * m); val b1 = new Array[Double](h)
    val w2 = init(m, h); val b2 = new Array[Double](m)
    // SGD updates the model's arrays in place.
    val model = Model(w1, b1, w2, b2, mean, std)

    for (_ <- 0 until cfg.epochs; r <- rng.shuffle(rows.indices.toList)) {
      val input = model.encode(rows(r), masks(r))
      val hAct = model.hidden(input)
      val out = model.output(hAct)
      // Backward on observed entries only, whose standardized values are the input.
      val dOut = Array.tabulate(m) { o =>
        if (masks(r)(o)) 0.0 else 2.0 * (out(o) - input(o)) / m
      }
      val dH = Array.tabulate(h) { j =>
        var s = 0.0; var o = 0
        while (o < m) { s += dOut(o) * w2(o)(j); o += 1 }
        s * (1.0 - hAct(j) * hAct(j))
      }
      for (o <- 0 until m; j <- 0 until h) w2(o)(j) -= LearningRate * dOut(o) * hAct(j)
      for (o <- 0 until m) b2(o) -= LearningRate * dOut(o)
      for (j <- 0 until h; i <- 0 until 2 * m) w1(j)(i) -= LearningRate * dH(j) * input(i)
      for (j <- 0 until h) b1(j) -= LearningRate * dH(j)
    }
    model
  }

  /** Impute a dataset one-shot. Continuous targets take the reconstruction;
    * categorical targets round to the nearest observed code.
    */
  def impute(df0: DataFrame, schema: MiceSchema, cfg: Config = Config()): MiceResult = {
    val sw = new Timing.StopWatch
    val attrs = schema.cofactor.cont ++ schema.cofactor.cat
    val (model, prepSecs) = Timing.timed {
      val n = df0.count().toDouble
      val frac = math.min(1.0, MaxSample / math.max(n, 1.0))
      val sampled = df0.sample(withReplacement = false, frac, Seed)
        .select(attrs.map(c => col(c).cast("double")): _*).collect()
      val rows = sampled.map(r => Array.tabulate(attrs.length)(i => if (r.isNullAt(i)) 0.0 else r.getDouble(i)))
      val masks = sampled.map(r => Array.tabulate(attrs.length)(r.isNullAt))
      sw.phase("train")(fit(rows, masks, cfg))
    }
    val (out, imputeSecs) = Timing.timed {
      val codes: Map[String, Array[Int]] = schema.targets.filterNot(schema.isContinuous).map { t =>
        t -> df0.filter(col(t).isNotNull).select(t).distinct().collect()
          .map(_.get(0).toString.toInt).sorted
      }.toMap
      val catCodes = attrs.map(a => codes.getOrElse(a, Array.empty[Int])).toArray
      val isCat = attrs.map(a => !schema.cofactor.cont.contains(a)).toArray
      val rec = udf((values: Seq[Double], miss: Seq[Boolean]) => {
        val imputed = model.impute(values.toArray, miss.toArray)
        imputed.indices.map { i =>
          if (isCat(i) && catCodes(i).nonEmpty)
            catCodes(i).minBy(c => math.abs(c - imputed(i))).toDouble
          else imputed(i)
        }
      })
      val valArr = array(attrs.map(c => coalesce(col(c).cast("double"), lit(0.0))): _*)
      val missArr = array(attrs.map(c => col(c).isNull): _*)
      var d = df0.withColumn("__rec", rec(valArr, missArr))
      for ((t, i) <- attrs.zipWithIndex if schema.targets.contains(t)) {
        val dt = d.schema(t).dataType
        d = d.withColumn(t, coalesce(col(t), col("__rec").getItem(i).cast(dt)))
      }
      Imputation.stripMasks(d.drop("__rec"), schema).localCheckpoint(true)
    }
    MiceResult(out, prepSecs, Seq(imputeSecs), sw.snapshot)
  }
}
