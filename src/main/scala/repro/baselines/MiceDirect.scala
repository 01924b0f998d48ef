package repro.baselines

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.linalg.LinAlg
import repro.mice.{Imputation, MiceConfig, MiceResult, MiceSchema}
import repro.ml.LinearRegression
import repro.util.Timing

/** Simulator of the paper's external competitors — SystemDS / MADlib MICE and
  * scikit-learn's IterativeImputer ("MICE Python") — reproducing their cost
  * and quality profile inside the same Spark host:
  *
  *  - preprocessing materializes a one-hot encoding of every categorical
  *    attribute (the data-explosion step the ring avoids),
  *  - each (iteration, attribute) computes the cofactor matrix with O(m²)
  *    *scalar* SUM aggregates over the one-hot columns (no compound ring
  *    aggregate, no sharing across attributes or iterations),
  *  - linear systems are solved directly (`LinAlg.solve`), as SystemDS and
  *    MADlib do,
  *  - categorical targets are imputed by a per-class linear scorer trained on
  *    one-vs-rest indicator regressions (a least-squares surrogate for their
  *    multinomial logistic regression with the same aggregate structure).
  *
  * With `maskFeatures = true` the missingness masks join the predictors —
  * the MIRACLE-lite quality comparator (missingness-mechanism-aware MICE).
  */
object MiceDirect {

  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig(),
             maskFeatures: Boolean = false): MiceResult = {
    val sw = new Timing.StopWatch

    val ((cur0, encoded), prepSecs) = Timing.timed {
      val masked = Imputation.addMasks(df0, schema)
      val guesses = Imputation.initialGuesses(masked, schema)
      val (d, codes) = oneHot(Imputation.initImpute(masked, schema, guesses), schema.cat)
      val withMasks =
        if (!maskFeatures) d
        else schema.targets.foldLeft(d)((acc, t) => acc.withColumn(s"__mf_$t", col(schema.maskCol(t)).cast("double")))
      (withMasks.localCheckpoint(true), codes)
    }
    var cur = cur0

    /** Predictor columns when imputing `target` (one-hot space + optional masks). */
    def featureCols(target: String): Seq[String] = {
      val contF = schema.cont.filter(_ != target)
      val catF = schema.cat.filter(_ != target).flatMap(c => encoded(c).map(_._2))
      val maskF = if (maskFeatures) schema.targets.filter(_ != target).map(t => s"__mf_$t") else Nil
      contF ++ catF ++ maskF
    }

    def linearExpr(feats: Seq[String], theta: Array[Double]): Column =
      feats.zipWithIndex.foldLeft(lit(theta(0))) { case (acc, (f, i)) =>
        acc + col(f).cast("double") * theta(i + 1)
      }

    val roundSecs = (0 until cfg.iterations).map { _ =>
      val (_, secs) = Timing.timed {
        for (t <- schema.targets) {
          val mask = col(schema.maskCol(t))
          val obs = cur.filter(!mask)
          val feats = featureCols(t)
          if (schema.isContinuous(t)) {
            val (a, bs) = sw.phase("cofactor")(scalarCofactor(obs, feats, Seq(t)))
            val theta = sw.phase("train")(LinAlg.solve(LinAlg.ridge(a, LinearRegression.DefaultLambda), bs(0)))
            cur = sw.phase("update") {
              cur.withColumn(t, when(mask, linearExpr(feats, theta)).otherwise(col(t)))
                .localCheckpoint(true)
            }
          } else {
            // One-vs-rest least-squares scorers per class.
            val classCols = encoded(t)
            val (a, bs) = sw.phase("cofactor")(
              scalarCofactor(obs, feats, classCols.map(_._2)))
            val thetas = sw.phase("train")(LinAlg.solveMany(LinAlg.ridge(a, LinearRegression.DefaultLambda), bs))
            val scores = classCols.zip(thetas).map { case ((code, _), th) =>
              (code, linearExpr(feats, th))
            }
            // argmax over class scores via a greatest() chain.
            val best = scores.tail.foldLeft((lit(scores.head._1), scores.head._2)) {
              case ((bc, bscol), (code, sc)) =>
                (when(sc > bscol, lit(code)).otherwise(bc), greatest(sc, bscol))
            }._1
            cur = sw.phase("update") {
              var d = cur.withColumn(t, when(mask, best).otherwise(col(t)))
              // Keep the one-hot encoding of t consistent with the new values.
              for ((code, name) <- classCols)
                d = d.withColumn(name, (col(t) === code).cast("double"))
              d.localCheckpoint(true)
            }
          }
        }
      }
      secs
    }
    MiceResult(Imputation.stripMasks(cur, schema), prepSecs, roundSecs, sw.snapshot)
  }

  /** One-hot encode the categorical attributes `cats` of `df` (the
    * competitors' preprocessing step): a 0/1 double column `__oh_<c>_<code>`
    * per code that occurs, and per attribute its (code, column) pairs in code
    * order.
    */
  def oneHot(df: DataFrame, cats: Seq[String]): (DataFrame, Map[String, Seq[(Int, String)]]) = {
    var d = df
    val codes = cats.map { c =>
      val cols = d.select(c).distinct().collect().map(_.get(0).toString.toInt).sorted.toSeq
        .map(code => code -> s"__oh_${c}_$code")
      for ((code, name) <- cols)
        d = d.withColumn(name, (col(c) === code).cast("double"))
      c -> cols
    }.toMap
    (d, codes)
  }

  /** Scalar-SUM cofactor over [1, feats, rhs*] — (m²+m·r) SUM aggregates:
    * the m×m matrix over the intercept and `feats`, and per `rhs` column its
    * m sums against them.
    */
  def scalarCofactor(d: DataFrame, feats: Seq[String], rhs: Seq[String]): (Array[Array[Double]], Array[Array[Double]]) = {
    val fs = lit(1.0) +: feats.map(col(_).cast("double"))
    val m = fs.length
    val rs = rhs.map(col(_).cast("double"))
    val exprs =
      (for (i <- 0 until m; j <- i until m) yield sum(fs(i) * fs(j))) ++
        (for (i <- 0 until m; r <- rs) yield sum(fs(i) * r))
    val row = d.select(exprs: _*).head()
    val a = Array.ofDim[Double](m, m)
    var idx = 0
    for (i <- 0 until m; j <- i until m) {
      val v = if (row.isNullAt(idx)) 0.0 else row.getDouble(idx)
      a(i)(j) = v; a(j)(i) = v; idx += 1
    }
    val bs = Array.ofDim[Double](rhs.length, m)
    for (i <- 0 until m; r <- rhs.indices) {
      bs(r)(i) = if (row.isNullAt(idx)) 0.0 else row.getDouble(idx); idx += 1
    }
    (a, bs)
  }
}
