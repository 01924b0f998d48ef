package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.mice.{Imputation, MiceResult, MiceSchema}
import repro.ring.{CofactorSchema, Triple}
import repro.util.Timing

/** Simulator of the paper's external competitors — SystemDS / MADlib MICE and
  * scikit-learn's IterativeImputer ("MICE Python"): the chained linear models
  * of ring MICE, with the cofactor aggregated the way they aggregate it,
  * inside the same Spark host:
  *
  *  - preprocessing materializes a one-hot encoding of every categorical
  *    attribute (the data-explosion step the ring avoids),
  *  - each (iteration, attribute) computes the cofactor matrix with O(m²)
  *    *scalar* SUM aggregates over the one-hot columns (no compound ring
  *    aggregate, no sharing across attributes or iterations),
  *  - the models are the engine's own, trained from that cofactor: ridge
  *    regression for continuous targets, LDA for categorical ones; no noise.
  *
  * So with `stochastic = false` ring MICE ([[repro.mice.MiceBaseline]])
  * imputes the same cells. With `maskFeatures = true` the missingness masks
  * join the predictors — the MIRACLE-lite quality comparator
  * (missingness-mechanism-aware MICE).
  */
object MiceDirect {

  def impute(df0: DataFrame, schema: MiceSchema, iterations: Int = 5,
             maskFeatures: Boolean = false): MiceResult = {
    val sw = new Timing.StopWatch
    // MIRACLE-lite: each target's mask is one more continuous attribute. It is
    // 0 on the rows that train the target, which gives it weight 0 there.
    val masks = if (maskFeatures) schema.targets.map(t => s"__mf_$t") else Nil
    val trainSchema = schema.copy(cont = schema.cont ++ masks)

    val ((cur0, codes), prepSecs) = Timing.timed {
      val masked = Imputation.addMasks(df0, schema)
      val guessed = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
      val withMasks = schema.targets.zip(masks).foldLeft(guessed) { case (d, (t, m)) =>
        d.withColumn(m, col(schema.maskCol(t)).cast("double"))
      }
      val (d, codes) = oneHot(withMasks, schema.cat)
      (d.localCheckpoint(true), codes)
    }
    var cur = cur0

    val roundSecs = (0 until iterations).map { _ =>
      Timing.timed {
        for (t <- schema.targets) {
          val triple = sw.phase("cofactor")(
            scalarCofactor(cur.filter(!col(schema.maskCol(t))), trainSchema.cofactor, codes))
          val model = sw.phase("train")(Imputation.train(triple, trainSchema, t))
          cur = sw.phase("update") {
            val d = Imputation.updateWhereMasked(cur, schema, t, model.predictColumn)
            // Keep t's one-hot encoding in step with its new values.
            codes.getOrElse(t, Nil).foldLeft(d) { case (acc, (code, name)) =>
              acc.withColumn(name, (col(t) === code).cast("double"))
            }
          }
        }
      }._2
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

  /** The cofactor triple of `d` under `schema`, from scalar SUMs: one SUM
    * per entry of the upper triangle of the cofactor matrix over
    * `[1, continuous, one-hot]`, where the one-hot columns are the
    * materialized `__oh_*` columns of `codes` ([[oneHot]]). A category with a
    * zero count gets no entry, as in the ring.
    */
  def scalarCofactor(d: DataFrame, schema: CofactorSchema, codes: Map[String, Seq[(Int, String)]]): Triple = {
    val (k, l) = (schema.k, schema.l)
    // One-hot matrix columns as (categorical index, code, column name).
    val oh = schema.cat.zipWithIndex.flatMap { case (c, j) => codes(c).map { case (code, name) => (j, code, name) } }
    val fs = lit(1.0) +: (schema.cont.map(col(_).cast("double")) ++ oh.map(o => col(o._3)))
    val m = fs.length
    val row = d.select((for (i <- 0 until m; j <- i until m) yield sum(fs(i) * fs(j))): _*).head()
    val a = Array.ofDim[Double](m, m)
    var idx = 0
    for (i <- 0 until m; j <- i until m) {
      a(i)(j) = if (row.isNullAt(idx)) 0.0 else row.getDouble(idx); idx += 1
    }

    val t = Triple.zero(k, l)
    t.n = a(0)(0)
    for (i <- 0 until k) {
      t.s(i) = a(0)(1 + i)
      for (j <- i until k) t.q(Triple.qIdx(k, i, j)) = a(1 + i)(1 + j)
    }
    val ohCol = 1 + k
    for (((j, code, _), p) <- oh.zipWithIndex if a(0)(ohCol + p) != 0) {
      t.scat(j)(code) = a(0)(ohCol + p)
      for (i <- 0 until k) t.qcc(j * k + i)(code) = a(1 + i)(ohCol + p)
      for (((j2, code2, _), p2) <- oh.zipWithIndex.drop(p + 1) if j2 != j && a(ohCol + p)(ohCol + p2) != 0)
        t.qcatcat(Triple.catcatIdx(l, j, j2))(Triple.pairKey(code, code2)) = a(ohCol + p)(ohCol + p2)
    }
    t
  }
}
