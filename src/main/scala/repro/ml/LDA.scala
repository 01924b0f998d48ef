package repro.ml

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.linalg.LinAlg
import repro.ring.{Cofactor, CofactorSchema, Triple}

/** Linear discriminant analysis trained from a cofactor triple (§3.2):
  * classify `x` into `argmax_c a_cᵀx + b_c` with `a_c = Σ⁻¹μ_c` and
  * `b_c = ln π_c − ½ μ_cᵀ Σ⁻¹ μ_c`.
  *
  * Features are the continuous attributes plus the one-hot encodings of the
  * *other* categorical attributes; every required aggregate (per-class counts,
  * per-class feature sums, the shared scatter) is read straight off the
  * triple — no second pass over the data.
  *
  * @param aCont per class: weights of continuous attrs (schema order)
  * @param aCat  per class, per categorical attr: category code → weight
  *              (the target attribute's own map is empty)
  */
final case class LdaModel(
    schema: CofactorSchema,
    target: String,
    classes: Array[Int],
    aCont: Array[Array[Double]],
    aCat: Array[Array[Map[Int, Double]]],
    b: Array[Double],
) {

  /** Predicted class for one record given attribute arrays in schema order. */
  def predict(cont: Array[Double], cat: Array[Int]): Int = {
    var best = 0; var bestScore = Double.NegativeInfinity
    var c = 0
    while (c < classes.length) {
      var sc = b(c)
      var i = 0
      while (i < aCont(c).length) { sc += aCont(c)(i) * cont(i); i += 1 }
      var j = 0
      while (j < aCat(c).length) { sc += aCat(c)(j).getOrElse(cat(j), 0.0); j += 1 }
      if (sc > bestScore) { bestScore = sc; best = c }
      c += 1
    }
    classes(best)
  }

  /** Catalyst prediction column over the model's schema columns. */
  def predictColumn: Column = {
    val (cc, dd) = Cofactor.inputCols(schema)
    val model = this
    udf((cont: Seq[Double], cat: Seq[Int]) => model.predict(cont.toArray, cat.toArray)).apply(cc, dd)
  }
}

object LDA {

  /** Σ's diagonal grows by this fraction of each feature's total variance
    * `Q_ii/N − (s_i/N)²`: LDA does not depend on the units of a feature, the
    * one-hot blocks become strictly definite, and a copy of the target keeps a
    * finite weight. A feature whose total variance is at rounding level (at
    * most 1e-12 of its second moment) is constant; its row and column are
    * zeroed, and the solve gives it weight 0.
    */
  private final val Shrinkage = 1e-3

  /** Train LDA for categorical `target` from an unpacked cofactor triple. */
  def train(up: Unpacked, target: String): LdaModel = {
    val schema = up.schema
    val k = schema.k
    val jT = schema.catIdx(target)
    val t = up.triple
    val classes = up.dicts(jT)
    require(classes.nonEmpty, s"no observed classes for LDA target $target")
    val n = t.n

    // Feature dense columns: continuous attrs then one-hot of other cat attrs.
    val featCols: Array[Int] =
      (0 until k).map(up.contCol).toArray ++
        (0 until schema.l).filter(_ != jT).flatMap(j => up.dicts(j).indices.map(up.catOffsets(j) + _))
    val fDim = featCols.length
    val m = up.matrix

    // Per-class counts and feature sums.
    val nC = classes.map(c => t.scat(jT).getOrElse(c, 0.0))
    val mu = Array.ofDim[Double](classes.length, fDim)
    var ci = 0
    while (ci < classes.length) {
      val cls = classes(ci)
      var f = 0
      while (f < fDim) {
        val colIdx = featCols(f)
        val sum =
          if (colIdx <= k) t.qcc(jT * k + (colIdx - 1)).getOrElse(cls, 0.0) // continuous feature
          else { // one-hot feature: SUM(1) GROUP BY (featAttr, target)
            val (j, code) = up.catOf(colIdx)
            t.pairCount(j, code, jT, cls)
          }
        mu(ci)(f) = if (nC(ci) > 0) sum / nC(ci) else 0.0
        f += 1
      }
      ci += 1
    }

    // Shared covariance Σ = Q_F/N − Σ_c (N_c/N) μ_c μ_cᵀ  (Eq. 2 rewritten).
    val sigma = Array.tabulate(fDim, fDim)((i, j) => m(featCols(i))(featCols(j)) / n)
    ci = 0
    while (ci < classes.length) {
      LinAlg.addOuter(sigma, mu(ci), mu(ci), -nC(ci) / n)
      ci += 1
    }
    var i = 0
    while (i < fDim) {
      val second = m(featCols(i))(featCols(i)) / n
      val mean = m(0)(featCols(i)) / n
      val total = second - mean * mean
      if (total > 1e-12 * second) sigma(i)(i) += Shrinkage * total
      else for (j <- 0 until fDim) { sigma(i)(j) = 0.0; sigma(j)(i) = 0.0 }
      i += 1
    }

    // a_c = Σ⁻¹ μ_c via one shared LU factorization.
    val aRows = LinAlg.solveMany(sigma, mu)
    val bVec = Array.tabulate(classes.length) { c =>
      val pi = math.max(nC(c) / n, 1e-300)
      math.log(pi) - 0.5 * LinAlg.dot(mu(c), aRows(c))
    }

    // Scatter a_c back into per-attribute weights.
    val aCont = Array.ofDim[Double](classes.length, schema.k)
    val aCat = Array.fill(classes.length, schema.l)(Map.empty[Int, Double])
    ci = 0
    while (ci < classes.length) {
      var f = 0
      while (f < fDim) {
        val colIdx = featCols(f)
        if (colIdx <= k) aCont(ci)(colIdx - 1) = aRows(ci)(f)
        else {
          val (j, code) = up.catOf(colIdx)
          aCat(ci)(j) = aCat(ci)(j) + (code -> aRows(ci)(f))
        }
        f += 1
      }
      ci += 1
    }
    LdaModel(schema, target, classes, aCont, aCat, bVec)
  }

  /** Convenience: aggregate + train in one call. */
  def trainOn(df: org.apache.spark.sql.DataFrame, schema: CofactorSchema, target: String): LdaModel =
    train(new Unpacked(schema, Cofactor.triple(df, schema)), target)
}
