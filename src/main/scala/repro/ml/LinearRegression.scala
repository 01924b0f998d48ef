package repro.ml

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.linalg.LinAlg
import repro.ring.{Cofactor, CofactorSchema, Triple}

/** Ridge linear regression trained purely from a cofactor triple (§2.2): the
  * data was scanned once to produce the triple; the normal equations
  * `(A + λD) θ' = b` are solved by one scaled LU factorization of the m×m
  * cofactor system, decoupled from the dataset size.
  *
  * @param wCat per categorical attribute: category code → weight (codes unseen
  *             at training time contribute 0, i.e. fall back to the intercept)
  * @param sigma2 residual variance `θᵀCθ/N` used by stochastic imputation
  */
final case class RegressionModel(
    schema: CofactorSchema,
    target: String,
    intercept: Double,
    wCont: Array[Double],
    wCat: Array[Map[Int, Double]],
    sigma2: Double,
    n: Double,
) {

  /** Mean prediction for one record given attribute arrays in schema order
    * (the target's own slot is ignored — its weight is 0).
    */
  def predict(cont: Array[Double], cat: Array[Int]): Double = {
    var p = intercept
    var i = 0
    while (i < wCont.length) { p += wCont(i) * cont(i); i += 1 }
    var j = 0
    while (j < wCat.length) { p += wCat(j).getOrElse(cat(j), 0.0); j += 1 }
    p
  }

  /** Catalyst prediction column over the model's schema columns. With
    * `stochastic=true` adds Box–Muller noise ε ~ N(0, σ²) (deterministic in
    * `seed`), giving stochastic regression imputation (§3.1).
    */
  def predictColumn(stochastic: Boolean, seed: Long): Column = {
    val (c, d) = Cofactor.inputCols(schema)
    val model = this
    val mean = udf((cont: Seq[Double], cat: Seq[Int]) =>
      model.predict(cont.toArray, cat.toArray)).apply(c, d)
    if (!stochastic || sigma2 <= 0) mean
    else {
      val eps = sqrt(lit(-2.0) * log(rand(seed) + lit(1e-12))) *
        cos(lit(2.0 * math.Pi) * rand(seed + 1)) * lit(math.sqrt(sigma2))
      mean + eps
    }
  }
}

object LinearRegression {

  /** Relative ridge of every MICE model and of the one-hot baseline. */
  final val DefaultLambda = 1e-3

  /** Train ridge regression for continuous `target` from an unpacked cofactor.
    *
    * Feature columns are the intercept, all other continuous attributes, and
    * every one-hot category column; ridge scales each diagonal entry but the
    * intercept's by `(1 + lambda)` (`LinAlg.ridge`), and `LinAlg.solve` solves
    * the system scale-free, as SystemDS and MADlib solve it directly.
    */
  def train(up: Unpacked, target: String, lambda: Double = DefaultLambda): RegressionModel = {
    val schema = up.schema
    val tIdx = schema.contIdx(target)
    val tCol = up.contCol(tIdx)
    val m = up.matrix
    val feats = (0 until up.dim).filter(_ != tCol).toArray
    val a = LinAlg.ridge(Array.tabulate(feats.length, feats.length)((i, j) => m(feats(i))(feats(j))), lambda)
    val b = Array.tabulate(feats.length)(i => m(feats(i))(tCol))
    val theta = LinAlg.solve(a, b) // the zero model on an empty triple

    // Scatter θ back into per-attribute weights.
    val wCont = new Array[Double](schema.k)
    val wCat = Array.fill(schema.l)(Map.newBuilder[Int, Double])
    var intercept = 0.0
    var fi = 0
    while (fi < feats.length) {
      val colIdx = feats(fi)
      if (colIdx == 0) intercept = theta(fi)
      else if (colIdx <= schema.k) wCont(colIdx - 1) = theta(fi)
      else {
        val (j, code) = up.catOf(colIdx)
        wCat(j) += (code -> theta(fi))
      }
      fi += 1
    }

    // Residual variance σ² = θᵀ C θ / N with θ_target fixed to −1 (§3.1).
    val full = new Array[Double](up.dim)
    fi = 0
    while (fi < feats.length) { full(feats(fi)) = theta(fi); fi += 1 }
    full(tCol) = -1.0
    val sigma2 = if (up.triple.n > 0) math.max(0.0, LinAlg.dot(full, LinAlg.matVec(m, full)) / up.triple.n) else 0.0

    RegressionModel(schema, target, intercept, wCont, wCat.map(_.result()), sigma2, up.triple.n)
  }

  /** Convenience: aggregate + train in one call. */
  def trainOn(df: org.apache.spark.sql.DataFrame, schema: CofactorSchema, target: String,
              lambda: Double = DefaultLambda): RegressionModel =
    train(new Unpacked(schema, Cofactor.triple(df, schema)), target, lambda)
}
