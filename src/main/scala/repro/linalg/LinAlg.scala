package repro.linalg

/** Small dense linear algebra used to train models from cofactor matrices.
  *
  * The paper relies on LAPACK for these routines; at our dimensionalities
  * (m ≤ ~60 after one-hot expansion) one diagonally scaled LU solve with
  * partial pivoting is exact, cheap and keeps the build dependency-free.
  *
  * Matrices are row-major `Array[Array[Double]]`; all routines are pure
  * (inputs are copied before factorization).
  */
object LinAlg {

  /** Matrix-vector product `a * x`. */
  def matVec(a: Array[Array[Double]], x: Array[Double]): Array[Double] = {
    val n = a.length
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      val row = a(i)
      var s = 0.0
      var j = 0
      while (j < row.length) { s += row(j) * x(j); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  /** Dot product. */
  def dot(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < x.length) { s += x(i) * y(i); i += 1 }
    s
  }

  /** Outer product `x yᵀ` added in place into `acc` scaled by `w`. */
  def addOuter(acc: Array[Array[Double]], x: Array[Double], y: Array[Double], w: Double): Unit = {
    var i = 0
    while (i < x.length) {
      val row = acc(i); val xi = x(i) * w
      var j = 0
      while (j < y.length) { row(j) += xi * y(j); j += 1 }
      i += 1
    }
  }

  /** `a` with every diagonal entry but the intercept's (index 0) scaled by
    * `1 + lambda`: relative ridge, so it does not depend on the units of the
    * variables, and it makes the collinear one-hot blocks strictly definite.
    */
  def ridge(a: Array[Array[Double]], lambda: Double): Array[Array[Double]] =
    Array.tabulate(a.length, a.length)((i, j) =>
      if (i == j && i != 0) a(i)(j) * (1.0 + lambda) else a(i)(j))

  /** Solve `A x = b` (see [[solveMany]]).
    *
    * @throws IllegalArgumentException if the scaled `A` is (numerically) singular.
    */
  def solve(a: Array[Array[Double]], b: Array[Double]): Array[Double] =
    solveMany(a, Array(b)).head

  /** Solve `A x_k = b_k` for several right-hand sides sharing one LU
    * factorization with partial pivoting, scale-free: a variable whose row and
    * column are all zero (a category absent from the training rows) is set to
    * 0, and the rest is solved as `(D A D) x̂ = D b`, `x = D x̂`, with
    * `D_ii = 1/√|A_ii|` (1 where `A_ii` is 0), so the pivots and the
    * singularity test do not depend on the units of a variable.
    */
  def solveMany(a0: Array[Array[Double]], bs: Array[Array[Double]]): Array[Array[Double]] = {
    val n0 = a0.length
    require(a0.forall(_.length == n0), "solve requires a square matrix")
    require(bs.forall(_.length == n0), "rhs length must match matrix dimension")
    val live = (0 until n0).filter(i => (0 until n0).exists(j => a0(i)(j) != 0.0 || a0(j)(i) != 0.0)).toArray
    val n = live.length
    val d = live.map { i => val v = math.abs(a0(i)(i)); if (v > 0) 1.0 / math.sqrt(v) else 1.0 }
    val a = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- 0 until n) a(i)(j) = a0(live(i))(live(j)) * d(i) * d(j)
    val perm = Array.tabulate(n)(identity)
    // LU with partial pivoting, in place.
    var k = 0
    while (k < n) {
      var p = k; var best = math.abs(a(k)(k))
      var i = k + 1
      while (i < n) { val v = math.abs(a(i)(k)); if (v > best) { best = v; p = i }; i += 1 }
      if (best < 1e-12)
        throw new IllegalArgumentException(s"singular matrix at pivot $k (|pivot|=$best)")
      if (p != k) { val t = a(p); a(p) = a(k); a(k) = t; val tp = perm(p); perm(p) = perm(k); perm(k) = tp }
      i = k + 1
      while (i < n) {
        val f = a(i)(k) / a(k)(k)
        a(i)(k) = f
        var j = k + 1
        while (j < n) { a(i)(j) -= f * a(k)(j); j += 1 }
        i += 1
      }
      k += 1
    }
    bs.map { b =>
      val y = new Array[Double](n)
      var i = 0
      while (i < n) { // forward substitution on permuted, scaled b
        var s = b(live(perm(i))) * d(perm(i))
        var j = 0
        while (j < i) { s -= a(i)(j) * y(j); j += 1 }
        y(i) = s
        i += 1
      }
      val xh = new Array[Double](n)
      i = n - 1
      while (i >= 0) { // back substitution
        var s = y(i)
        var j = i + 1
        while (j < n) { s -= a(i)(j) * xh(j); j += 1 }
        xh(i) = s / a(i)(i)
        i -= 1
      }
      val x = new Array[Double](n0)
      for (i <- 0 until n) x(live(i)) = xh(i) * d(i)
      x
    }
  }
}
