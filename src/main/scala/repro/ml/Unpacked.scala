package repro.ml

import repro.ring.{CofactorSchema, Triple}

/** Dense view of a cofactor triple: the full symmetric cofactor matrix over
  * `[1, X_cont…, onehot(X_cat)…]`, with per-attribute category dictionaries
  * derived from the triple itself (only categories that actually occur get a
  * column — the ring's answer to one-hot sparsity; unpacking happens on the
  * driver at model-training time, as in the paper's UDF-based train step).
  */
final class Unpacked(val schema: CofactorSchema, val triple: Triple) {
  require(triple.k == schema.k && triple.l == schema.l,
    s"triple arity (${triple.k},${triple.l}) does not match schema ($schema)")
  // A NaN or ∞ input (or a sum that overflowed) would flow into every θ.
  for (i <- 0 until schema.k)
    require(triple.s(i).isFinite && triple.qCont(i, i).isFinite,
      s"continuous attribute ${schema.cont(i)} has a NaN or infinite value (or its sums overflow)")

  /** Sorted category dictionary per categorical attribute. */
  val dicts: Array[Array[Int]] = triple.scat.map(_.keysIterator.toArray.sorted)

  /** Column offset of each categorical block in the dense matrix. */
  val catOffsets: Array[Int] = {
    val off = new Array[Int](schema.l)
    var acc = 1 + schema.k
    var j = 0
    while (j < schema.l) { off(j) = acc; acc += dicts(j).length; j += 1 }
    off
  }

  /** Total dense dimension: intercept + continuous + sum of category domains. */
  val dim: Int = 1 + schema.k + dicts.map(_.length).sum

  /** Dense column of continuous attribute `i` (triple index). */
  def contCol(i: Int): Int = 1 + i

  /** Dense column of category `code` of categorical attribute `j`, or -1 if
    * the code never occurred in the aggregated data.
    */
  def catCol(j: Int, code: Int): Int = {
    val p = java.util.Arrays.binarySearch(dicts(j), code)
    if (p < 0) -1 else catOffsets(j) + p
  }

  /** The (categorical attribute, code) of one-hot dense column `c`: the
    * inverse of `catCol`.
    */
  def catOf(c: Int): (Int, Int) = {
    val j = catOffsets.lastIndexWhere(_ <= c)
    (j, dicts(j)(c - catOffsets(j)))
  }

  /** The full symmetric cofactor matrix (built once, lazily). */
  lazy val matrix: Array[Array[Double]] = {
    val k = schema.k; val l = schema.l
    val m = Array.ofDim[Double](dim, dim)
    m(0)(0) = triple.n
    var i = 0
    while (i < k) {
      m(0)(contCol(i)) = triple.s(i)
      var j = i
      while (j < k) { m(contCol(i))(contCol(j)) = triple.qCont(i, j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < l) {
      for ((code, cnt) <- triple.scat(j)) {
        val c = catCol(j, code)
        m(0)(c) = cnt
        m(c)(c) = cnt // onehot² = onehot
      }
      // A category that left scat (its count reached 0 under minus) has no
      // column; its residual qcc and qcatcat entries are skipped.
      i = 0
      while (i < k) {
        for ((code, v) <- triple.qcc(j * k + i)) { val c = catCol(j, code); if (c >= 0) m(contCol(i))(c) = v }
        i += 1
      }
      var j2 = j + 1
      while (j2 < l) {
        for ((key, v) <- triple.qcatcat(Triple.catcatIdx(l, j, j2))) {
          val (c1, c2) = Triple.unpairKey(key)
          val (r, c) = (catCol(j, c1), catCol(j2, c2))
          if (r >= 0 && c >= 0) m(r)(c) = v
        }
        j2 += 1
      }
      j += 1
    }
    // Symmetrize (we only filled the upper part).
    i = 0
    while (i < dim) {
      var jj = i + 1
      while (jj < dim) { m(jj)(i) = m(i)(jj); jj += 1 }
      i += 1
    }
    m
  }
}
