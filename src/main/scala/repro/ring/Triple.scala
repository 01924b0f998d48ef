package repro.ring

import scala.collection.mutable

/** A value of the generalized cofactor ring (Nikolic et al., F-IVM; §2.2 of the
  * paper): the compound aggregate `(N, s, Q)` over `k` continuous and `l`
  * categorical attributes.
  *
  * Continuous-only entries are plain scalars; entries touching a categorical
  * attribute are *relations* — finite maps from category tuples to scalars —
  * exactly the generalized-multiset-relation encoding that avoids one-hot
  * sparsity:
  *
  *  - `n`                : SUM(1)
  *  - `s(i)`             : SUM(Xᵢ)                              (continuous i)
  *  - `q(idx(i,j))`      : SUM(Xᵢ·Xⱼ), i ≤ j                    (both continuous)
  *  - `scat(j)(c)`       : SUM(1)  GROUP BY Cⱼ                  (categorical j)
  *  - `qcc(j*k+i)(c)`    : SUM(Xᵢ) GROUP BY Cⱼ
  *  - `qcatcat(p)((c₁,c₂)): SUM(1) GROUP BY Cⱼ₁, Cⱼ₂, j₁ < j₂   (pair key packed in a Long)
  *
  * Triples form a ring: [[plus]]/[[minus]] are entrywise union, [[times]]
  * combines triples over *disjoint* attribute sets (used by factorized
  * evaluation over joins). Instances are mutable for aggregation speed
  * ([[addRow]] is the bulk lifting function λ of §5.1 fused with ring +) and
  * Java-serializable so they can live in Spark aggregation buffers and
  * DataFrame binary columns.
  */
final class Triple(
    private var k0: Int,
    private var l0: Int,
    var n: Double,
    private var s0: Array[Double],
    private var q0: Array[Double],
    private var scat0: Array[mutable.HashMap[Int, Double]],
    private var qcc0: Array[mutable.HashMap[Int, Double]],
    private var qcatcat0: Array[mutable.HashMap[Long, Double]],
) extends java.io.Externalizable {

  /** No-arg constructor required by [[java.io.Externalizable]]. */
  def this() = this(0, 0, 0.0, Array.empty, Array.empty, Array.empty, Array.empty, Array.empty)

  def k: Int = k0
  def l: Int = l0
  def s: Array[Double] = s0
  def q: Array[Double] = q0
  def scat: Array[mutable.HashMap[Int, Double]] = scat0
  def qcc: Array[mutable.HashMap[Int, Double]] = qcc0
  def qcatcat: Array[mutable.HashMap[Long, Double]] = qcatcat0

  import Triple._

  // Default Java serialization of Scala HashMaps dominates the cost of moving
  // triples (aggregation buffers, task results); a manual primitive codec is
  // ~10x cheaper and is picked up by every path (Spark encoders, closures).
  override def writeExternal(out: java.io.ObjectOutput): Unit = {
    out.writeInt(k0); out.writeInt(l0); out.writeDouble(n)
    var i = 0
    while (i < s0.length) { out.writeDouble(s0(i)); i += 1 }
    i = 0
    while (i < q0.length) { out.writeDouble(q0(i)); i += 1 }
    def writeMapI(m: mutable.HashMap[Int, Double]): Unit = {
      out.writeInt(m.size)
      for ((key, v) <- m) { out.writeInt(key); out.writeDouble(v) }
    }
    i = 0
    while (i < scat0.length) { writeMapI(scat0(i)); i += 1 }
    i = 0
    while (i < qcc0.length) { writeMapI(qcc0(i)); i += 1 }
    i = 0
    while (i < qcatcat0.length) {
      out.writeInt(qcatcat0(i).size)
      for ((key, v) <- qcatcat0(i)) { out.writeLong(key); out.writeDouble(v) }
      i += 1
    }
  }

  override def readExternal(in: java.io.ObjectInput): Unit = {
    k0 = in.readInt(); l0 = in.readInt(); n = in.readDouble()
    s0 = Array.fill(k0)(in.readDouble())
    q0 = Array.fill(k0 * (k0 + 1) / 2)(in.readDouble())
    def readMapI(): mutable.HashMap[Int, Double] = {
      val sz = in.readInt()
      val m = new mutable.HashMap[Int, Double]
      var j = 0
      while (j < sz) { val key = in.readInt(); m.update(key, in.readDouble()); j += 1 }
      m
    }
    scat0 = Array.fill(l0)(readMapI())
    qcc0 = Array.fill(l0 * k0)(readMapI())
    qcatcat0 = Array.fill(l0 * (l0 - 1) / 2) {
      val sz = in.readInt()
      val m = new mutable.HashMap[Long, Double]
      var j = 0
      while (j < sz) { val key = in.readLong(); m.update(key, in.readDouble()); j += 1 }
      m
    }
  }

  /** Fused lift-and-add of one record (λ bulk lifting + ring addition). */
  def addRow(cont: Array[Double], cat: Array[Int]): this.type = {
    require(cont.length == k && cat.length == l,
      s"addRow arity mismatch: got (${cont.length},${cat.length}), triple is ($k,$l)")
    n += 1.0
    var i = 0
    while (i < k) {
      val xi = cont(i)
      s(i) += xi
      var j = i
      while (j < k) { q(qIdx(k, i, j)) += xi * cont(j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < l) {
      val c = cat(j)
      bump(scat(j), c, 1.0)
      i = 0
      while (i < k) { bump(qcc(j * k + i), c, cont(i)); i += 1 }
      var j2 = j + 1
      while (j2 < l) { bumpL(qcatcat(catcatIdx(l, j, j2)), pairKey(c, cat(j2)), 1.0); j2 += 1 }
      j += 1
    }
    this
  }

  /** In-place ring addition (used as the aggregation merge). */
  def plus(o: Triple): this.type = combine(o, 1.0)

  /** In-place ring subtraction — removes a sub-dataset's contribution
    * (Algorithm 2, line 6). A category whose count reaches 0 leaves `scat`;
    * its other entries may keep a rounding residue, which [[repro.ml.Unpacked]]
    * ignores.
    */
  def minus(o: Triple): this.type = combine(o, -1.0)

  private def combine(o: Triple, w: Double): this.type = {
    require(o.k == k && o.l == l, s"ring op arity mismatch: ($k,$l) vs (${o.k},${o.l})")
    n += w * o.n
    var i = 0
    while (i < k) { s(i) += w * o.s(i); i += 1 }
    i = 0
    while (i < q.length) { q(i) += w * o.q(i); i += 1 }
    i = 0
    while (i < scat.length) { mergeCounts(scat(i), o.scat(i), w); i += 1 }
    i = 0
    while (i < qcc.length) { mergeMap(qcc(i), o.qcc(i), w); i += 1 }
    i = 0
    while (i < qcatcat.length) { mergeMap(qcatcat(i), o.qcatcat(i), w); i += 1 }
    this
  }

  /** Ring multiplication of triples over disjoint attribute sets; the result
    * orders this triple's attributes before `o`'s. Implements
    * `a *ᴿ b = (N_a·N_b, N_b·s_a + N_a·s_b, N_b·Q_a + N_a·Q_b + s_a s_bᵀ + s_b s_aᵀ)`
    * with scalar·relation = scaling and relation⋈relation = key product.
    */
  def times(o: Triple): Triple = {
    val rk = k + o.k
    val rl = l + o.l
    val r = Triple.zero(rk, rl)
    r.n = n * o.n
    // s: scale each side by the other's count.
    var i = 0
    while (i < k) { r.s(i) = s(i) * o.n; i += 1 }
    i = 0
    while (i < o.k) { r.s(k + i) = o.s(i) * n; i += 1 }
    i = 0
    while (i < l) { copyScaled(scat(i), r.scat(i), o.n); i += 1 }
    i = 0
    while (i < o.l) { copyScaled(o.scat(i), r.scat(l + i), n); i += 1 }
    // Q continuous block: within-side scaled, cross-side outer product of s.
    i = 0
    while (i < k) {
      var j = i
      while (j < k) { r.q(qIdx(rk, i, j)) = q(qIdx(k, i, j)) * o.n; j += 1 }
      j = 0
      while (j < o.k) { r.q(qIdx(rk, i, k + j)) = s(i) * o.s(j); j += 1 }
      i += 1
    }
    i = 0
    while (i < o.k) {
      var j = i
      while (j < o.k) { r.q(qIdx(rk, k + i, k + j)) = o.q(qIdx(o.k, i, j)) * n; j += 1 }
      i += 1
    }
    // qcc: (cat j, cont i). Within-side scaled; cross: scat_j ⋈ {()↦s_i}.
    var j = 0
    while (j < l) {
      i = 0
      while (i < k) { copyScaled(qcc(j * k + i), r.qcc(j * rk + i), o.n); i += 1 }
      i = 0
      while (i < o.k) { copyScaled(scat(j), r.qcc(j * rk + (k + i)), o.s(i)); i += 1 }
      j += 1
    }
    j = 0
    while (j < o.l) {
      i = 0
      while (i < o.k) { copyScaled(o.qcc(j * o.k + i), r.qcc((l + j) * rk + (k + i)), n); i += 1 }
      i = 0
      while (i < k) { copyScaled(o.scat(j), r.qcc((l + j) * rk + i), s(i)); i += 1 }
      j += 1
    }
    // qcatcat: within-side scaled, cross-side key product of the two scats.
    var j1 = 0
    while (j1 < l) {
      var j2 = j1 + 1
      while (j2 < l) {
        copyScaledL(qcatcat(catcatIdx(l, j1, j2)), r.qcatcat(catcatIdx(rl, j1, j2)), o.n)
        j2 += 1
      }
      j2 = 0
      while (j2 < o.l) {
        val dst = r.qcatcat(catcatIdx(rl, j1, l + j2))
        for ((c1, v1) <- scat(j1); (c2, v2) <- o.scat(j2))
          bumpL(dst, pairKey(c1, c2), v1 * v2)
        j2 += 1
      }
      j1 += 1
    }
    j1 = 0
    while (j1 < o.l) {
      var j2 = j1 + 1
      while (j2 < o.l) {
        copyScaledL(o.qcatcat(catcatIdx(o.l, j1, j2)), r.qcatcat(catcatIdx(rl, l + j1, l + j2)), n)
        j2 += 1
      }
      j1 += 1
    }
    r
  }

  /** Deep copy (ring ops mutate the receiver; copy before sharing). */
  def copyTriple(): Triple =
    new Triple(k, l, n, s.clone(), q.clone(),
      scat.map(_.clone()), qcc.map(_.clone()), qcatcat.map(_.clone()))

  /** SUM(Xᵢ·Xⱼ) for continuous attrs i, j (order-free). */
  def qCont(i: Int, j: Int): Double =
    if (i <= j) q(qIdx(k, i, j)) else q(qIdx(k, j, i))

  /** SUM(1) GROUP BY (Cⱼ₁, Cⱼ₂) for the given pair of categories. */
  def pairCount(j1: Int, c1: Int, j2: Int, c2: Int): Double = {
    require(j1 != j2, "pairCount needs two distinct categorical attrs")
    if (j1 < j2) qcatcat(catcatIdx(l, j1, j2)).getOrElse(pairKey(c1, c2), 0.0)
    else qcatcat(catcatIdx(l, j2, j1)).getOrElse(pairKey(c2, c1), 0.0)
  }

  override def toString: String = s"Triple(k=$k,l=$l,n=$n)"

  /** Structural near-equality (used by tests; tolerance absorbs fp noise from
    * different aggregation orders).
    */
  def approxEquals(o: Triple, tol: Double = 1e-6): Boolean = {
    def mapsEq[K](a: mutable.HashMap[K, Double], b: mutable.HashMap[K, Double]): Boolean =
      (a.keySet ++ b.keySet).forall(key =>
        math.abs(a.getOrElse(key, 0.0) - b.getOrElse(key, 0.0)) <= tol * (1 + math.abs(b.getOrElse(key, 0.0))))
    k == o.k && l == o.l &&
      math.abs(n - o.n) <= tol * (1 + math.abs(o.n)) &&
      s.indices.forall(i => math.abs(s(i) - o.s(i)) <= tol * (1 + math.abs(o.s(i)))) &&
      q.indices.forall(i => math.abs(q(i) - o.q(i)) <= tol * (1 + math.abs(o.q(i)))) &&
      scat.indices.forall(i => mapsEq(scat(i), o.scat(i))) &&
      qcc.indices.forall(i => mapsEq(qcc(i), o.qcc(i))) &&
      qcatcat.indices.forall(i => mapsEq(qcatcat(i), o.qcatcat(i)))
  }
}

object Triple {

  /** Additive identity over `k` continuous and `l` categorical attributes. */
  def zero(k: Int, l: Int): Triple =
    new Triple(k, l, 0.0,
      new Array[Double](k),
      new Array[Double](k * (k + 1) / 2),
      Array.fill(l)(mutable.HashMap.empty[Int, Double]),
      Array.fill(l * k)(mutable.HashMap.empty[Int, Double]),
      Array.fill(l * (l - 1) / 2)(mutable.HashMap.empty[Long, Double]))

  /** Multiplicative identity: count 1, all sums empty. */
  def one(k: Int, l: Int): Triple = { val t = zero(k, l); t.n = 1.0; t }

  /** Lift a single record into a fresh triple (λ of §2.2, bulk form). */
  def lift(k: Int, l: Int, cont: Array[Double], cat: Array[Int]): Triple =
    zero(k, l).addRow(cont, cat)

  /** Upper-triangular index of (i, j), i ≤ j, in a k-attr Q array. */
  def qIdx(k: Int, i: Int, j: Int): Int = i * k - i * (i + 1) / 2 + j

  /** Index of the (j₁, j₂) categorical pair map, j₁ < j₂, among l cat attrs. */
  def catcatIdx(l: Int, j1: Int, j2: Int): Int = j1 * l - j1 * (j1 + 1) / 2 + (j2 - j1 - 1)

  /** Pack a category pair into one Long key. */
  def pairKey(c1: Int, c2: Int): Long = (c1.toLong << 32) | (c2.toLong & 0xffffffffL)

  /** Unpack a Long pair key. */
  def unpairKey(key: Long): (Int, Int) = ((key >> 32).toInt, key.toInt)

  private[ring] def bump(m: mutable.HashMap[Int, Double], key: Int, v: Double): Unit =
    m.update(key, m.getOrElse(key, 0.0) + v)

  private[ring] def bumpL(m: mutable.HashMap[Long, Double], key: Long, v: Double): Unit =
    m.update(key, m.getOrElse(key, 0.0) + v)

  /** `dst += w·src`, entrywise; no entry is dropped by its value. */
  private def mergeMap[K](dst: mutable.HashMap[K, Double], src: mutable.HashMap[K, Double], w: Double): Unit =
    for ((key, v) <- src) dst.update(key, dst.getOrElse(key, 0.0) + w * v)

  /** `dst += w·src` over category counts. Counts are integral, so a category
    * whose count reaches 0 is gone exactly, and leaves the map.
    */
  private def mergeCounts(dst: mutable.HashMap[Int, Double], src: mutable.HashMap[Int, Double], w: Double): Unit =
    for ((key, v) <- src) {
      val nv = dst.getOrElse(key, 0.0) + w * v
      if (nv == 0.0) dst.remove(key) else dst.update(key, nv)
    }

  private def copyScaled(src: mutable.HashMap[Int, Double], dst: mutable.HashMap[Int, Double], w: Double): Unit =
    if (w != 0.0) for ((key, v) <- src) bump(dst, key, v * w)

  private def copyScaledL(src: mutable.HashMap[Long, Double], dst: mutable.HashMap[Long, Double], w: Double): Unit =
    if (w != 0.0) for ((key, v) <- src) bumpL(dst, key, v * w)

  /** Decode a Java-serialized triple, e.g. a `sum_triple` result column. */
  def fromBytes(b: Array[Byte]): Triple = {
    val ois = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(b))
    try ois.readObject().asInstanceOf[Triple] finally ois.close()
  }
}
