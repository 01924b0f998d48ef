package repro.perfbench

import repro.ml.{LDA, LinearRegression, Unpacked}
import repro.ring.{CofactorSchema, Triple}
import scala.util.Random

/** Arity of one relation: `k` continuous attributes and one categorical
  * attribute per entry of `domains` (codes 1..d).
  */
final case class Rel(k: Int, domains: Seq[Int]) {
  def l: Int = domains.size
}

/** The ring layout of a workload: the joined arity and its factorization
  * into a fact relation times its dimensions.
  */
final case class RingShape(fact: Rel, dims: Seq[Rel]) {
  val joined: Rel = Rel(fact.k + dims.map(_.k).sum, fact.domains ++ dims.flatMap(_.domains))
}

/** Spark-free microbench of the `ring` and `ml` kernels at a workload's arity.
  * Rows are built before timing; each kernel runs `warm` untimed passes and
  * then `timed` timed passes, and the median pass is reported per operation.
  */
object RingMicro {

  private def rows(r: Rel, n: Int, rnd: Random): Array[(Array[Double], Array[Int])] =
    Array.fill(n)((Array.fill(r.k)(rnd.nextGaussian() * 10 + 50),
      r.domains.map(d => 1 + rnd.nextInt(d)).toArray))

  private def medianPassNs(passes: Int, warm: Int)(pass: => Unit): Double = {
    (0 until warm).foreach(_ => pass)
    val ns = (0 until passes).map { _ =>
      val t0 = System.nanoTime(); pass; (System.nanoTime() - t0).toDouble
    }
    Stats.median(ns)
  }

  private def serializedBytes(t: Triple): Int = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(t); oos.close()
    bos.size()
  }

  /** Metrics (name → (value, unit)) for `shape`; `n` rows per pass. */
  def run(shape: RingShape, n: Int, seed: Long, warm: Int = 3, timed: Int = 5): Seq[(String, Double, String)] = {
    val rnd = new Random(seed)
    val j = shape.joined
    val joinedRows = rows(j, n, rnd)
    @volatile var sink: Any = null

    // addRow: fused lift + add of one joined row; k(k+1)/2 products each.
    val addRowNs = medianPassNs(timed, warm) {
      val t = Triple.zero(j.k, j.l)
      var i = 0
      while (i < n) { t.addRow(joinedRows(i)._1, joinedRows(i)._2); i += 1 }
      sink = t
    } / n

    // plus: merge partial triples as a global aggregate does.
    val parts = 64
    val partials = joinedRows.grouped(math.max(1, n / parts)).map { g =>
      val t = Triple.zero(j.k, j.l); g.foreach(r => t.addRow(r._1, r._2)); t
    }.toArray
    val plusReps = 20
    val plusNs = medianPassNs(timed, warm) {
      val acc = Triple.zero(j.k, j.l)
      var r = 0
      while (r < plusReps) { partials.foreach(acc.plus); r += 1 }
      sink = acc
    } / (plusReps * partials.length)
    val full = Triple.zero(j.k, j.l)
    partials.foreach(full.plus)

    // times: lift a fact row and multiply in one partial per dimension, as
    // the flat factorized path does per fact row; then also add it up.
    val nf = math.max(1, n / 4)
    val factRows = rows(shape.fact, nf, rnd)
    val keysPerDim = 64
    val dimPartials = shape.dims.map(d => rows(d, keysPerDim, rnd).map(r => Triple.lift(d.k, d.l, r._1, r._2)))
    val dimKey = Array.fill(nf)(shape.dims.map(_ => rnd.nextInt(keysPerDim)).toArray)
    def product(i: Int): Triple = {
      var t = Triple.lift(shape.fact.k, shape.fact.l, factRows(i)._1, factRows(i)._2)
      var d = 0
      while (d < dimPartials.size) { t = t.times(dimPartials(d)(dimKey(i)(d))); d += 1 }
      t
    }
    val timesNs = medianPassNs(timed, warm) {
      var i = 0
      while (i < nf) { sink = product(i); i += 1 }
    } / nf
    val liftTimesPlusNs = medianPassNs(timed, warm) {
      val acc = Triple.zero(j.k, j.l)
      var i = 0
      while (i < nf) { acc.plus(product(i)); i += 1 }
      sink = acc
    } / nf

    // ml: unpack the full triple and train both §3 models off it.
    val schema = CofactorSchema((0 until j.k).map(i => s"x$i"), (0 until j.l).map(i => s"c$i"))
    val contMs = medianPassNs(timed, warm) {
      sink = LinearRegression.train(new Unpacked(schema, full), "x0")
    } / 1e6
    val catMs = medianPassNs(timed, warm) {
      sink = LDA.train(new Unpacked(schema, full), "c0")
    } / 1e6

    Seq(
      ("ring.add_row_ns", addRowNs, "ns"),
      ("ring.add_row_products", j.k * (j.k + 1) / 2.0, "count"),
      ("ring.plus_ns", plusNs, "ns"),
      ("ring.triple_bytes", serializedBytes(full).toDouble, "B"),
      ("ring.times_ns", timesNs, "ns"),
      ("ring.lift_times_plus_ns", liftTimesPlusNs, "ns"),
      ("ring.lift_times_plus_vs_add_row", liftTimesPlusNs / addRowNs, "ratio"),
      ("ml.train_ms.cont", contMs, "ms"),
      ("ml.train_ms.cat", catMs, "ms"),
      ("ml.dim", new Unpacked(schema, full).dim.toDouble, "count"),
    )
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
