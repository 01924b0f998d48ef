package repro.baselines

import scala.util.Random

/** CART decision trees on driver-side arrays — the building block of the
  * MissForest / MindsDB simulators. Regression trees split on variance
  * reduction, classification trees on Gini impurity.
  *
  * Split search sorts each candidate feature once per node and evaluates every
  * boundary with prefix statistics (O(n log n) per feature, no per-threshold
  * repartitioning), which keeps the driver-side competitors honest without
  * making them the bench bottleneck. Categorical predictors enter as their
  * integer codes (the usual ordinal-encoding hack, adequate for a competitor
  * simulator).
  */
object DecisionTree {

  /** A fitted tree node: internal (feature, threshold, children) or leaf. */
  sealed trait Node extends Serializable {
    def predict(x: Array[Double]): Double = this match {
      case Leaf(v) => v
      case Split(f, thr, lo, hi) => if (x(f) <= thr) lo.predict(x) else hi.predict(x)
    }
  }
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** @param featureFraction per-node feature subsampling (random-forest mode) */
  final case class TreeConfig(
      maxDepth: Int = 8,
      minLeaf: Int = 10,
      featureFraction: Double = 1.0,
  )

  def fitRegression(xs: Array[Array[Double]], y: Array[Double],
                    cfg: TreeConfig = TreeConfig(), rng: Random = new Random(1)): Node =
    grow(xs, y, xs.indices.toArray, 0, cfg, rng, classification = false, numClasses = 0)

  /** `y` holds non-negative class codes. */
  def fitClassification(xs: Array[Array[Double]], y: Array[Double],
                        cfg: TreeConfig = TreeConfig(), rng: Random = new Random(1)): Node = {
    val numClasses = if (y.isEmpty) 1 else y.max.toInt + 1
    grow(xs, y, xs.indices.toArray, 0, cfg, rng, classification = true, numClasses)
  }

  private def leafValue(y: Array[Double], idx: Array[Int], classification: Boolean, numClasses: Int): Double =
    if (idx.isEmpty) 0.0
    else if (!classification) idx.map(y).sum / idx.length
    else {
      val counts = new Array[Int](math.max(numClasses, 1))
      idx.foreach(i => counts(y(i).toInt) += 1)
      counts.indices.maxBy(counts).toDouble
    }

  private def impurityTotal(y: Array[Double], idx: Array[Int], classification: Boolean, numClasses: Int): Double =
    if (idx.isEmpty) 0.0
    else if (!classification) {
      val mean = idx.map(y).sum / idx.length
      idx.map(i => (y(i) - mean) * (y(i) - mean)).sum / idx.length
    } else {
      val counts = new Array[Int](math.max(numClasses, 1))
      idx.foreach(i => counts(y(i).toInt) += 1)
      1.0 - counts.map(c => { val p = c.toDouble / idx.length; p * p }).sum
    }

  private def grow(xs: Array[Array[Double]], y: Array[Double], idx: Array[Int], depth: Int,
                   cfg: TreeConfig, rng: Random, classification: Boolean, numClasses: Int): Node = {
    val n = idx.length
    val parentImp = impurityTotal(y, idx, classification, numClasses)
    if (depth >= cfg.maxDepth || n < 2 * cfg.minLeaf || parentImp < 1e-12)
      return Leaf(leafValue(y, idx, classification, numClasses))

    val nFeat = xs.head.length
    val featPool =
      if (cfg.featureFraction >= 1.0) (0 until nFeat).toArray
      else rng.shuffle((0 until nFeat).toList)
        .take(math.max(1, (nFeat * cfg.featureFraction).round.toInt)).toArray

    var bestGain = 1e-9
    var bestFeat = -1
    var bestThr = 0.0
    val order = new Array[Int](n)
    for (f <- featPool) {
      // Sort this node's rows by feature value once; scan all boundaries.
      System.arraycopy(idx, 0, order, 0, n)
      val sorted = order.take(n).sortBy(i => xs(i)(f))
      if (!classification) {
        var sumL = 0.0; var sqL = 0.0
        var sumR = 0.0; var sqR = 0.0
        var i = 0
        while (i < n) { val v = y(sorted(i)); sumR += v; sqR += v * v; i += 1 }
        i = 0
        while (i < n - 1) {
          val v = y(sorted(i))
          sumL += v; sqL += v * v; sumR -= v; sqR -= v * v
          val nl = i + 1; val nr = n - nl
          val xi = xs(sorted(i))(f); val xn = xs(sorted(i + 1))(f)
          if (xi < xn && nl >= cfg.minLeaf && nr >= cfg.minLeaf) {
            val varL = sqL / nl - (sumL / nl) * (sumL / nl)
            val varR = sqR / nr - (sumR / nr) * (sumR / nr)
            val gain = parentImp - (nl * varL + nr * varR) / n
            if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (xi + xn) / 2 }
          }
          i += 1
        }
      } else {
        val cl = new Array[Int](numClasses)
        val cr = new Array[Int](numClasses)
        var i = 0
        while (i < n) { cr(y(sorted(i)).toInt) += 1; i += 1 }
        i = 0
        while (i < n - 1) {
          val c = y(sorted(i)).toInt
          cl(c) += 1; cr(c) -= 1
          val nl = i + 1; val nr = n - nl
          val xi = xs(sorted(i))(f); val xn = xs(sorted(i + 1))(f)
          if (xi < xn && nl >= cfg.minLeaf && nr >= cfg.minLeaf) {
            var gl = 1.0; var gr = 1.0
            var c2 = 0
            while (c2 < numClasses) {
              val pl = cl(c2).toDouble / nl; gl -= pl * pl
              val pr = cr(c2).toDouble / nr; gr -= pr * pr
              c2 += 1
            }
            val gain = parentImp - (nl * gl + nr * gr) / n
            if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (xi + xn) / 2 }
          }
          i += 1
        }
      }
    }
    if (bestFeat < 0) Leaf(leafValue(y, idx, classification, numClasses))
    else {
      val (lo, hi) = idx.partition(i => xs(i)(bestFeat) <= bestThr)
      Split(bestFeat, bestThr,
        grow(xs, y, lo, depth + 1, cfg, rng, classification, numClasses),
        grow(xs, y, hi, depth + 1, cfg, rng, classification, numClasses))
    }
  }
}
