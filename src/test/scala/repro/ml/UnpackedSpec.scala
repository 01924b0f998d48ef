package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.ring.{CofactorSchema, Triple}

/** Dense unpacking of a triple into the full one-hot cofactor matrix. */
class UnpackedSpec extends AnyFunSuite {

  private val schema = CofactorSchema(Seq("x"), Seq("c"))

  private def mk(rows: Seq[(Double, Int)]): Unpacked = {
    val t = Triple.zero(1, 1)
    rows.foreach { case (x, c) => t.addRow(Array(x), Array(c)) }
    new Unpacked(schema, t)
  }

  test("dictionaries list observed categories in sorted order") {
    val up = mk(Seq((1.0, 5), (2.0, 3), (3.0, 5)))
    assert(up.dicts(0).toSeq == Seq(3, 5))
    assert(up.dim == 1 + 1 + 2)
  }

  test("matrix entries encode the expected aggregates") {
    val up = mk(Seq((1.0, 0), (2.0, 1), (3.0, 1)))
    val m = up.matrix
    assert(m(0)(0) == 3.0)            // SUM(1)
    assert(m(0)(1) == 6.0)            // SUM(x)
    assert(m(1)(1) == 14.0)           // SUM(x²)
    assert(m(0)(up.catCol(0, 0)) == 1.0) // count of category 0
    assert(m(0)(up.catCol(0, 1)) == 2.0)
    assert(m(1)(up.catCol(0, 1)) == 5.0) // SUM(x) where c = 1
    assert(m(up.catCol(0, 1))(up.catCol(0, 1)) == 2.0) // one-hot diagonal
    assert(m(up.catCol(0, 0))(up.catCol(0, 1)) == 0.0) // same-attr off-diagonal
  }

  test("matrix is symmetric") {
    val up = mk(Seq((1.5, 0), (2.5, 2), (-1.0, 0), (0.5, 2)))
    val m = up.matrix
    for (i <- 0 until up.dim; j <- 0 until up.dim) assert(m(i)(j) == m(j)(i))
  }

  test("catCol returns -1 for unseen categories") {
    val up = mk(Seq((1.0, 7)))
    assert(up.catCol(0, 9) == -1 && up.catCol(0, 7) >= 0)
  }

  test("catOf inverts catCol over every one-hot column") {
    val t = Triple.zero(1, 2)
    Seq((1.0, 4, 0), (2.0, 2, 7), (3.0, 9, 7)).foreach { case (x, a, b) => t.addRow(Array(x), Array(a, b)) }
    val up = new Unpacked(CofactorSchema(Seq("x"), Seq("a", "b")), t)
    val cols = for (j <- 0 until 2; code <- up.dicts(j)) yield up.catCol(j, code) -> (j, code)
    assert(cols.map(_._1) == (2 until up.dim))
    for ((c, jc) <- cols) assert(up.catOf(c) == jc)
  }

  test("cross-categorical block carries the pair counts") {
    val sch2 = CofactorSchema(Nil, Seq("a", "b"))
    val t = Triple.zero(0, 2)
    t.addRow(Array.empty, Array(0, 1))
    t.addRow(Array.empty, Array(0, 1))
    t.addRow(Array.empty, Array(1, 0))
    val up = new Unpacked(sch2, t)
    val m = up.matrix
    assert(m(up.catOffsets(0) + 0)(up.catOffsets(1) + 1) == 2.0) // (a=0, b=1)
    assert(m(up.catOffsets(0) + 1)(up.catOffsets(1) + 0) == 1.0) // (a=1, b=0)
    assert(m(up.catOffsets(0) + 0)(up.catOffsets(1) + 0) == 0.0)
  }

  test("C − ΔC of a whole category unpacks and trains the θ of a recompute") {
    // Target values offset by 1e8: ΔC's relational sums, added up in another
    // order than C's two partials, leave a rounding residue after the
    // subtraction.
    val rng = new scala.util.Random(7)
    val rows = Seq.tabulate(600) { i =>
      val x = rng.nextGaussian()
      (Array(x, 1e8 + 2.0 * x + 5.0 * (i % 3) + 3.0 * (i % 2) + rng.nextGaussian()), Array(i % 3, i % 2))
    }
    def fold(rs: Seq[(Array[Double], Array[Int])]): Triple = {
      val t = Triple.zero(2, 2)
      for ((cont, cat) <- rs) t.addRow(cont, cat)
      t
    }
    val (part1, part2) = rows.splitAt(250)
    val maintained = fold(part1).plus(fold(part2)).minus(fold(rows.filter(_._2(0) == 2).reverse))
    val rest = rows.filter(_._2(0) != 2)
    assert(!maintained.scat(0).contains(2) && maintained.qcc(1).contains(2))
    val sch = CofactorSchema(Seq("x", "y"), Seq("c", "d"))
    val up = new Unpacked(sch, maintained)
    assert(up.dicts(0).toSeq == Seq(0, 1))
    // The intercept and the one-hot weights are collinear up to the ridge, so
    // θ is compared where it is identified: the continuous weight and the
    // predictions.
    val a = LinearRegression.train(up, "y")
    val b = LinearRegression.train(new Unpacked(sch, fold(rest)), "y")
    assert(a.wCat.map(_.keySet).toSeq == b.wCat.map(_.keySet).toSeq)
    assert(math.abs(a.wCont(0) - b.wCont(0)) <= 1e-6, s"${a.wCont(0)} vs ${b.wCont(0)}")
    for ((cont, cat) <- rest)
      assert(math.abs(a.predict(cont, cat) - b.predict(cont, cat)) <= 1e-5)
  }

  test("arity mismatch between schema and triple is rejected") {
    intercept[IllegalArgumentException](new Unpacked(schema, Triple.zero(2, 1)))
  }
}
