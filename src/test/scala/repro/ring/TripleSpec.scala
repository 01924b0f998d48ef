package repro.ring

import org.apache.spark.sql.catalyst.encoders.encoderFor
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import org.scalacheck.Gen

/** Pure-JVM tests of the generalized cofactor ring: lifting semantics, ring
  * axioms (checked pointwise via [[Triple.approxEquals]]), maintenance via
  * minus, and the disjoint-attribute product used by factorized evaluation.
  */
class TripleSpec extends AnyFunSuite with PropHelpers {

  private def rowGen(k: Int, l: Int): Gen[(Array[Double], Array[Int])] =
    for {
      cont <- Gen.listOfN(k, Gen.chooseNum(-5.0, 5.0))
      cat <- Gen.listOfN(l, Gen.chooseNum(0, 4))
    } yield (cont.toArray, cat.toArray)

  private def tripleGen(k: Int, l: Int): Gen[Triple] =
    Gen.chooseNum(0, 12).flatMap(n => Gen.listOfN(n, rowGen(k, l))).map { rows =>
      val t = Triple.zero(k, l)
      rows.foreach { case (c, d) => t.addRow(c, d) }
      t
    }

  // ---- index helpers -------------------------------------------------------

  test("qIdx enumerates the upper triangle without collisions") {
    val k = 5
    val idxs = for (i <- 0 until k; j <- i until k) yield Triple.qIdx(k, i, j)
    assert(idxs.sorted == (0 until k * (k + 1) / 2).toList)
  }

  test("catcatIdx enumerates the strict upper triangle without collisions") {
    val l = 5
    val idxs = for (j1 <- 0 until l; j2 <- j1 + 1 until l) yield Triple.catcatIdx(l, j1, j2)
    assert(idxs.sorted == (0 until l * (l - 1) / 2).toList)
  }

  test("pairKey round-trips including negative codes") {
    for (c1 <- Seq(-3, 0, 7, Int.MaxValue); c2 <- Seq(-1, 0, 42, Int.MinValue))
      assert(Triple.unpairKey(Triple.pairKey(c1, c2)) == (c1, c2))
  }

  // ---- lifting -------------------------------------------------------------

  test("lifting one continuous-only record matches the paper's λ_con") {
    val t = Triple.lift(2, 0, Array(3.0, 4.0), Array.empty)
    assert(t.n == 1.0)
    assert(t.s.toSeq == Seq(3.0, 4.0))
    assert(t.qCont(0, 0) == 9.0 && t.qCont(0, 1) == 12.0 && t.qCont(1, 1) == 16.0)
  }

  test("lifting a mixed record matches the paper's Example 3") {
    // AirTime (continuous) a = 2.5, Diverted (categorical) d = 1.
    val t = Triple.lift(1, 1, Array(2.5), Array(1))
    assert(t.n == 1.0)
    assert(t.s.toSeq == Seq(2.5))
    assert(t.qCont(0, 0) == 6.25)
    assert(t.scat(0) == scala.collection.mutable.HashMap(1 -> 1.0))
    assert(t.qcc(0) == scala.collection.mutable.HashMap(1 -> 2.5)) // SUM(A) group by D
  }

  test("addRow of n records gives SUM(1) = n") {
    val t = Triple.zero(1, 1)
    (1 to 7).foreach(i => t.addRow(Array(i.toDouble), Array(i % 2)))
    assert(t.n == 7.0)
    assert(t.s(0) == 28.0)
    assert(t.scat(0)(0) == 3.0 && t.scat(0)(1) == 4.0)
  }

  test("addRow rejects arity mismatches") {
    intercept[IllegalArgumentException](Triple.zero(2, 1).addRow(Array(1.0), Array(0)))
  }

  test("group-by-pair counts are tracked for every categorical pair") {
    val t = Triple.zero(0, 3)
    t.addRow(Array.empty, Array(1, 2, 3))
    t.addRow(Array.empty, Array(1, 2, 4))
    assert(t.pairCount(0, 1, 1, 2) == 2.0)
    assert(t.pairCount(1, 2, 2, 3) == 1.0)
    assert(t.pairCount(2, 4, 0, 1) == 1.0) // reversed attr order
    assert(t.pairCount(0, 9, 1, 9) == 0.0)
  }

  // ---- ring axioms ---------------------------------------------------------

  test("plus is commutative") {
    forAllG(tripleGen(2, 2), tripleGen(2, 2)) { (a, b) =>
      assert(a.copyTriple().plus(b).approxEquals(b.copyTriple().plus(a)))
    }
  }

  test("plus is associative") {
    forAllG(tripleGen(2, 1), tripleGen(2, 1), tripleGen(2, 1)) { (a, b, c) =>
      val left = a.copyTriple().plus(b).plus(c)
      val right = a.copyTriple().plus(b.copyTriple().plus(c))
      assert(left.approxEquals(right))
    }
  }

  test("zero is the additive identity") {
    forAllG(tripleGen(3, 2)) { a =>
      assert(a.copyTriple().plus(Triple.zero(3, 2)).approxEquals(a))
    }
  }

  test("minus undoes plus (incremental maintenance)") {
    forAllG(tripleGen(2, 2), tripleGen(2, 2)) { (a, b) =>
      assert(a.copyTriple().plus(b).minus(b).approxEquals(a))
    }
  }

  test("one is the multiplicative identity (empty attr set)") {
    forAllG(tripleGen(2, 1)) { a =>
      val p = a.copyTriple().times(Triple.one(0, 0))
      assert(p.approxEquals(a))
      val q = Triple.one(0, 0).times(a)
      assert(q.approxEquals(a))
    }
  }

  test("times distributes over plus on the left factor") {
    forAllG(tripleGen(1, 1), tripleGen(1, 1), tripleGen(1, 0)) { (a, b, c) =>
      val left = a.copyTriple().plus(b).times(c)
      val right = a.times(c).plus(b.times(c))
      assert(left.approxEquals(right))
    }
  }

  test("times matches lifting the concatenated record (single rows)") {
    // λ(r1) * λ(r2) over disjoint attrs must equal λ(r1 ++ r2).
    forAllG(rowGen(2, 1), rowGen(1, 2)) { case ((c1, d1), (c2, d2)) =>
      val prod = Triple.lift(2, 1, c1, d1).times(Triple.lift(1, 2, c2, d2))
      val joint = Triple.lift(3, 3, c1 ++ c2, d1 ++ d2)
      assert(prod.approxEquals(joint))
    }
  }

  test("times over multi-row operands equals the cross product of rows") {
    val rowsA = Seq((Array(1.0), Array(0)), (Array(2.0), Array(1)))
    val rowsB = Seq((Array(3.0, 1.0), Array.empty[Int]), (Array(-1.0, 2.0), Array.empty[Int]),
      (Array(0.5, 0.0), Array.empty[Int]))
    val ta = Triple.zero(1, 1); rowsA.foreach { case (c, d) => ta.addRow(c, d) }
    val tb = Triple.zero(2, 0); rowsB.foreach { case (c, d) => tb.addRow(c, d) }
    val direct = Triple.zero(3, 1)
    for ((ca, da) <- rowsA; (cb, db) <- rowsB) direct.addRow(ca ++ cb, da ++ db)
    assert(ta.times(tb).approxEquals(direct))
  }

  test("times result places left attributes first") {
    val a = Triple.lift(1, 0, Array(2.0), Array.empty)
    val b = Triple.lift(1, 0, Array(5.0), Array.empty)
    val p = a.times(b)
    assert(p.s.toSeq == Seq(2.0, 5.0))
    assert(p.qCont(0, 1) == 10.0)
  }

  test("times rejects nothing but combines arities") {
    val p = Triple.zero(2, 1).times(Triple.zero(1, 2))
    assert(p.k == 3 && p.l == 3 && p.n == 0.0)
  }

  // ---- aggregate semantics vs direct computation ---------------------------

  test("triple over rows equals per-entry direct sums") {
    forAllG(Gen.listOfN(20, rowGen(3, 2))) { rows =>
      val t = Triple.zero(3, 2)
      rows.foreach { case (c, d) => t.addRow(c, d) }
      assert(math.abs(t.n - rows.size) < 1e-9)
      for (i <- 0 until 3)
        assert(math.abs(t.s(i) - rows.map(_._1(i)).sum) < 1e-6)
      for (i <- 0 until 3; j <- i until 3)
        assert(math.abs(t.qCont(i, j) - rows.map(r => r._1(i) * r._1(j)).sum) < 1e-6)
      for (j <- 0 until 2; c <- rows.map(_._2(j)).distinct)
        assert(math.abs(t.scat(j).getOrElse(c, 0.0) - rows.count(_._2(j) == c)) < 1e-9)
      for (j <- 0 until 2; i <- 0 until 3; c <- rows.map(_._2(j)).distinct)
        assert(math.abs(t.qcc(j * 3 + i).getOrElse(c, 0.0) -
          rows.filter(_._2(j) == c).map(_._1(i)).sum) < 1e-6)
    }
  }

  test("minus drops cancelled categorical entries (maps stay compact)") {
    val a = Triple.zero(0, 1); a.addRow(Array.empty, Array(3))
    val b = a.copyTriple()
    a.plus(b).minus(b)
    assert(a.scat(0).getOrElse(3, 0.0) == 1.0)
    a.minus(b)
    assert(!a.scat(0).contains(3))
  }

  // ---- serialization -------------------------------------------------------

  test("fromBytes round-trips a triple serialized by the aggregator's output encoder") {
    val toRow = encoderFor(new TripleAggregator(2, 2).outputEncoder).createSerializer()
    forAllG(tripleGen(2, 2)) { t =>
      assert(Triple.fromBytes(toRow(t).getBinary(0)).approxEquals(t, 0.0))
    }
  }

  test("copyTriple is deep: mutating the copy leaves the original intact") {
    val a = Triple.lift(1, 1, Array(1.0), Array(0))
    val b = a.copyTriple()
    b.addRow(Array(9.0), Array(1))
    assert(a.n == 1.0 && a.s(0) == 1.0 && !a.scat(0).contains(1))
  }
}
