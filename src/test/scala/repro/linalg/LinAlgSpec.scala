package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers

class LinAlgSpec extends AnyFunSuite with PropHelpers {

  private def spdGen(n: Int): Gen[Array[Array[Double]]] =
    Gen.listOfN(n * n, Gen.chooseNum(-1.0, 1.0)).map { vals =>
      val b = vals.toArray.grouped(n).toArray
      // A = BᵀB + I is symmetric positive definite.
      val a = Array.ofDim[Double](n, n)
      for (i <- 0 until n; j <- 0 until n) {
        var s = if (i == j) 1.0 else 0.0
        for (t <- 0 until n) s += b(t)(i) * b(t)(j)
        a(i)(j) = s
      }
      a
    }

  private def vecGen(n: Int): Gen[Array[Double]] =
    Gen.listOfN(n, Gen.chooseNum(-3.0, 3.0)).map(_.toArray)

  test("matVec computes the matrix-vector product") {
    val a = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    assert(LinAlg.matVec(a, Array(1.0, 1.0)).toSeq == Seq(3.0, 7.0))
  }

  test("dot computes the inner product") {
    assert(LinAlg.dot(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0)) == 32.0)
  }

  test("addOuter accumulates a scaled outer product") {
    val acc = Array.ofDim[Double](2, 2)
    LinAlg.addOuter(acc, Array(1.0, 2.0), Array(3.0, 4.0), 2.0)
    assert(acc(0).toSeq == Seq(6.0, 8.0) && acc(1).toSeq == Seq(12.0, 16.0))
  }

  test("solve recovers the solution of a known system") {
    val a = Array(Array(2.0, 1.0), Array(1.0, 3.0))
    val x = LinAlg.solve(a, Array(5.0, 10.0))
    assert(math.abs(x(0) - 1.0) < 1e-10 && math.abs(x(1) - 3.0) < 1e-10)
  }

  test("solve handles systems that need pivoting") {
    val a = Array(Array(0.0, 1.0), Array(1.0, 0.0))
    val x = LinAlg.solve(a, Array(2.0, 5.0))
    assert(x.toSeq == Seq(5.0, 2.0))
  }

  test("solve rejects singular matrices") {
    val a = Array(Array(1.0, 2.0), Array(2.0, 4.0))
    intercept[IllegalArgumentException](LinAlg.solve(a, Array(1.0, 1.0)))
  }

  test("solve is exact on random SPD systems") {
    forAllG(spdGen(6), vecGen(6)) { (a, xTrue) =>
      val b = LinAlg.matVec(a, xTrue)
      val x = LinAlg.solve(a, b)
      x.indices.foreach(i => assert(math.abs(x(i) - xTrue(i)) < 1e-8))
    }
  }

  test("solveMany solves several right-hand sides with one factorization") {
    forAllG(spdGen(5)) { a =>
      val xs = Array(Array(1.0, 0.0, 2.0, -1.0, 0.5), Array(0.0, 3.0, 0.0, 1.0, 1.0))
      val bs = xs.map(LinAlg.matVec(a, _))
      val sols = LinAlg.solveMany(a, bs)
      for (s <- 0 until 2; i <- 0 until 5) assert(math.abs(sols(s)(i) - xs(s)(i)) < 1e-8)
    }
  }

  test("solveMany leaves its inputs unmodified") {
    val a = Array(Array(2.0, 1.0), Array(1.0, 3.0))
    val b = Array(5.0, 10.0)
    LinAlg.solveMany(a, Array(b))
    assert(a(0).toSeq == Seq(2.0, 1.0) && b.toSeq == Seq(5.0, 10.0))
  }

  test("solve on a diagonally rescaled SPD system matches the direct solve") {
    // (S A S)(S⁻¹ x) = S b: scales from 1e-8 to 1e8 must not change x.
    val scales = Array(1e-8, 1e8, 1.0, 3e-5, 7e4, 1e-3, 2.0, 1e6)
    forAllG(spdGen(8), vecGen(8)) { (a, xTrue) =>
      val b = LinAlg.matVec(a, xTrue)
      val direct = LinAlg.solve(a, b)
      val scaledA = Array.tabulate(8, 8)((i, j) => a(i)(j) * scales(i) * scales(j))
      val scaled = LinAlg.solve(scaledA, Array.tabulate(8)(i => b(i) * scales(i)))
      val x = Array.tabulate(8)(i => scaled(i) * scales(i))
      x.indices.foreach(i => assert(math.abs(x(i) - direct(i)) < 1e-6,
        s"scaled=${x.toSeq} direct=${direct.toSeq}"))
    }
  }

  test("solve sets a variable whose row and column are zero to 0") {
    // Row/col 1 entirely absent (e.g. an empty one-hot column).
    val a = Array(Array(4.0, 0.0), Array(0.0, 0.0))
    val x = LinAlg.solve(a, Array(8.0, 0.0))
    assert(math.abs(x(0) - 2.0) < 1e-9 && x(1) == 0.0)
  }

  test("solve handles badly scaled diagonals") {
    val a = Array(Array(1e8, 1e3), Array(1e3, 2e-2))
    val xTrue = Array(2.0, -3.0)
    val b = LinAlg.matVec(a, xTrue)
    val x = LinAlg.solve(a, b)
    assert(math.abs(x(0) - 2.0) < 1e-4 && math.abs(x(1) + 3.0) < 1e-4)
  }

  test("solve on the all-zero system returns zero") {
    val x = LinAlg.solve(Array.ofDim[Double](3, 3), new Array[Double](3))
    assert(x.forall(_ == 0.0))
  }

  test("ridge scales every diagonal entry but the intercept's") {
    val a = Array(Array(4.0, 1.0), Array(1.0, 2.0))
    val r = LinAlg.ridge(a, 0.5)
    assert(r(0).toSeq == Seq(4.0, 1.0) && r(1).toSeq == Seq(1.0, 3.0))
    assert(a(1)(1) == 2.0)
  }

  test("solve dimension mismatches are rejected") {
    intercept[IllegalArgumentException](
      LinAlg.solve(Array(Array(1.0, 2.0)), Array(1.0)))
    intercept[IllegalArgumentException](
      LinAlg.solve(Array(Array(1.0, 0.0), Array(0.0, 1.0)), Array(1.0)))
  }
}
