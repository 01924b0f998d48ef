package repro.mice

import java.util.BitSet
import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.ring.Triple

/** One column of a [[Block]], held as its Spark type holds it: primitive
  * arrays for double, int and long columns, boxed values for any other type.
  */
private[mice] sealed abstract class Vec extends Serializable {
  /** The cell as `cast("double")` reads it. */
  def double(i: Int): Double
  /** The cell as `cast("int")` reads it. */
  def int(i: Int): Int
  /** Store `v` as the column type holds it: integral types truncate, as `cast` does. */
  def set(i: Int, v: Double): Unit
  /** The cell as a [[Row]] holds it. */
  def get(i: Int): Any
  def copy(): Vec
}

private[mice] object Vec {

  final class Doubles(a: Array[Double]) extends Vec {
    def double(i: Int): Double = a(i)
    def int(i: Int): Int = a(i).toInt
    def set(i: Int, v: Double): Unit = a(i) = v
    def get(i: Int): Any = a(i)
    def copy(): Vec = new Doubles(a.clone())
  }

  final class Ints(a: Array[Int]) extends Vec {
    def double(i: Int): Double = a(i)
    def int(i: Int): Int = a(i)
    def set(i: Int, v: Double): Unit = a(i) = v.toInt
    def get(i: Int): Any = a(i)
    def copy(): Vec = new Ints(a.clone())
  }

  final class Longs(a: Array[Long]) extends Vec {
    def double(i: Int): Double = a(i).toDouble
    def int(i: Int): Int = a(i).toInt
    def set(i: Int, v: Double): Unit = a(i) = v.toLong
    def get(i: Int): Any = a(i)
    def copy(): Vec = new Longs(a.clone())
  }

  /** Any other type; float, short and byte columns can also be imputed. */
  final class Boxed(a: Array[Any], dt: DataType) extends Vec {
    private def num(i: Int): Number = a(i) match {
      case n: Number => n
      case b: Boolean => if (b) 1 else 0
      case null => 0
      case v => throw new IllegalArgumentException(s"a $dt value ($v) is not numeric")
    }
    def double(i: Int): Double = num(i).doubleValue
    def int(i: Int): Int = num(i).intValue
    def set(i: Int, v: Double): Unit = a(i) = dt match {
      case FloatType => v.toFloat
      case ShortType => v.toShort
      case ByteType => v.toByte
      case _ => throw new IllegalArgumentException(s"cannot impute into a $dt column")
    }
    def get(i: Int): Any = a(i)
    def copy(): Vec = new Boxed(a.clone(), dt)
  }

  /** Column types [[Vec.set]] can write, i.e. the types a target may have. */
  val imputable: Set[DataType] = Set(DoubleType, IntegerType, LongType, FloatType, ShortType, ByteType)

  /** Column `c` of `rows` (nulls read as 0). */
  def of(rows: Array[Row], c: Int, dt: DataType): Vec = {
    def fill[A: scala.reflect.ClassTag](get: Row => A, zero: A): Array[A] =
      rows.map(r => if (r.isNullAt(c)) zero else get(r))
    dt match {
      case DoubleType => new Doubles(fill(_.getDouble(c), 0.0))
      case IntegerType => new Ints(fill(_.getInt(c), 0))
      case LongType => new Longs(fill(_.getLong(c), 0L))
      case _ => new Boxed(rows.map(_.get(c)), dt)
    }
  }
}

/** The rows of one partition that MICE rewrites, column by column.
  *
  * @param cols    every column, in the engine's block-column order
  * @param nulls   per column, its null cells (`null` if none); targets have none
  * @param miss    per target, the rows whose value was missing in the input
  * @param allMiss the rows missing every target
  * @param hash    per row, `xxhash64` of the input row: the key of its noise
  * @param triples what the pass that made this block aggregated over it
  */
private[mice] final class Block(
    val cols: Array[Vec],
    val nulls: Array[BitSet],
    val miss: Array[BitSet],
    val allMiss: BitSet,
    val hash: Array[Long],
    val triples: Array[Triple],
) extends Serializable {

  def size: Int = hash.length

  /** The rows as [[Row]]s of the columns `out`. */
  def rows(out: Array[Int]): Iterator[Row] = Iterator.tabulate(size) { r =>
    Row.fromSeq(out.toSeq.map(c => if (nulls(c) != null && nulls(c).get(r)) null else cols(c).get(r)))
  }
}

private[mice] object Block {

  /** Columnar copy of `rows`, whose last field is the row hash. Null target
    * cells (`targets` are column indices) become their `guesses` and are
    * recorded in `miss`.
    */
  def build(rows: Array[Row], types: Array[DataType], targets: Array[Int],
            guesses: Array[Double]): Block = {
    val nc = types.length
    val cols = Array.tabulate(nc)(c => Vec.of(rows, c, types(c)))
    val nulls = Array.tabulate(nc) { c =>
      val b = new BitSet
      for (r <- rows.indices if rows(r).isNullAt(c)) b.set(r)
      if (b.isEmpty) null else b
    }
    val miss = targets.map(c => Option(nulls(c)).getOrElse(new BitSet))
    for ((c, u) <- targets.zipWithIndex) {
      val m = miss(u)
      var r = m.nextSetBit(0)
      while (r >= 0) { cols(c).set(r, guesses(u)); r = m.nextSetBit(r + 1) }
      nulls(c) = null
    }
    val allMiss = new BitSet
    allMiss.set(0, rows.length)
    miss.foreach(allMiss.and)
    new Block(cols, nulls, miss, allMiss, rows.map(_.getLong(nc)), Array.empty)
  }
}
