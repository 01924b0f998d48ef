package repro.ring

import org.apache.spark.sql.{Column, DataFrame, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._

/** Attribute layout of a cofactor triple: which DataFrame columns are lifted
  * as continuous (λ_con) and which as categorical (λ_cat), in triple index
  * order. Categorical values must be integer-encoded (as in the paper).
  */
final case class CofactorSchema(cont: Seq[String], cat: Seq[String]) {
  val k: Int = cont.size
  val l: Int = cat.size

  /** Triple index of a continuous attribute. */
  def contIdx(name: String): Int = {
    val i = cont.indexOf(name); require(i >= 0, s"$name is not a continuous attr of $this"); i
  }

  /** Triple index of a categorical attribute. */
  def catIdx(name: String): Int = {
    val i = cat.indexOf(name); require(i >= 0, s"$name is not a categorical attr of $this"); i
  }

  /** Concatenation for factorized multiplication (this side's attrs first). */
  def ++(o: CofactorSchema): CofactorSchema = CofactorSchema(cont ++ o.cont, cat ++ o.cat)
}

/** The paper's `SUM_TRIPLE` aggregate as a Spark typed [[Aggregator]] over
  * `(continuous, categorical)` rows ([[Cofactor.inputCols]]), behind the
  * SQL-callable `sum_triple` UDAF ([[Cofactor.registerUdaf]]): each row is
  * folded in by the fused lift-and-add [[Triple.addRow]], and buffers merge
  * by ring +. Buffers and the result are Java-serialized — triples are tiny
  * relative to the data; as a column the result is a binary that
  * [[Triple.fromBytes]] decodes.
  */
final class TripleAggregator(k: Int, l: Int) extends Aggregator[(Array[Double], Array[Int]), Triple, Triple] {
  override def zero: Triple = Triple.zero(k, l)
  override def reduce(b: Triple, a: (Array[Double], Array[Int])): Triple = b.addRow(a._1, a._2)
  override def merge(b1: Triple, b2: Triple): Triple = b1.plus(b2)
  override def finish(r: Triple): Triple = r
  override def bufferEncoder: Encoder[Triple] = Encoders.javaSerialization[Triple]
  override def outputEncoder: Encoder[Triple] = Encoders.javaSerialization[Triple]
}

/** Computation of cofactor triples over DataFrames. */
object Cofactor {

  /** Column pair (continuous array, categorical array) of `schema`'s
    * attributes, the input of [[TripleAggregator]] and of the models'
    * prediction columns. Continuous attrs are cast to double, categorical to
    * int.
    */
  def inputCols(schema: CofactorSchema): (Column, Column) = {
    val c =
      if (schema.cont.isEmpty) array().cast("array<double>")
      else array(schema.cont.map(col(_).cast("double")): _*)
    val d =
      if (schema.cat.isEmpty) array().cast("array<int>")
      else array(schema.cat.map(col(_).cast("int")): _*)
    (c, d)
  }

  private val pairEncoder: Encoder[(Array[Double], Array[Int])] =
    Encoders.tuple(ExprEncoders.doubleArray, ExprEncoders.intArray)

  /** One-pass cofactor triple of `df` under `schema` (SELECT SUM_TRIPLE(…)
    * FROM df): a single table is a join with no dimensions, so this is the
    * one shuffle-free Spark job of [[Factorized.Plan.cofactor]]. The
    * attributes must hold no null (MICE aggregates the imputed dataset X̃);
    * a null fails with an `IllegalArgumentException` naming the attribute.
    */
  def triple(df: DataFrame, schema: CofactorSchema): Triple =
    Factorized.plan(df.sparkSession, schema, Nil).cofactor(df)

  /** Register the untyped `sum_triple(contArray, catArray) -> binary` UDAF in
    * `spark` for the given arity, under `name`. The binary payload is a
    * Java-serialized [[Triple]] ([[Triple.fromBytes]]); callable from SQL,
    * e.g. with `GROUP BY` for per-group triples.
    */
  def registerUdaf(spark: SparkSession, name: String, k: Int, l: Int): Unit =
    spark.udf.register(name, udaf(new TripleAggregator(k, l), pairEncoder))
}

/** Explicit encoders for primitive arrays (kept off implicit search paths so
  * suites can import what they need without ambiguity).
  */
object ExprEncoders {
  val doubleArray: Encoder[Array[Double]] =
    org.apache.spark.sql.catalyst.encoders.ExpressionEncoder[Array[Double]]()
  val intArray: Encoder[Array[Int]] =
    org.apache.spark.sql.catalyst.encoders.ExpressionEncoder[Array[Int]]()
}
