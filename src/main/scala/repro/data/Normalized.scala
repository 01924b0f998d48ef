package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.ring.{CofactorSchema, DimSpec, Stage}

/** A dataset kept normalized: the fact table with its own attributes, the
  * dimensions it joins N:1 with theirs, and the order in which factorized
  * evaluation multiplies the dimensions in (the Fig 3 / Fig 6 variable
  * order). Built by [[Flight.normalized]] and [[Retailer.normalized]].
  */
final case class Normalized(fact: DataFrame, factSchema: CofactorSchema, dims: Seq[DimSpec],
                            hierarchy: Seq[Stage]) {

  /** Fact attributes first, then each dimension's, in `dims` order. */
  val combined: CofactorSchema = dims.map(_.schema).foldLeft(factSchema)(_ ++ _)

  /** `factPart` (fact rows with their keys) joined to every dimension's
    * attributes on its keys.
    */
  def join(factPart: DataFrame): DataFrame =
    dims.foldLeft(factPart) { (acc, d) =>
      acc.join(d.df.select((d.keys ++ d.schema.cont ++ d.schema.cat).map(col): _*), d.keys)
    }

  /** The materialized join of the whole fact table. */
  def joined: DataFrame = join(fact)

  /** The same tables with the categorical attributes left out. */
  def continuous: Normalized = copy(
    factSchema = CofactorSchema(factSchema.cont, Nil),
    dims = dims.map(d => d.copy(schema = CofactorSchema(d.schema.cont, Nil))))

  /** Cache and count the fact table and every dimension. */
  def cache(): this.type = {
    fact.cache().count()
    dims.foreach(_.df.cache().count())
    this
  }
}
