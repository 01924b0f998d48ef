package repro.data

import org.apache.spark.sql.DataFrame
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
  def join(factPart: DataFrame): DataFrame = DimSpec.join(factPart, dims)

  /** The materialized join of the whole fact table. */
  def joined: DataFrame = join(fact)

  /** The same tables with the categorical attributes left out. */
  def continuous: Normalized = copy(
    factSchema = CofactorSchema(factSchema.cont, Nil),
    dims = dims.map(d => d.copy(schema = CofactorSchema(d.schema.cont, Nil))))

  /** The fact table, then every dimension's. */
  def tables: Seq[DataFrame] = fact +: dims.map(_.df)

  /** Cache and count the fact table and every dimension. */
  def cache(): this.type = {
    tables.foreach(_.cache().count())
    this
  }
}
