package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{AirQuality, Flight, Normalized, Retailer}
import repro.mice.MiceSchema
import repro.util.Timing

/** What the §6 experiments run on for one dataset: its normalized schema
  * (none for a single table), the single-table view every single-table
  * method reads (the normalized schema's join), the MICE schema with the
  * §6.2 incomplete attributes, the Fig 6 targets among the fact's own
  * attributes, and the downstream label that stays complete.
  */
final case class Inputs(name: String, normalized: Option[Normalized], table: DataFrame,
                        schema: MiceSchema, factTargets: Seq[String], label: String) {

  /** The normalized schema, for the experiments that keep the join unmaterialized. */
  def star: Normalized =
    normalized.getOrElse(throw new IllegalArgumentException(s"$name has no normalized schema"))
}

object Inputs {

  /** The inputs of dataset `name` (`flight`, `retailer` or `airquality`) at
    * `rows` fact rows.
    */
  def of(spark: SparkSession, name: String, rows: Long): Inputs = name match {
    case "flight" =>
      val n = Flight.normalized(spark, rows)
      // Predict flight duration (airtime); 7 predictors go missing.
      Inputs(name, Some(n), n.joined, MiceSchema(Flight.JoinedCont, Flight.JoinedCat, Flight.IncompleteAttrs),
        Flight.IncompleteAttrs, "airtime")
    case "retailer" =>
      val n = Retailer.normalized(spark, rows)
      // Predict inventory stock, the fact's only attribute (and Fig 6's
      // only incomplete one); 7 dimension predictors go missing.
      Inputs(name, Some(n), n.joined,
        MiceSchema(Retailer.JoinedCont, Retailer.JoinedCat, Retailer.IncompleteAttrs),
        Seq("inventoryunits"), "inventoryunits")
    case "airquality" =>
      Inputs(name, None, AirQuality.table(spark, rows), MiceSchema(AirQuality.Columns, Nil, AirQuality.Pollutants),
        Nil, "aqi")
    case other => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** Cache and count `dfs`, run `body` with the seconds that took, then
    * unpersist them, waiting until their blocks are removed: a run frees
    * exactly what it cached. Outputs `body` made from them stay countable;
    * they recompute from lineage or read their own checkpoints.
    */
  def cached[T](dfs: DataFrame*)(body: Double => T): T = {
    val (_, secs) = Timing.timed(dfs.foreach(_.cache().count()))
    try body(secs) finally dfs.foreach(_.unpersist(blocking = true))
  }
}
