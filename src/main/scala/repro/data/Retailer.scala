package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.ring.{CofactorSchema, DimSpec, Stage}

/** Synthetic stand-in for the Retailer dataset [64]: a 5-table snowflake —
  * inventory fact (4 attributes) ⋈ location ⋈ census (via zip) ⋈ item ⋈
  * weather. The fact table is narrow and the dimensions are wide and highly
  * redundant after joining (each location's census row is repeated for every
  * date×item), which is exactly why factorized evaluation pays off on
  * Retailer (§6.1, §6.3).
  *
  * `inventoryunits` (the downstream prediction target) is a linear function
  * of dimension attributes (population, price, temperature, …) plus noise, so
  * model-based imputation has signal to recover.
  */
object Retailer {

  val NumLocations = 60
  val NumItems = 2000
  val NumDates = 300

  /** Location dimension: locn → zip + store attributes. */
  def location(spark: SparkSession, seed: Long = 111): DataFrame =
    spark.range(0, NumLocations).select(
      col("id").cast(IntegerType).as("locn"),
      (col("id") % 30).cast(IntegerType).as("zip"),
      (rand(seed) * 20 + 5).as("rgn_sales_idx"),
      (rand(seed + 1) * 5 + 1).cast(IntegerType).as("clim_zone"),
    )

  /** Census dimension: zip → demographics. */
  def census(spark: SparkSession, seed: Long = 222): DataFrame =
    spark.range(0, 30).select(
      col("id").cast(IntegerType).as("zip"),
      (rand(seed) * 90000 + 10000).as("population"),
      (rand(seed + 1) * 30 + 25).as("medianage"),
      (rand(seed + 2) * 60000 + 20000).as("income"),
      (rand(seed + 3) * 3 + 1).cast(IntegerType).as("urbanicity"),
    )

  /** Item dimension: ksn → price and category. */
  def item(spark: SparkSession, seed: Long = 333): DataFrame =
    spark.range(0, NumItems).select(
      col("id").cast(IntegerType).as("ksn"),
      (rand(seed) * 95 + 5).as("price"),
      (rand(seed + 1) * 8 + 1).cast(IntegerType).as("category"),
      (rand(seed + 2) * 4 + 1).cast(IntegerType).as("subcategory"),
    )

  /** Weather dimension: (locn, dateid) → conditions. */
  def weather(spark: SparkSession, seed: Long = 444): DataFrame =
    spark.range(0, NumLocations.toLong * NumDates).select(
      (col("id") / NumDates).cast(IntegerType).as("locn"),
      (col("id") % NumDates).cast(IntegerType).as("dateid"),
      (rand(seed) * 40 - 5).as("maxtemp"),
      (rand(seed + 1) * 25 - 10).as("mintemp"),
      (rand(seed + 2) < 0.25).cast(IntegerType).as("rain"),
      (rand(seed + 3) < 0.08).cast(IntegerType).as("snow"),
    )

  /** Inventory fact: (locn, dateid, ksn, inventoryunits). */
  def inventory(spark: SparkSession, rows: Long, seed: Long = 555): DataFrame = {
    val base = spark.range(0, rows).select(
      (rand(seed) * NumLocations).cast(IntegerType).as("locn"),
      (rand(seed + 1) * NumDates).cast(IntegerType).as("dateid"),
      (rand(seed + 2) * NumItems).cast(IntegerType).as("ksn"),
      randn(seed + 3).as("e_inv"),
    )
    val (locs, cens, items, weathers) = dimTables(spark, seed)
    val loc = locs.join(cens, "zip").select(col("locn"), col("population"), col("rgn_sales_idx"))
    val it = items.select(col("ksn"), col("price"))
    val w = weathers.select(col("locn"), col("dateid"), col("maxtemp"))
    base.join(loc, "locn").join(it, "ksn").join(w, Seq("locn", "dateid"))
      .select(
        col("locn"), col("dateid"), col("ksn"),
        (col("population") * 0.002 + col("rgn_sales_idx") * 6.0 - col("price") * 1.5 +
          col("maxtemp") * 2.0 + col("e_inv") * 25.0 + 150.0).as("inventoryunits"),
      )
  }

  /** The dimension rows that the fact generated with `seed` joins: location,
    * census, item and weather.
    */
  private def dimTables(spark: SparkSession, seed: Long): (DataFrame, DataFrame, DataFrame, DataFrame) =
    (location(spark, seed + 901), census(spark, seed + 902), item(spark, seed + 903), weather(spark, seed + 904))

  /** The snowflake kept normalized (Fig 3, Fig 6): the inventory fact with
    * `inventoryunits`, and location⋈census, item and weather as dimensions
    * with their continuous and categorical attributes. Item multiplies in
    * per fact row, weather once per (locn, dateid) group and location⋈census
    * once per locn group. Its `joined` is the single-table view.
    */
  def normalized(spark: SparkSession, rows: Long, seed: Long = 555): Normalized = {
    val (locs, cens, items, weathers) = dimTables(spark, seed)
    Normalized(inventory(spark, rows, seed), FactSchema,
      Seq(DimSpec("loc_census", locs.join(cens, "zip"), Seq("locn"), LocCensusSchema),
        DimSpec("item", items, Seq("ksn"), ItemSchema),
        DimSpec("weather", weathers, Seq("locn", "dateid"), WeatherSchema)),
      Seq(Stage(Seq("item"), Seq("locn", "dateid")), Stage(Seq("weather"), Seq("locn")),
        Stage(Seq("loc_census"), Nil)))
  }

  /** Attributes of the inventory fact and of each dimension, in triple order. */
  private val FactSchema = CofactorSchema(Seq("inventoryunits"), Nil)
  private val LocCensusSchema =
    CofactorSchema(Seq("rgn_sales_idx", "population", "medianage", "income"), Seq("clim_zone", "urbanicity"))
  private val ItemSchema = CofactorSchema(Seq("price"), Seq("category", "subcategory"))
  private val WeatherSchema = CofactorSchema(Seq("maxtemp", "mintemp"), Seq("rain", "snow"))

  /** Every attribute of the snowflake, as `normalized(…).combined` orders them. */
  private val Joined = FactSchema ++ LocCensusSchema ++ ItemSchema ++ WeatherSchema

  /** Continuous attributes of the single-table view used in experiments. */
  val JoinedCont: Seq[String] = Joined.cont

  /** Categorical attributes of the single-table view used in experiments:
    * every one but `subcategory`, which the single-table experiments (Fig 4,
    * Fig 8) have always left out.
    */
  val JoinedCat: Seq[String] = Joined.cat.filterNot(_ == "subcategory")

  /** The 7 incomplete attributes for the single-table experiments. */
  val IncompleteAttrs: Seq[String] =
    Seq("population", "medianage", "income", "price", "maxtemp", "rain", "snow")
}
