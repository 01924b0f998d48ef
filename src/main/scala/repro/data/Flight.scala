package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.ring.{CofactorSchema, DimSpec, Stage}

/** Synthetic stand-in for the Flight Delays & Cancellations dataset [51]:
  * three tables (flights fact + airports and carriers dimensions) with
  * correlated continuous attributes and integer-coded categoricals.
  *
  * Generating structure (deterministic in (rows, seed)):
  *  - airports have coordinates; `distance` is the origin→dest Euclidean
  *    distance plus noise,
  *  - `airtime` ≈ distance / speed + taxi times + noise (the paper's
  *    downstream prediction target: flight duration),
  *  - delays are correlated (arrdelay ≈ depdelay + congestion),
  *  - `diverted`/`longhaul` categoricals depend on the continuous attrs, so a
  *    classifier can learn them.
  *
  * The fact table carries most attributes and dominates the dims in size —
  * the property that makes factorized evaluation *unattractive* on Flight
  * (§6.1), which Fig 3/6 rely on.
  */
object Flight {

  val NumAirports = 120
  val NumCarriers = 12

  /** Airports dimension: airport → coordinates and elevation. */
  def airports(spark: SparkSession, seed: Long = 101): DataFrame =
    spark.range(0, NumAirports).select(
      col("id").cast(IntegerType).as("airport_id"),
      (rand(seed) * 50.0).as("ap_lat"),
      (rand(seed + 1) * 60.0).as("ap_lon"),
      (rand(seed + 2) * 2000.0).as("ap_elev"),
      (rand(seed + 3) * 4 + 1).cast(IntegerType).as("ap_region"),
    )

  /** Carriers dimension: carrier → fleet characteristics. */
  def carriers(spark: SparkSession, seed: Long = 202): DataFrame =
    spark.range(0, NumCarriers).select(
      col("id").cast(IntegerType).as("carrier_id"),
      (rand(seed) * 0.3 + 6.5).as("cr_speed"),      // distance units per minute
      (rand(seed + 1) * 20.0).as("cr_avg_age"),
      (rand(seed + 2) * 3 + 1).cast(IntegerType).as("cr_alliance"),
    )

  /** Flights fact table (keys + 7 continuous + 2 categorical attributes). */
  def flights(spark: SparkSession, rows: Long, seed: Long = 303): DataFrame = {
    val (origins, crs) = dimTables(spark, seed)
    val base = spark.range(0, rows).select(
      col("id").as("flight_id"),
      (rand(seed) * NumAirports).cast(IntegerType).as("origin_id"),
      (rand(seed + 1) * NumAirports).cast(IntegerType).as("dest_id"),
      (rand(seed + 2) * NumCarriers).cast(IntegerType).as("carrier_id"),
      randn(seed + 3).as("e_dist"),
      randn(seed + 4).as("e_air"),
      (-log(rand(seed + 5) + lit(1e-12)) * 12.0).as("depdelay"), // exp(12) minutes
      randn(seed + 6).as("e_arr"),
      (rand(seed + 7) * 25 + 5).as("taxiout"),
      (rand(seed + 8) * 15 + 3).as("taxiin"),
      rand(seed + 9).as("u_div"),
    )
    val o = origins.select(col("origin_id"), col("o_lat"), col("o_lon"))
    val d = origins.select(col("origin_id").as("dest_id"), col("o_lat").as("d_lat"), col("o_lon").as("d_lon"))
    val cr = crs.select(col("carrier_id"), col("cr_speed"))
    val joined = base.join(o, "origin_id").join(d, "dest_id").join(cr, "carrier_id")
    val dist = sqrt(pow(col("o_lat") - col("d_lat"), 2) + pow(col("o_lon") - col("d_lon"), 2)) * 30.0 +
      col("e_dist") * 10.0 + 100.0
    val air = dist / col("cr_speed") + col("taxiout") * 0.5 + col("e_air") * 6.0
    val arr = col("depdelay") * 0.9 + col("e_arr") * 8.0 + col("taxiout") * 0.3
    joined.select(
      col("flight_id"),
      col("origin_id"), col("dest_id"), col("carrier_id"),
      dist.as("distance"),
      air.as("airtime"),
      col("depdelay"),
      arr.as("arrdelay"),
      col("taxiout"),
      col("taxiin"),
      (air * 1.15 + col("taxiout") + col("taxiin")).as("elapsed"),
      (col("u_div") < when(arr > 40, 0.35).otherwise(0.03)).cast(IntegerType).as("diverted"),
      (dist > 900).cast(IntegerType).as("longhaul"),
    )
  }

  /** The dimension rows that the fact generated with `seed` joins: airports
    * keyed and named as origins, and carriers.
    */
  private def dimTables(spark: SparkSession, seed: Long): (DataFrame, DataFrame) =
    (airports(spark, seed + 900).toDF("origin_id", "o_lat", "o_lon", "o_elev", "o_region"),
      carriers(spark, seed + 901))

  /** The star kept normalized (Fig 3, Fig 6): the flights fact with its 7
    * continuous and 2 categorical attributes, the airports (as origins) and
    * carriers dimensions, carriers multiplied in per fact row and airports
    * once per origin group. Its `joined` is the single-table view.
    */
  def normalized(spark: SparkSession, rows: Long, seed: Long = 303): Normalized = {
    val (origins, crs) = dimTables(spark, seed)
    Normalized(flights(spark, rows, seed), FactSchema,
      Seq(DimSpec("airports", origins, Seq("origin_id"), AirportsSchema),
        DimSpec("carriers", crs, Seq("carrier_id"), CarriersSchema)),
      Seq(Stage(Seq("carriers"), Seq("origin_id")), Stage(Seq("airports"), Nil)))
  }

  /** Attributes of the flights fact, of the airports (as origins) and of the
    * carriers, in triple order.
    */
  private val FactSchema = CofactorSchema(
    Seq("distance", "airtime", "depdelay", "arrdelay", "taxiout", "taxiin", "elapsed"), Seq("diverted", "longhaul"))
  private val AirportsSchema = CofactorSchema(Seq("o_lat", "o_lon", "o_elev"), Seq("o_region"))
  private val CarriersSchema = CofactorSchema(Seq("cr_speed", "cr_avg_age"), Seq("cr_alliance"))

  /** Every attribute of the star, as `normalized(…).combined` orders them. */
  private val Joined = FactSchema ++ AirportsSchema ++ CarriersSchema

  /** Continuous attributes of the single-table view used in experiments. */
  val JoinedCont: Seq[String] = Joined.cont

  /** Categorical attributes of the single-table view used in experiments. */
  val JoinedCat: Seq[String] = Joined.cat

  /** The 7 incomplete attributes of §6.2 (5 continuous + 2 categorical). */
  val IncompleteAttrs: Seq[String] =
    Seq("distance", "depdelay", "arrdelay", "taxiout", "taxiin", "diverted", "longhaul")
}
