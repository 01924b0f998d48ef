package repro.ring

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Flight, Retailer}

/** Factorized evaluation over joins: the factorized triple must equal the
  * triple over the materialized join (and the DuckDB oracle on the unpacked
  * aggregates), for both star (Flight) and snowflake (Retailer) schemas.
  */
class FactorizedSpec extends SparkSpec {

  private lazy val flight = Flight.normalized(spark, 3000).cache()
  private lazy val flights = flight.fact
  private lazy val Seq(airports, carriers) = flight.dims.map(_.df)

  private val factSchema = CofactorSchema(Seq("distance", "airtime", "depdelay"), Seq("diverted"))
  private lazy val dims = Seq(
    DimSpec("airports", airports, Seq("origin_id"),
      CofactorSchema(Seq("o_lat", "o_elev"), Seq("o_region"))),
    DimSpec("carriers", carriers, Seq("carrier_id"),
      CofactorSchema(Seq("cr_speed", "cr_avg_age"), Seq("cr_alliance"))),
  )

  /** Carriers per fact row, airports once per origin group. */
  private val flightHier = Seq(Stage(Seq("carriers"), Seq("origin_id")), Stage(Seq("airports"), Nil))

  test("plan rejects a dimension that repeats a key") {
    val twice = airports.union(airports.limit(1))
    val e = intercept[IllegalArgumentException](Factorized.plan(spark, factSchema,
      Seq(DimSpec("airports", twice, Seq("origin_id"), dims.head.schema), dims(1))))
    assert(e.getMessage.contains("dimension airports") && e.getMessage.contains("origin_id"), e.getMessage)
  }

  test("plan rejects a null in a dimension attribute, naming the dimension and the column") {
    for ((dim, c) <- Seq(0 -> "o_elev", 0 -> "o_region", 1 -> "cr_avg_age")) {
      val d = dims(dim)
      val holed = d.copy(df = d.df.withColumn(c, when(col(d.keys.head) === 3, null).otherwise(col(c))))
      val e = intercept[IllegalArgumentException](Factorized.plan(spark, factSchema, dims.updated(dim, holed)))
      assert(e.getMessage.contains(s"dimension ${d.name}") && e.getMessage.contains(s"attribute $c"), e.getMessage)
    }
  }

  test("keys that cannot be packed exactly are rejected, and never alias") {
    import spark.implicits._
    val sch = CofactorSchema(Seq("x"), Nil)
    // Two key columns of 41 bits each need more than one Long holds.
    val wide = Seq((0L, 0L, 1.0), (1L << 40, 1L << 40, 2.0)).toDF("a", "b", "x")
    val e1 = intercept[IllegalArgumentException](
      Factorized.plan(spark, CofactorSchema(Nil, Nil), Seq(DimSpec("wide", wide, Seq("a", "b"), sch))))
    assert(e1.getMessage.contains("dimension wide") && e1.getMessage.contains("key column b"), e1.getMessage)
    // A fractional key would alias its truncation.
    val frac = Seq((0.5, 1.0)).toDF("a", "x")
    val e2 = intercept[IllegalArgumentException](
      Factorized.plan(spark, CofactorSchema(Nil, Nil), Seq(DimSpec("frac", frac, Seq("a"), sch))))
    assert(e2.getMessage.contains("dimension frac") && e2.getMessage.contains("key column a"), e2.getMessage)
    // (0, 2) lies outside b's range 0..1; packed without its range it would be (1, 0).
    val small = Seq((0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0), (1, 1, 8.0)).toDF("a", "b", "x")
    val fact = Seq((0, 2, 1.0), (1, 1, 3.0)).toDF("a", "b", "y")
    val plan = Factorized.plan(spark, CofactorSchema(Seq("y"), Nil), Seq(DimSpec("small", small, Seq("a", "b"), sch)))
    val t = plan.cofactor(fact)
    assert(t.approxEquals(SparkSpec.sumTriple(fact.join(small, Seq("a", "b")), plan.combined), 1e-12))
    assert(t.n == 1.0 && t.s(1) == 8.0)
  }

  test("a fact row whose key has no dimension row is dropped, as by the join") {
    val dangling = flights.withColumn("origin_id",
      when(col("flight_id") === 0, lit(Flight.NumAirports + 5)).otherwise(col("origin_id")))
    val plan = Factorized.plan(spark, factSchema, dims, flightHier)
    val mat = SparkSpec.sumTriple(dangling.join(airports, "origin_id").join(carriers, "carrier_id"), plan.combined)
    assert(mat.n == flights.count() - 1)
    for (h <- Seq(true, false)) {
      val t = plan.cofactor(dangling, hierarchical = h)
      assert(t.approxEquals(mat, 1e-9), s"hierarchical=$h: n=${t.n} join n=${mat.n}")
    }
  }

  test("plan cofactor runs exactly one Spark job") {
    flights.count()
    val plan = Factorized.plan(spark, factSchema, dims, flightHier)
    for (h <- Seq(true, false)) {
      val jobs = SparkSpec.jobsOf(spark)(plan.cofactor(flights, hierarchical = h))
      assert(jobs == 1, s"hierarchical=$h: $jobs jobs")
    }
    val flat = SparkSpec.jobsOf(spark)(Cofactor.triple(flights, factSchema))
    assert(flat == 1, s"Cofactor.triple: $flat jobs")
  }

  test("plan cofactor rejects a null in a fact attribute, naming the column") {
    val plan = Factorized.plan(spark, factSchema, dims, flightHier)
    for (c <- Seq("airtime", "diverted")) {
      val holed = flights.withColumn(c, when(col("carrier_id") === 1, null).otherwise(col(c)))
      val e = intercept[IllegalArgumentException](plan.cofactor(holed))
      assert(e.getMessage.contains(s"attribute $c has a null value"), e.getMessage)
    }
  }

  test("factorized cofactor equals the triple over the materialized join") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val fact = plan.cofactor(flights)
    val joined = flights.join(airports, "origin_id").join(carriers, "carrier_id")
    val mat = SparkSpec.sumTriple(joined, plan.combined)
    assert(fact.approxEquals(mat, 1e-5), s"fact.n=${fact.n} mat.n=${mat.n}")
  }

  test("combined schema orders fact attributes before dimension attributes") {
    val plan = Factorized.plan(spark, factSchema, dims)
    assert(plan.combined.cont ==
      Seq("distance", "airtime", "depdelay", "o_lat", "o_elev", "cr_speed", "cr_avg_age"))
    assert(plan.combined.cat == Seq("diverted", "o_region", "cr_alliance"))
  }

  test("factorized aggregates match the DuckDB oracle over the join") {
    import spark.implicits._
    val plan = Factorized.plan(spark, factSchema, dims)
    val t = plan.cofactor(flights)
    val iD = plan.combined.contIdx("distance")
    val iLat = plan.combined.contIdx("o_lat")
    val sparkSide = Seq((t.n, round3(t.s(iD)), round3(t.qCont(iD, iLat)))).toDF("n", "sd", "sdlat")
    Oracle.assertEquivalent(sparkSide,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS n,
        |       ROUND(SUM(CAST(distance AS DOUBLE)), 3) AS sd,
        |       ROUND(SUM(CAST(distance AS DOUBLE) * CAST(o_lat AS DOUBLE)), 3) AS sdlat
        |FROM f JOIN a ON f.origin_id = a.origin_id""".stripMargin,
      "f" -> flights.select("origin_id", "distance"),
      "a" -> airports.select("origin_id", "o_lat"))
  }

  test("factorized cofactor over a filtered fact subset is consistent") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val whole = plan.cofactor(flights)
    val part1 = plan.cofactor(flights.filter(col("flight_id") % 2 === 0))
    val part2 = plan.cofactor(flights.filter(col("flight_id") % 2 === 1))
    assert(part1.copyTriple().plus(part2).approxEquals(whole, 1e-5))
  }

  test("factorized cofactor of an empty fact subset is zero") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val t = plan.cofactor(flights.limit(0))
    assert(t.n == 0.0)
  }

  test("enrich attaches every dimension attribute at fact cardinality") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val e = plan.enrich(flights.limit(100))
    assert(e.count() == 100)
    // Each dimension is broadcast, although the tests switch automatic broadcasts off.
    val physical = e.queryExecution.executedPlan.toString
    assert("BroadcastHashJoin".r.findAllIn(physical).size == dims.size, physical)
    for (c <- Seq("o_lat", "o_elev", "o_region", "cr_speed", "cr_avg_age", "cr_alliance"))
      assert(e.columns.contains(c), c)
  }

  test("hierarchical plan matches the default plan and the materialized join") {
    val hPlan = Factorized.plan(spark, factSchema, dims, flightHier)
    // Stage order puts carriers before airports in the combined layout.
    assert(hPlan.combined.cont ==
      Seq("distance", "airtime", "depdelay", "cr_speed", "cr_avg_age", "o_lat", "o_elev"))
    val hT = hPlan.cofactor(flights)
    val joined = flights.join(airports, "origin_id").join(carriers, "carrier_id")
    val mat = SparkSpec.sumTriple(joined, hPlan.combined)
    assert(hT.approxEquals(mat, 1e-5), s"hier.n=${hT.n} mat.n=${mat.n}")
  }

  test("hierarchical plan rejects a stage whose keys are unavailable") {
    // airports (keyed by origin_id) cannot multiply after grouping by carrier-only keys.
    val bad = Seq(Stage(Seq("carriers"), Seq("carrier_id")), Stage(Seq("airports"), Nil))
    val p = Factorized.plan(spark, factSchema, dims, bad)
    intercept[IllegalArgumentException](p.cofactor(flights))
  }

  test("hierarchy must cover every dimension exactly once") {
    intercept[IllegalArgumentException](
      Factorized.plan(spark, factSchema, dims, Seq(Stage(Seq("carriers"), Nil))))
  }

  private lazy val retailer = Retailer.normalized(spark, 2000).cache()
  private lazy val inv = retailer.fact
  private lazy val Seq(loc, item, weather) = retailer.dims.map(_.df)
  private val invSchema = CofactorSchema(Seq("inventoryunits"), Nil)
  private lazy val rdims = Seq(
    DimSpec("loc_census", loc, Seq("locn"),
      CofactorSchema(Seq("rgn_sales_idx", "population", "medianage", "income"), Seq("clim_zone", "urbanicity"))),
    DimSpec("item", item, Seq("ksn"), CofactorSchema(Seq("price"), Seq("category", "subcategory"))),
    DimSpec("weather", weather, Seq("locn", "dateid"),
      CofactorSchema(Seq("maxtemp", "mintemp"), Seq("rain", "snow"))),
  )
  private val rhier = Seq(Stage(Seq("item"), Seq("locn", "dateid")),
    Stage(Seq("weather"), Seq("locn")), Stage(Seq("loc_census"), Nil))

  test("snowflake factorization (Retailer) matches the materialized join") {
    val plan = Factorized.plan(spark, invSchema, rdims)
    val fct = plan.cofactor(inv)
    val joined = inv.join(loc, "locn").join(item, "ksn").join(weather, Seq("locn", "dateid"))
    val mat = SparkSpec.sumTriple(joined, plan.combined)
    assert(fct.approxEquals(mat, 1e-5), s"fact.n=${fct.n} mat.n=${mat.n}")

    // The 3-level hierarchical order gives the same triple (modulo attr order).
    val hPlan = Factorized.plan(spark, invSchema, rdims, rhier)
    val hT = hPlan.cofactor(inv)
    val hMat = SparkSpec.sumTriple(joined, hPlan.combined)
    assert(hT.approxEquals(hMat, 1e-5), s"hier.n=${hT.n} mat.n=${hMat.n}")
  }

  test("factorized cofactor does not depend on the partition layout or the evaluation order") {
    val plan = Factorized.plan(spark, invSchema, rdims, rhier)
    val ref = plan.cofactor(inv)
    for (layout <- Seq(inv.repartition(1), inv.repartition(7)))
      assert(plan.cofactor(layout).approxEquals(ref, 1e-9), s"${layout.rdd.getNumPartitions} partitions")
    assert(plan.cofactor(inv, hierarchical = false).approxEquals(ref, 1e-9))
  }

  private def round3(v: Double): Double = math.rint(v * 1e3) / 1e3
}
