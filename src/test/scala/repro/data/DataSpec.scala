package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Synthetic dataset generators: schema shape, referential integrity, the
  * correlations the experiments rely on, and determinism.
  */
class DataSpec extends SparkSpec {

  private lazy val flight = Flight.normalized(spark, 5000).joined.cache()
  private lazy val retailer = Retailer.normalized(spark, 5000).joined.cache()
  private lazy val aq = AirQuality.table(spark, 5000).cache()

  // ---- Flight --------------------------------------------------------------

  test("flight fact has the requested row count") {
    assert(Flight.flights(spark, 5000).count() == 5000)
  }

  test("flight joined view exposes the experiment attributes") {
    val cols = flight.columns.toSet
    (Flight.JoinedCont ++ Flight.JoinedCat).foreach(c => assert(cols.contains(c), c))
  }

  test("flight join preserves the fact cardinality (N:1 dims)") {
    assert(flight.count() == 5000)
  }

  test("flight keys respect dimension domains") {
    val bad = Flight.flights(spark, 2000).filter(
      col("origin_id") < 0 || col("origin_id") >= Flight.NumAirports ||
        col("carrier_id") < 0 || col("carrier_id") >= Flight.NumCarriers).count()
    assert(bad == 0)
  }

  test("airtime correlates strongly with distance (learnable structure)") {
    val r = flight.select(corr("airtime", "distance")).head().getDouble(0)
    assert(r > 0.7, s"corr=$r")
  }

  test("arrdelay correlates with depdelay") {
    val r = flight.select(corr("arrdelay", "depdelay")).head().getDouble(0)
    assert(r > 0.6, s"corr=$r")
  }

  test("diverted is predictable from arrdelay (classifier signal)") {
    val rates = flight.groupBy("diverted").agg(avg("arrdelay")).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    assert(rates(1) > rates(0) + 10, s"rates=$rates")
  }

  test("flight categoricals are integer-coded with small domains") {
    for (c <- Flight.JoinedCat) {
      val n = flight.select(c).distinct().count()
      assert(n >= 2 && n <= 10, s"$c has $n categories")
    }
  }

  test("flight generation is deterministic in the seed") {
    val a = Flight.flights(spark, 1000, seed = 5).select(sum("distance")).head().getDouble(0)
    val b = Flight.flights(spark, 1000, seed = 5).select(sum("distance")).head().getDouble(0)
    assert(a == b)
  }

  // ---- Retailer ------------------------------------------------------------

  test("retailer snowflake joins preserve the fact cardinality") {
    assert(retailer.count() == 5000)
  }

  test("retailer joined view exposes the experiment attributes") {
    val cols = retailer.columns.toSet
    (Retailer.JoinedCont ++ Retailer.JoinedCat).foreach(c => assert(cols.contains(c), c))
  }

  test("retailer fact is narrow while the joined view is wide (redundancy)") {
    assert(Retailer.inventory(spark, 100).columns.length == 4)
    assert(retailer.columns.length >= 15)
  }

  test("inventoryunits depends on population and price") {
    val rPop = retailer.select(corr("inventoryunits", "population")).head().getDouble(0)
    val rPrice = retailer.select(corr("inventoryunits", "price")).head().getDouble(0)
    assert(rPop > 0.2, s"pop corr=$rPop")
    assert(rPrice < -0.2, s"price corr=$rPrice")
  }

  test("weather covers every (locn, dateid) combination once") {
    val w = Retailer.weather(spark)
    assert(w.count() == Retailer.NumLocations.toLong * Retailer.NumDates)
    assert(w.select("locn", "dateid").distinct().count() == w.count())
  }

  test("census join via location zip is total") {
    val locWithCensus = Retailer.location(spark).join(Retailer.census(spark), "zip")
    assert(locWithCensus.count() == Retailer.NumLocations)
  }

  // ---- Normalized views ----------------------------------------------------

  test("each normalized dataset joins to exactly the rows of its single-table view") {
    // The single-table views spelled out over the generators, with the
    // dimension seeds offset from the fact's default seed.
    val flightView = Flight.flights(spark, 3000)
      .join(Flight.airports(spark, 303 + 900).toDF("origin_id", "o_lat", "o_lon", "o_elev", "o_region"), "origin_id")
      .join(Flight.carriers(spark, 303 + 901), "carrier_id")
    val retailerView = Retailer.inventory(spark, 3000)
      .join(Retailer.location(spark, 555 + 901), "locn")
      .join(Retailer.census(spark, 555 + 902), "zip")
      .join(Retailer.item(spark, 555 + 903), "ksn")
      .join(Retailer.weather(spark, 555 + 904), Seq("locn", "dateid"))
    for ((data, view) <- Seq(
        Flight.normalized(spark, 3000) -> flightView,
        Retailer.normalized(spark, 3000) -> retailerView)) {
      val cols = (data.combined.cont ++ data.combined.cat).map(col)
      val (a, b) = (data.joined.select(cols: _*), view.select(cols: _*))
      assert(a.count() == 3000 && b.count() == 3000)
      val (onlyA, onlyB) = (a.exceptAll(b).count(), b.exceptAll(a).count())
      assert(onlyA == 0 && onlyB == 0,
        s"${data.dims.map(_.name)}: $onlyA normalized rows and $onlyB view rows have no match")
    }
  }

  // ---- Air quality ---------------------------------------------------------

  test("air quality table has 11 numeric columns") {
    assert(aq.columns.toSeq == AirQuality.Columns)
    assert(aq.schema.fields.forall(_.dataType.typeName == "double"))
  }

  test("aqi is strongly predictable from pollutants") {
    val r = aq.select(corr("aqi", "pm25")).head().getDouble(0)
    assert(r > 0.6, s"corr=$r")
  }

  test("pollutants are mutually correlated (imputable)") {
    val r = aq.select(corr("pm25", "pm10")).head().getDouble(0)
    assert(r > 0.5, s"corr=$r")
  }
}
