package repro.mice

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{Flight, Missingness}
import repro.ring.{CofactorSchema, DimSpec}

/** Factorized MICE over normalized data must impute the same cells as Low
  * over the materialized join (missing values live in the fact table only, as
  * in §6.3), with the same values cell by cell under deterministic models.
  */
class FactorizedMiceSpec extends SparkSpec {

  private lazy val flight = Flight.normalized(spark, 4000).cache()
  private lazy val flights = flight.fact
  private lazy val Seq(airports, carriers) = flight.dims.map(_.df)

  private val factSchema = MiceSchema(
    cont = Seq("distance", "airtime", "depdelay", "arrdelay", "taxiout"),
    cat = Seq("diverted"),
    targets = Seq("distance", "depdelay", "diverted"))

  private lazy val dims = Seq(
    DimSpec("airports", airports, Seq("origin_id"),
      CofactorSchema(Seq("o_lat", "o_elev"), Seq("o_region"))),
    DimSpec("carriers", carriers, Seq("carrier_id"), CofactorSchema(Seq("cr_speed"), Nil)),
  )

  private lazy val holeyFact =
    Missingness.mcar(flights, factSchema.targets, 0.15, seed = 3).cache()

  private val cfg = MiceConfig(iterations = 2, stochastic = false, seed = 1)

  test("factorized MICE imputes every missing fact value") {
    val r = FactorizedMice.impute(holeyFact, factSchema, dims, cfg)
    assert(r.imputed.count() == flights.count())
    for (t <- factSchema.targets) assert(r.imputed.filter(col(t).isNull).count() == 0)
  }

  test("factorized MICE keeps key and complete columns untouched") {
    val r = FactorizedMice.impute(holeyFact, factSchema, dims, cfg)
    val a = r.imputed.select(sum("airtime"), sum("origin_id")).head()
    val b = flights.select(sum("airtime"), sum("origin_id")).head()
    assert(math.abs(a.getDouble(0) - b.getDouble(0)) < 1e-4)
    assert(a.getLong(1) == b.getLong(1))
  }

  test("factorized MICE matches Low over the materialized join") {
    val joinedHoley = holeyFact.join(airports, "origin_id").join(carriers, "carrier_id")
    val joinedSchema = MiceSchema(
      cont = factSchema.cont ++ Seq("o_lat", "o_elev", "cr_speed"),
      cat = factSchema.cat ++ Seq("o_region"),
      targets = factSchema.targets)
    val mat = MiceLow.impute(joinedHoley, joinedSchema, cfg)
    val fact = FactorizedMice.impute(holeyFact, factSchema, dims, cfg)
    MiceSpec.assertSameCells(mat.imputed, fact.imputed, "airtime", factSchema)
  }

  test("factorized MICE rejects a null in a dimension attribute, naming the dimension and the column") {
    val holed = carriers.withColumn("cr_speed", when(col("carrier_id") === 3, null).otherwise(col("cr_speed")))
    val e = intercept[IllegalArgumentException](FactorizedMice.impute(holeyFact, factSchema,
      dims.updated(1, dims(1).copy(df = holed)), cfg))
    assert(e.getMessage.contains("dimension carriers") && e.getMessage.contains("attribute cr_speed"), e.getMessage)
  }

  test("timing fields are populated") {
    val r = FactorizedMice.impute(holeyFact, factSchema, dims, MiceConfig(1, stochastic = false))
    assert(r.preprocessSecs > 0 && r.roundSecs.size == 1)
    assert(r.breakdown.contains("dim_partials") && r.breakdown.contains("update"))
  }

  test("stochastic factorized imputations do not depend on the partition layout") {
    val sto = MiceConfig(iterations = 2, stochastic = true, seed = 1)
    val ref = FactorizedMice.impute(holeyFact, factSchema, dims, sto).imputed
    for (layout <- Seq(holeyFact.repartition(3), holeyFact.coalesce(1)))
      MiceSpec.assertSameCells(ref, FactorizedMice.impute(layout, factSchema, dims, sto).imputed,
        "airtime", factSchema)
  }

  test("a factorized round runs at most one Spark job per target") {
    holeyFact.count()
    val perRound = MiceSpec.jobsPerRound(spark)(iters =>
      FactorizedMice.impute(holeyFact, factSchema, dims, cfg.copy(iterations = iters)))
    assert(perRound <= factSchema.targets.size, s"$perRound jobs per round")
  }
}
