package repro.ring

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, SynthData}

/** The paper's `SUM_TRIPLE` aggregate on Spark: typed Aggregator path, the
  * registered untyped UDAF, grouped partial triples, and DuckDB oracle checks
  * of the unpacked aggregates.
  */
class CofactorSpec extends SparkSpec {

  private lazy val flightDf: DataFrame = {
    // Small mixed-type table in the spirit of the paper's Example 1.
    val rows = (1 to 200).map { i =>
      Row(i.toDouble % 17 + 0.5, (i * 7 % 23).toDouble, i % 3, i % 2)
    }
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows, 4),
      StructType(Seq(
        StructField("distance", DoubleType), StructField("airtime", DoubleType),
        StructField("carrier", IntegerType), StructField("diverted", IntegerType))))
      .cache()
  }

  private val schema = CofactorSchema(Seq("distance", "airtime"), Seq("carrier", "diverted"))

  test("triple count matches dataset size") {
    assert(Cofactor.triple(flightDf, schema).n == 200.0)
  }

  test("continuous sums and products match direct SQL aggregates") {
    val t = Cofactor.triple(flightDf, schema)
    val r = flightDf.select(
      sum("distance"), sum("airtime"),
      sum(col("distance") * col("distance")), sum(col("distance") * col("airtime")),
      sum(col("airtime") * col("airtime"))).head()
    assert(math.abs(t.s(0) - r.getDouble(0)) < 1e-6)
    assert(math.abs(t.s(1) - r.getDouble(1)) < 1e-6)
    assert(math.abs(t.qCont(0, 0) - r.getDouble(2)) < 1e-6)
    assert(math.abs(t.qCont(0, 1) - r.getDouble(3)) < 1e-6)
    assert(math.abs(t.qCont(1, 1) - r.getDouble(4)) < 1e-6)
  }

  test("categorical group-by aggregates match direct SQL aggregates") {
    val t = Cofactor.triple(flightDf, schema)
    val counts = flightDf.groupBy("carrier").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1).toDouble).toMap
    assert(t.scat(0).toMap == counts)
    val sums = flightDf.groupBy("diverted").agg(sum("airtime")).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    for ((c, v) <- sums) assert(math.abs(t.qcc(1 * 2 + 1).getOrElse(c, 0.0) - v) < 1e-6)
    val pairs = flightDf.groupBy("carrier", "diverted").count().collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2).toDouble).toMap
    for (((c1, c2), v) <- pairs) assert(t.pairCount(0, c1, 1, c2) == v)
  }

  test("unpacked triple aggregates match the DuckDB oracle") {
    val t = Cofactor.triple(flightDf, schema)
    import spark.implicits._
    val sparkSide = Seq((
      t.n, round6(t.s(0)), round6(t.qCont(0, 0)), round6(t.qCont(0, 1)),
      t.scat(1).getOrElse(1, 0.0), round6(t.qcc(1 * 2 + 0).getOrElse(1, 0.0)),
    )).toDF("n", "sd", "sdd", "sda", "cnt_div1", "sd_div1")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS n,
        |       ROUND(SUM(CAST(distance AS DOUBLE)), 6) AS sd,
        |       ROUND(SUM(CAST(distance AS DOUBLE) * CAST(distance AS DOUBLE)), 6) AS sdd,
        |       ROUND(SUM(CAST(distance AS DOUBLE) * CAST(airtime AS DOUBLE)), 6) AS sda,
        |       CAST(SUM(CASE WHEN CAST(diverted AS INT) = 1 THEN 1 ELSE 0 END) AS DOUBLE) AS cnt_div1,
        |       ROUND(SUM(CASE WHEN CAST(diverted AS INT) = 1 THEN CAST(distance AS DOUBLE) ELSE 0 END), 6) AS sd_div1
        |FROM flight""".stripMargin,
      "flight" -> flightDf)
  }

  test("continuous-only schema works (l = 0)") {
    val t = Cofactor.triple(flightDf, CofactorSchema(Seq("distance"), Nil))
    assert(t.n == 200.0 && t.l == 0)
  }

  test("categorical-only schema works (k = 0)") {
    val t = Cofactor.triple(flightDf, CofactorSchema(Nil, Seq("carrier")))
    assert(t.n == 200.0 && t.scat(0).values.sum == 200.0)
  }

  test("triple of an empty DataFrame is the ring zero") {
    val t = Cofactor.triple(flightDf.limit(0), schema)
    assert(t.n == 0.0 && t.s.forall(_ == 0.0) && t.scat.forall(_.isEmpty))
  }

  test("triple over a filtered subset equals global minus complement") {
    val whole = Cofactor.triple(flightDf, schema)
    val even = Cofactor.triple(flightDf.filter(col("diverted") === 0), schema)
    val odd = Cofactor.triple(flightDf.filter(col("diverted") === 1), schema)
    assert(even.copyTriple().plus(odd).approxEquals(whole))
    assert(whole.copyTriple().minus(odd).approxEquals(even))
  }

  test("aggregation is partitioning-invariant") {
    val one = Cofactor.triple(flightDf.coalesce(1), schema)
    val many = Cofactor.triple(flightDf.repartition(13), schema)
    assert(one.approxEquals(many))
  }

  test("small-scale relational sums survive the aggregate's merges") {
    // Each partition's SUM(x) GROUP BY c lies near 1e-10: small in absolute
    // terms, but nothing to round away.
    val tiny = flightDf.select((col("distance") * 1e-12).as("x"), col("carrier")).repartition(4)
    val sch = CofactorSchema(Seq("x"), Seq("carrier"))
    val fold = Triple.zero(1, 1)
    for (r <- tiny.collect()) fold.addRow(Array(r.getDouble(0)), Array(r.getInt(1)))
    val t = Cofactor.triple(tiny, sch)
    assert(t.qcc(0).keySet == fold.qcc(0).keySet, s"qcc ${t.qcc(0)} vs ${fold.qcc(0)}")
    for ((c, v) <- fold.qcc(0)) assert(math.abs(t.qcc(0)(c) - v) <= 1e-12 * math.abs(v), s"category $c")
    assert(t.approxEquals(fold, 1e-12))
  }

  test("registered sum_triple UDAF matches Cofactor.triple") {
    Cofactor.registerUdaf(spark, "sum_triple_t", schema.k, schema.l)
    val (c, d) = Cofactor.inputCols(schema)
    val bytes = flightDf.select(call_udf("sum_triple_t", c, d)).head().getAs[Array[Byte]](0)
    assert(Triple.fromBytes(bytes).approxEquals(Cofactor.triple(flightDf, schema)))
  }

  test("sum_triple is callable from SQL") {
    Cofactor.registerUdaf(spark, "sum_triple_sql", 1, 1)
    flightDf.createOrReplaceTempView("flight_v")
    val bytes = spark.sql(
      "SELECT sum_triple_sql(array(CAST(airtime AS DOUBLE)), array(CAST(diverted AS INT))) FROM flight_v")
      .head().getAs[Array[Byte]](0)
    val t = Triple.fromBytes(bytes)
    assert(t.n == 200.0 && t.k == 1 && t.l == 1)
  }

  test("grouped partial triples partition the global triple") {
    Cofactor.registerUdaf(spark, "sum_triple_g", 2, 1)
    flightDf.createOrReplaceTempView("flight_g")
    val collected = spark.sql(
      """SELECT carrier, sum_triple_g(array(CAST(distance AS DOUBLE), CAST(airtime AS DOUBLE)),
        |                             array(CAST(diverted AS INT)))
        |FROM flight_g GROUP BY carrier""".stripMargin)
      .collect().map(r => r.getInt(0) -> Triple.fromBytes(r.getAs[Array[Byte]](1)))
    assert(collected.length == 3)
    val total = collected.map(_._2.copyTriple()).reduce(_.plus(_))
    assert(total.approxEquals(Cofactor.triple(flightDf, CofactorSchema(Seq("distance", "airtime"), Seq("diverted")))))
    // Each group's count matches the group size.
    val counts = flightDf.groupBy("carrier").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    for ((k, t) <- collected) assert(t.n == counts(k).toDouble)
  }

  test("triple over TPC-H-lite lineitem matches scalar sums") {
    val li = SynthData.lineitem(spark, sf = 0.001).cache()
    val sch = CofactorSchema(Seq("l_quantity", "l_extendedprice"), Seq("l_returnflag_code"))
    val coded = li.withColumn("l_returnflag_code",
      when(col("l_returnflag") === "N", 0).when(col("l_returnflag") === "R", 1).otherwise(2))
    val t = Cofactor.triple(coded, sch)
    val r = coded.select(count(lit(1)), sum("l_quantity"),
      sum(col("l_quantity") * col("l_extendedprice"))).head()
    assert(t.n == r.getLong(0).toDouble)
    assert(math.abs(t.s(0) - r.getDouble(1)) < 1e-4)
    assert(math.abs(t.qCont(0, 1) - r.getDouble(2)) < 1e-2)
    li.unpersist()
  }

  test("a null in a continuous or categorical attribute fails, naming the attribute") {
    val rows = (1 to 100).map(i => Row(if (i == 40) null else i.toDouble, if (i == 70) null else i % 3))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2),
      StructType(Seq(StructField("y", DoubleType), StructField("c", IntegerType))))
    for ((c, other) <- Seq("y" -> "c", "c" -> "y")) {
      val holed = df.filter(col(other).isNotNull)
      val e = intercept[IllegalArgumentException](Cofactor.triple(holed, CofactorSchema(Seq("y"), Seq("c"))))
      assert(e.getMessage.contains(s"attribute $c has a null value"), e.getMessage)
    }
  }

  private def round6(v: Double): Double = math.rint(v * 1e6) / 1e6
}
