package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.{Flight, Missingness, Retailer}
import repro.eval.Metrics
import repro.mice._
import repro.ring.{CofactorSchema, DimSpec, Stage}

/** The inputs one workload's calls read, built (generated, cached, counted,
  * with missingness injected) by [[Workload.setup]].
  *
  * @param fact      complete fact table, the training input
  * @param marked    incomplete training split with each target's true values
  *                  in a column of their own ([[Workload.trueCol]])
  * @param miceInput `marked` without the true values, the imputation input
  * @param test      complete held-out split in the joined view, for scoring
  * @param trainView complete training split in the joined view (quality reference)
  */
final class Inputs(
    val fact: DataFrame,
    val dims: Seq[DimSpec],
    val marked: DataFrame,
    val miceInput: DataFrame,
    val miceRows: Long,
    val missingCells: Long,
    val test: DataFrame,
    val trainView: DataFrame,
    val labelSd: Double,
    val genSecs: Double,
    cached: Seq[DataFrame],
) {
  def release(): Unit = cached.foreach(_.unpersist(blocking = true))
}

/** The training rows that hold a missing cell, in the joined view: their
  * complete attributes, by which an output row is found again, and per target
  * its missing flag and true value.
  *
  * @param targetSd per continuous target, the deviation of its true values
  *                 over all training rows
  */
final class Truth(val rows: DataFrame, val count: Long, val targetSd: Map[String, Double])

/** One imputation call's outcome, with the output still referenced.
  *
  * @param view           the output in the joined view, for scoring
  * @param preprocessSecs seconds from the call until the first round began
  * @param release        frees what the benchmark itself cached for the call
  */
final case class Imputed(
    out: DataFrame,
    view: DataFrame,
    preprocessSecs: Double,
    roundSecs: Seq[Double],
    breakdown: Map[String, Double],
    release: () => Unit,
)

/** A fixed-seed workload: a dataset, a missingness rate, and the pair of
  * imputation methods it compares. `ref` is the method the paper's
  * optimisation is measured against; `opt` is the optimisation for this
  * regime.
  */
sealed trait Workload {
  def name: String
  def rows(scale: String): Long
  /** MICE rounds per imputation call. */
  def rounds: Int
  /** Factorized training calls per cycle; short ones are repeated. */
  def factorizedTrains: Int
  def refMethod: String
  def optMethod: String
  def rate: Double
  def label: String
  /** MICE layout of [[Inputs.miceInput]]. */
  def schema: MiceSchema
  def factSchema: CofactorSchema
  /** Factorized evaluation order of the training call. */
  def hierarchy: Seq[Stage]
  def ringShape: RingShape

  def generate(spark: SparkSession, rows: Long, seed: Long): (DataFrame, Seq[DimSpec])

  /** The table that is split into training and held-out rows. */
  def splitBase(fact: DataFrame, dims: Seq[DimSpec]): DataFrame

  def runRef(in: Inputs, cfg: MiceConfig): Imputed
  def runOpt(in: Inputs, cfg: MiceConfig): Imputed

  /** Rows shaped like [[Inputs.miceInput]] in the joined view the downstream
    * model reads.
    */
  def view(miceRows: DataFrame, dims: Seq[DimSpec]): DataFrame

  def combined(dims: Seq[DimSpec]): CofactorSchema = dims.map(_.schema).foldLeft(factSchema)(_ ++ _)

  /** Attributes of the joined view that no target is among: an output row
    * keeps them as they were, so they identify it.
    */
  def completeAttrs(dims: Seq[DimSpec]): Seq[String] = {
    val all = combined(dims)
    (all.cont ++ all.cat).filterNot(schema.targets.contains)
  }

  def contTargets(dims: Seq[DimSpec]): Seq[String] = schema.targets.filter(combined(dims).cont.contains)

  /** Generate, cache and count the inputs; inject missingness. */
  def setup(spark: SparkSession, rows: Long, seed: Long): Inputs = {
    val t0 = System.nanoTime()
    val (fact, dims) = generate(spark, rows, seed)
    val gen = Seq(fact) ++ dims.map(_.df)
    gen.foreach(_.cache().count())
    val genSecs = (System.nanoTime() - t0) / 1e9
    val base = splitBase(fact, dims).cache()
    val (train, testRows) = Metrics.split(base, testFraction = 0.2, seed + 61)
    // Each target's true value rides along in its own column; MCAR nulls
    // the target only.
    val trueCols = schema.targets.map(Workload.trueCol)
    val marked = schema.targets.foldLeft(train)((d, t) => d.withColumn(Workload.trueCol(t), col(t)))
    val holeyMarked = Missingness.mcar(marked, schema.targets, rate, seed + 71).cache()
    val test = view(testRows, dims).cache()
    val miceRows = holeyMarked.count()
    test.count()
    val missing = holeyMarked.select(schema.targets.map(t => sum(col(t).isNull.cast("long"))): _*).head()
    val missingCells = schema.targets.indices.map(missing.getLong).sum
    val labelSd = math.sqrt(test.select(var_pop(col(label))).head().getDouble(0))
    new Inputs(fact, dims, holeyMarked, holeyMarked.drop(trueCols: _*), miceRows, missingCells, test,
      view(train, dims), labelSd, genSecs, gen ++ Seq(base, holeyMarked, test))
  }

  /** The rows of `in` with a missing cell, cached. Their complete attributes
    * are unique among the training rows (generated doubles; Retailer's keys
    * are made unique), so each is found again exactly once in an output.
    */
  def truth(in: Inputs): Truth = {
    val key = completeAttrs(in.dims)
    val rows = view(in.marked, in.dims).filter(schema.targets.map(t => col(t).isNull).reduce(_ || _))
      .select(key.map(col) ++ schema.targets.flatMap(t =>
        Seq(col(t).isNull.as(Workload.missCol(t)), col(Workload.trueCol(t)))): _*)
      .cache()
    val cts = contTargets(in.dims)
    val sds = in.marked.select(cts.map(t => stddev_pop(col(Workload.trueCol(t)))): _*).head()
    new Truth(rows, rows.count(), cts.indices.map(i => cts(i) -> sds.getDouble(i)).toMap)
  }

  protected def imputed(r: MiceResult, dims: Seq[DimSpec]): Imputed =
    Imputed(r.imputed, view(r.imputed, dims), r.preprocessSecs, r.roundSecs, r.breakdown, () => ())
}

object Workload {
  val all: Seq[Workload] = Seq(FlightWorkload, RetailerWorkload)

  /** Column holding the true value of target `t` next to the holey one. */
  def trueCol(t: String): String = s"__true_$t"
  def missCol(t: String): String = s"__missing_$t"

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Join `df` to every dimension on its keys. */
  def joinDims(df: DataFrame, dims: Seq[DimSpec]): DataFrame =
    dims.foldLeft(df) { (acc, d) =>
      acc.join(d.df.select((d.keys ++ d.schema.cont ++ d.schema.cat).map(col): _*), d.keys)
    }
}

/** Flight joined table (12 continuous + 4 categorical attributes) with its 7
  * incomplete attributes at 5% MCAR; Baseline against Low.
  */
object FlightWorkload extends Workload {
  val name = "flight_mcar05"
  val rate = 0.05
  def rows(scale: String): Long = if (scale == "tiny") 2000L else 15000L
  val rounds = 2
  // Short calls, and the first of a cycle runs about twice as long as the
  // rest: more samples keep the median on the steady ones.
  val factorizedTrains = 4
  val refMethod = "baseline"
  val optMethod = "low"
  val label = "airtime"
  val schema: MiceSchema = MiceSchema(Flight.JoinedCont, Flight.JoinedCat, Flight.IncompleteAttrs)
  val factSchema: CofactorSchema = CofactorSchema(
    Seq("distance", "airtime", "depdelay", "arrdelay", "taxiout", "taxiin", "elapsed"),
    Seq("diverted", "longhaul"))
  val hierarchy: Seq[Stage] = Seq(Stage(Seq("carriers"), Seq("origin_id")), Stage(Seq("airports"), Nil))
  val ringShape: RingShape = RingShape(Rel(7, Seq(2, 2)), Seq(Rel(3, Seq(4)), Rel(2, Seq(3))))

  def generate(spark: SparkSession, rows: Long, seed: Long): (DataFrame, Seq[DimSpec]) = {
    val fact = Flight.flights(spark, rows, seed)
    val airports = Flight.airports(spark, seed + 900)
      .toDF("origin_id", "o_lat", "o_lon", "o_elev", "o_region")
    val carriers = Flight.carriers(spark, seed + 901)
    (fact, Seq(
      DimSpec("airports", airports, Seq("origin_id"),
        CofactorSchema(Seq("o_lat", "o_lon", "o_elev"), Seq("o_region"))),
      DimSpec("carriers", carriers, Seq("carrier_id"),
        CofactorSchema(Seq("cr_speed", "cr_avg_age"), Seq("cr_alliance")))))
  }

  // Imputation runs over the joined table; hold out complete joined rows.
  def splitBase(fact: DataFrame, dims: Seq[DimSpec]): DataFrame = Workload.joinDims(fact, dims)

  def runRef(in: Inputs, cfg: MiceConfig): Imputed =
    imputed(MiceBaseline.impute(in.miceInput, schema, cfg), in.dims)

  def runOpt(in: Inputs, cfg: MiceConfig): Imputed =
    imputed(MiceLow.impute(in.miceInput, schema, cfg), in.dims)

  def view(miceRows: DataFrame, dims: Seq[DimSpec]): DataFrame = miceRows
}

/** Retailer snowflake kept normalized (inventory ⋈ location⋈census, item,
  * weather), 20% MCAR on `inventoryunits`; Low over the materialized join
  * against factorized MICE in the Fig 6 hierarchical order.
  */
object RetailerWorkload extends Workload {
  val name = "retailer_star20"
  def rows(scale: String): Long = if (scale == "tiny") 2000L else 30000L
  val rounds = 3
  val factorizedTrains = 1
  val rate = 0.20
  val refMethod = "materialized"
  val optMethod = "factorized"
  val label = "inventoryunits"
  val schema: MiceSchema = MiceSchema(Seq("inventoryunits"), Nil, Seq("inventoryunits"))
  val factSchema: CofactorSchema = CofactorSchema(Seq("inventoryunits"), Nil)
  val hierarchy: Seq[Stage] = Seq(
    Stage(Seq("item"), Seq("locn", "dateid")), Stage(Seq("weather"), Seq("locn")),
    Stage(Seq("loc_census"), Nil))
  val ringShape: RingShape =
    RingShape(Rel(1, Nil), Seq(Rel(4, Seq(5, 3)), Rel(1, Seq(8, 4)), Rel(2, Seq(2, 2))))

  def generate(spark: SparkSession, rows: Long, seed: Long): (DataFrame, Seq[DimSpec]) = {
    // A fact row is found again in an imputed output by its dimension
    // attributes, so its key must be unique.
    val fact = Retailer.inventory(spark, rows, seed).dropDuplicates("locn", "dateid", "ksn")
    val loc = Retailer.location(spark, seed + 901).join(Retailer.census(spark, seed + 902), "zip")
    val item = Retailer.item(spark, seed + 903)
    val weather = Retailer.weather(spark, seed + 904)
    (fact, Seq(
      DimSpec("loc_census", loc, Seq("locn"),
        CofactorSchema(Seq("rgn_sales_idx", "population", "medianage", "income"),
          Seq("clim_zone", "urbanicity"))),
      DimSpec("item", item, Seq("ksn"), CofactorSchema(Seq("price"), Seq("category", "subcategory"))),
      DimSpec("weather", weather, Seq("locn", "dateid"),
        CofactorSchema(Seq("maxtemp", "mintemp"), Seq("rain", "snow")))))
  }

  // Missingness lives in the fact table only, so both methods impute the
  // same cells; the held-out split is of fact rows.
  def splitBase(fact: DataFrame, dims: Seq[DimSpec]): DataFrame = fact

  def runRef(in: Inputs, cfg: MiceConfig): Imputed = {
    val t0 = System.nanoTime()
    val joined = Workload.joinDims(in.miceInput, in.dims).cache()
    joined.count()
    val joinSecs = (System.nanoTime() - t0) / 1e9
    val all = combined(in.dims)
    val r = MiceLow.impute(joined, MiceSchema(all.cont, all.cat, schema.targets), cfg)
    Imputed(r.imputed, r.imputed, joinSecs + r.preprocessSecs, r.roundSecs, r.breakdown,
      () => joined.unpersist(blocking = true))
  }

  def runOpt(in: Inputs, cfg: MiceConfig): Imputed =
    imputed(FactorizedMice.impute(in.miceInput, schema, in.dims, cfg, hierarchy), in.dims)

  def view(miceRows: DataFrame, dims: Seq[DimSpec]): DataFrame = Workload.joinDims(miceRows, dims)
}
