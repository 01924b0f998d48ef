package repro.mice

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ring.{Cofactor, DimSpec, Stage, Triple}
import repro.util.Timing

/** Outcome of a MICE run, with the timing split the paper reports in Fig 4–6:
  * one-off preprocessing vs per-round iteration cost, plus a named phase
  * breakdown (Fig 5).
  */
final case class MiceResult(
    imputed: DataFrame,
    preprocessSecs: Double,
    roundSecs: Seq[Double],
    breakdown: Map[String, Double],
)

/** How [[MiceEngine]] splits the rows (§4). Partitions that cannot hold rows
  * for the given number of targets are not created.
  */
sealed trait Partitioning

object Partitioning {

  /** The whole table, rescanned for every target (Algorithm 1). */
  case object None extends Partitioning

  /** By missing count (Algorithm 2): `p0` (none missing) is folded into the
    * global cofactor C once; `p1(t)` (only `t` missing) is rewritten for `t`
    * alone; `p2` (≥2 but not all missing, ≥3 targets) for every target;
    * `pAll` (all missing, ≥2 targets) is never trained on. Per target,
    * `C_train = C − ΔC` over the rows about to be re-imputed, then
    * `C = C_train + ΔC_new`.
    */
  case object ByMissing extends Partitioning

  /** By observed count (the High variant): the triple of the complete rows is
    * computed once; the rows with ≥1 but not all targets observed (≥2
    * targets) are scanned with `!mask_t` for each target, so training scans
    * shrink as the missing rate grows.
    */
  case object ByObserved extends Partitioning
}

/** Where [[MiceEngine]]'s cofactor triples come from. */
sealed trait Backend

object Backend {

  /** `Cofactor.triple` over the table's own rows. */
  case object Flat extends Backend

  /** The table is the fact side of a join (§5): triples come from a
    * [[repro.ring.Factorized.Plan]] over `dims` — hierarchical for the initial
    * triples, flat for the small per-round ones — and models predict from
    * rows enriched with the dimension attributes.
    */
  final case class Factorized(dims: Seq[DimSpec], hierarchy: Seq[Stage]) extends Backend
}

/** The one MICE driver: masks, initial imputation, the partitions of a
  * [[Partitioning]]; per round and target, train off a [[Backend]] triple and
  * impute the missing cells; then impute the rows with every target missing.
  */
object MiceEngine {

  /** An opened [[Backend]]: training layout, triple of a partition (`delta`:
    * a small per-round one), prediction features, output columns.
    */
  private final case class Source(
      schema: MiceSchema,
      triple: (DataFrame, Boolean) => Triple,
      enrich: DataFrame => DataFrame,
      outCols: Seq[String],
  )

  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig,
             partitioning: Partitioning, backend: Backend = Backend.Flat): MiceResult = {
    val sw = new Timing.StopWatch
    val ts = schema.targets
    val nT = ts.size
    val byMissing = partitioning == Partitioning.ByMissing

    // `own(t)` is rewritten only for target t, `shared` for every target,
    // `fixed` never, `allMissing` at the end of each round.
    var fixed: Option[DataFrame] = None
    var own = Map.empty[String, DataFrame]
    var shared: Option[DataFrame] = None
    var allMissing: Option[DataFrame] = None
    // ByMissing: C over all rows, ownC(t) the share of own(t) in it.
    // ByObserved: the triple of `fixed`.
    var c: Triple = null
    var ownC = Map.empty[String, Triple]
    var src: Source = null

    val (_, prepSecs) = Timing.timed {
      val masked = Imputation.addMasks(df0, schema)
      val init = Imputation.initImpute(masked, schema, Imputation.initialGuesses(masked, schema))
      if (partitioning == Partitioning.None) shared = Some(init.localCheckpoint(true))
      else {
        val counted = init.withColumn("__nmiss", Imputation.missCount(schema)).localCheckpoint(true)
        val n = col("__nmiss")
        def part(cond: Column): DataFrame = counted.filter(cond).localCheckpoint(true)
        fixed = Some(part(n === 0))
        // With one target, ByMissing's p1(t) already holds the rows missing it.
        if (nT >= 2 || !byMissing) allMissing = Some(part(n === nT))
        if (byMissing) {
          own = ts.map(t => t -> part(n === 1 && col(schema.maskCol(t)))).toMap
          if (nT >= 3) shared = Some(part(n >= 2 && n < nT))
        } else if (nT >= 2) shared = Some(part(n > 0 && n < nT))
      }

      src = backend match {
        case Backend.Flat =>
          Source(schema, (df, _) => Cofactor.triple(df, schema.cofactor), identity, schema.dataCols)
        case Backend.Factorized(dims, hierarchy) =>
          val plan = sw.phase("dim_partials") {
            repro.ring.Factorized.plan(df0.sparkSession, schema.cofactor, dims, hierarchy)
          }
          Source(MiceSchema(plan.combined.cont, plan.combined.cat, ts),
            (df, delta) => plan.cofactor(df, hierarchical = !delta), plan.enrich, df0.columns.toSeq)
      }

      if (partitioning != Partitioning.None) sw.phase("init_cofactor") {
        c = src.triple(fixed.get, false)
        if (byMissing) {
          ownC = ts.map(t => t -> src.triple(own(t), false)).toMap
          for (t <- ts) c.plus(ownC(t))
          shared.foreach(p => c.plus(src.triple(p, false)))
        }
      }
    }

    val roundSecs = (0 until cfg.iterations).map { iter =>
      Timing.timed {
        val models = mutable.LinkedHashMap.empty[String, AttrModel]
        for (t <- ts) {
          val mask = col(schema.maskCol(t))
          val cTrain =
            if (byMissing) {
              // ΔC: contribution of the rows about to be re-imputed (Alg 2, l.5).
              val d2 = shared.map(p => sw.phase("delta_cofactor")(src.triple(p.filter(mask), true)))
              d2.foldLeft(c.copyTriple().minus(ownC(t)))(_.minus(_))
            } else sw.phase("cofactor") {
              val scanned = shared.map(p => src.triple(p.filter(!mask), partitioning == Partitioning.ByObserved))
              (Option(c).map(_.copyTriple()) ++ scanned).reduce(_.plus(_))
            }
          val model = sw.phase("train")(Imputation.train(cTrain, src.schema, t, cfg))
          models.update(t, model)
          val pred = model.predictColumn(cfg.stochastic, Imputation.noiseSeed(cfg, iter, t))
          def rewrite(p: DataFrame) = Imputation.updateWhereMasked(p, schema, t, pred, src.enrich)
          sw.phase("update") {
            own.get(t).foreach(p => own = own.updated(t, rewrite(p)))
            shared = shared.map(rewrite)
          }
          // ΔC_new: re-add the rewritten rows (Alg 2, l.9-10).
          if (byMissing) sw.phase("delta_cofactor") {
            ownC = ownC.updated(t, src.triple(own(t), true))
            c = cTrain.plus(ownC(t))
            shared.foreach(p => c.plus(src.triple(p.filter(mask), true)))
          }
        }
        // Rows with every target missing: imputed from this round's models only.
        allMissing = allMissing.map { p =>
          if (p.isEmpty) p
          else sw.phase("update") {
            models.foldLeft(src.enrich(p)) { case (d, (t, model)) =>
              val pred = model.predictColumn(cfg.stochastic, Imputation.noiseSeed(cfg, iter, t) + 7)
              d.withColumn(t, pred.cast(p.schema(t).dataType))
            }.select(p.columns.toSeq.map(col): _*).localCheckpoint(true)
          }
        }
      }._2
    }

    val out = (fixed.toSeq ++ shared ++ allMissing ++ ts.flatMap(own.get))
      .map(_.select(src.outCols.map(col): _*))
      .reduce(_.unionByName(_))
    MiceResult(out, prepSecs, roundSecs, sw.snapshot)
  }
}
