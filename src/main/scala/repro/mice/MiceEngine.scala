package repro.mice

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.ring.{DimSpec, Factorized, Stage, Triple}
import repro.util.Timing

/** Outcome of a MICE run, with the timing split the paper reports in Fig 4–6:
  * one-off preprocessing vs per-round iteration cost, plus a named phase
  * breakdown (Fig 5): `dim_partials` (collecting the dimensions; near zero
  * and no Spark job for a single table), `init_cofactor`, `train` and
  * `update`.
  */
final case class MiceResult(
    imputed: DataFrame,
    preprocessSecs: Double,
    roundSecs: Seq[Double],
    breakdown: Map[String, Double],
)

/** Which rows [[MiceEngine]] rewrites and which triples it keeps (§4). The
  * rewritten rows live in blocks; the complete rows of `ByMissing` and
  * `ByObserved` stay in a DataFrame whose triple is computed once.
  */
sealed trait Partitioning

object Partitioning {

  /** Every row is rewritten, and each target trains on a fresh triple of the
    * rows observing it (Algorithm 1).
    */
  case object None extends Partitioning

  /** By missing count (Algorithm 2): the training triple is maintained by
    * ring ±. Per target, `C_train = C − ΔC` over the rows missing it, then
    * `C = C_train + ΔC_new` once they are rewritten; only the rows missing a
    * target are aggregated.
    */
  case object ByMissing extends Partitioning

  /** By observed count (the High variant): each target trains on the
    * complete rows' triple plus a fresh triple of the incomplete rows
    * observing it, so training scans shrink as the missing rate grows.
    */
  case object ByObserved extends Partitioning
}

/** The one MICE driver. The rows it rewrites are held as one locally
  * checkpointed RDD of columnar [[Block]]s; per round and target it trains on
  * the driver from triples already in hand, then runs one fused pass — one
  * Spark job — that rewrites the target's missing cells and aggregates the
  * triples the next training needs. The round's last pass also imputes the
  * rows with every target missing.
  */
object MiceEngine {

  /** Block-column indices: of the cofactor attributes in schema order, and
    * per target its column and its slot among the continuous or categorical
    * attributes.
    */
  private final case class Layout(cont: Array[Int], cat: Array[Int], col: Array[Int],
                                  slot: Array[Int], isCont: Array[Boolean])

  /** One fused pass: rewrite target `t`'s missing cells with `models(t)`
    * (no target if `t < 0`), outside the rows missing every target; when `t`
    * is the last target, also impute those rows from `models` in target
    * order; then aggregate, per `(target, missing)` of `sel`, the rows that do
    * or do not miss that target (never rows missing every target).
    */
  private final case class Pass(t: Int, models: Array[AttrModel], seeds: Array[Long],
                                sel: Seq[(Int, Boolean)], stochastic: Boolean)

  private val HashCol = "__row_hash"

  /** Impute `schema.targets` of `df0` over a plan with `dims` (§5; none for
    * a single table). The rewritten rows are enriched with the dimension
    * attributes once. The output holds `df0`'s own columns, or only
    * `schema.dataCols` for a single table.
    */
  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig, partitioning: Partitioning,
             dims: Seq[DimSpec] = Nil, hierarchy: Seq[Stage] = Nil): MiceResult = {
    val sw = new Timing.StopWatch
    val ts = schema.targets
    val nT = ts.size
    val byMissing = partitioning == Partitioning.ByMissing
    val outCols = if (dims.isEmpty) schema.dataCols else df0.columns.toSeq
    for (t <- ts) require(Vec.imputable.contains(df0.schema(t).dataType),
      s"target $t has type ${df0.schema(t).dataType}; MICE imputes numeric columns only")

    var fixed: Option[DataFrame] = None
    var blocks: RDD[Block] = null
    var fs: MiceSchema = null
    var lay: Layout = null
    // The triple of `fixed`, and the triple the next target trains on.
    var base: Triple = null
    var cTrain: Triple = null

    /** Run `p` over `blocks` as one job; the new blocks replace them. */
    def advance(p: Pass, from: RDD[Block]): Array[Triple] = {
      val l = lay
      blocks = from.map(step(_, l, p)).localCheckpoint()
      val parts = blocks.sparkContext.runJob(blocks, (it: Iterator[Block]) => it.map(_.triples).toArray).flatten
      val cof = fs.cofactor
      p.sel.indices.map(j => parts.foldLeft(Triple.zero(cof.k, cof.l))((acc, ts) => acc.plus(ts(j)))).toArray
    }

    val (_, prepSecs) = Timing.timed {
      val plan = sw.phase("dim_partials")(Factorized.plan(df0.sparkSession, schema.cofactor, dims, hierarchy))
      fs = MiceSchema(plan.combined.cont, plan.combined.cat, ts)
      val blockCols = outCols ++ fs.dataCols.filterNot(outCols.contains)
      lay = Layout(fs.cont.map(blockCols.indexOf).toArray, fs.cat.map(blockCols.indexOf).toArray,
        ts.map(blockCols.indexOf).toArray,
        ts.map(t => if (fs.isContinuous(t)) fs.cont.indexOf(t) else fs.cat.indexOf(t)).toArray,
        ts.map(fs.isContinuous).toArray)

      val guesses = Imputation.initialGuesses(df0, schema)
      val anyMissing = ts.map(t => col(t).isNull).reduce(_ || _)
      val hashed = df0.withColumn(HashCol, xxhash64(df0.columns.toSeq.map(col): _*))
      val rewritten = plan.enrich(if (partitioning == Partitioning.None) hashed else hashed.filter(anyMissing))
        .select((blockCols :+ HashCol).map(col): _*)
      val types = blockCols.map(c => rewritten.schema(c).dataType).toArray
      val targetCols = lay.col
      val guessArr = ts.map(guesses).toArray

      sw.phase("init_cofactor") {
        base =
          if (partitioning == Partitioning.None) Triple.zero(fs.cofactor.k, fs.cofactor.l)
          else {
            val f = df0.filter(!anyMissing).select(outCols.map(col): _*).localCheckpoint(false)
            fixed = Some(f)
            plan.cofactor(f)
          }
        val built = rewritten.rdd.mapPartitions(it => Iterator(Block.build(it.toArray, types, targetCols, guessArr)))
        cTrain = advance(Pass(-1, Array.empty, Array.empty, Seq((0, false)), cfg.stochastic), built)(0).plus(base)
      }
    }

    val roundSecs = (0 until cfg.iterations).map { iter =>
      Timing.timed {
        val models = new Array[AttrModel](nT)
        val seeds = ts.map(Imputation.noiseSeed(cfg, iter, _)).toArray
        for (i <- 0 until nT) {
          models(i) = sw.phase("train")(Imputation.train(cTrain, fs, ts(i)))
          val next = (i + 1) % nT
          val sel = if (byMissing) Seq((i, true), (next, true)) else Seq((next, false))
          val pass = Pass(i, models.take(i + 1), seeds, sel, cfg.stochastic)
          val tri = sw.phase("update")(advance(pass, blocks))
          // Alg 2, l.9-10 then l.5 for the next target: C_train + ΔC_new − ΔC.
          cTrain = if (byMissing) cTrain.plus(tri(0)).minus(tri(1)) else tri(0).plus(base)
        }
      }._2
    }

    val spark = df0.sparkSession
    val outIdx = outCols.indices.toArray
    val rewrittenOut = spark.createDataFrame(blocks.flatMap(_.rows(outIdx)),
      StructType(outCols.map(df0.schema(_))))
    val out = fixed.fold(rewrittenOut)(_.unionByName(rewrittenOut))
    MiceResult(out, prepSecs, roundSecs, sw.snapshot)
  }

  /** Apply `p` to one block, copying the columns it writes. */
  private def step(b: Block, lay: Layout, p: Pass): Block = {
    val fillAll = p.t == lay.col.length - 1
    val cols = b.cols.clone()
    for (u <- lay.col.indices if u == p.t || fillAll) cols(lay.col(u)) = cols(lay.col(u)).copy()
    val cont = new Array[Double](lay.cont.length)
    val cat = new Array[Int](lay.cat.length)
    val triples = p.sel.map(_ => Triple.zero(cont.length, cat.length)).toArray
    val selMiss = p.sel.map(s => b.miss(s._1)).toArray
    val selWant = p.sel.map(_._2).toArray
    val selected = new Array[Boolean](triples.length)

    def write(u: Int, r: Int, seed: Long): Unit = {
      val noise = if (p.stochastic) Imputation.gaussian(seed, b.hash(r)) else 0.0
      val v = cols(lay.col(u))
      v.set(r, p.models(u).predict(cont, cat, noise))
      // Later models and triples read the cell as the column holds it.
      if (lay.isCont(u)) cont(lay.slot(u)) = v.double(r) else cat(lay.slot(u)) = v.int(r)
    }

    var r = 0
    while (r < b.size) {
      val all = b.allMiss.get(r)
      val rewrite = p.t >= 0 && !all && b.miss(p.t).get(r)
      val fill = all && fillAll
      var touched = rewrite || fill
      var j = 0
      while (j < selected.length) {
        selected(j) = !all && selMiss(j).get(r) == selWant(j)
        touched ||= selected(j)
        j += 1
      }
      if (touched) {
        j = 0
        while (j < cont.length) { cont(j) = cols(lay.cont(j)).double(r); j += 1 }
        j = 0
        while (j < cat.length) { cat(j) = cols(lay.cat(j)).int(r); j += 1 }
        if (rewrite) write(p.t, r, p.seeds(p.t))
        // Rows missing every target keep a noise stream of their own.
        if (fill) for (u <- lay.col.indices) write(u, r, p.seeds(u) + 7)
        j = 0
        while (j < selected.length) { if (selected(j)) triples(j).addRow(cont, cat); j += 1 }
      }
      r += 1
    }
    new Block(cols, b.nulls, b.miss, b.allMiss, b.hash, triples)
  }
}
