package repro.ring

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders}
import org.apache.spark.sql.functions._

/** A dimension table in a star/snowflake schema, joined to the fact table N:1
  * on `keys` (column names shared between fact and dimension — rename
  * upstream if needed).
  */
final case class DimSpec(name: String, df: DataFrame, keys: Seq[String], schema: CofactorSchema)

/** One level of a factorized evaluation order: multiply the named dimensions
  * into the current partial triples (each dimension's keys must be available
  * at this level), then re-group by `nextKeys` (empty = final global sum).
  */
final case class Stage(dimNames: Seq[String], nextKeys: Seq[String])

/** Factorized evaluation of the cofactor aggregate over joins (§5.1): partial
  * triples are aggregated per join key *inside* each dimension once — pushing
  * the ring SUM past the join, exploiting distributivity of *ᴿ over +ᴿ — and
  * the fact side is reduced level-by-level along a variable order
  * ([[Stage]]s): fact records collapse into per-key groups *before* the wide
  * dimensions are multiplied in, so a dimension's attributes are touched once
  * per key group rather than once per fact row. The wide join result is never
  * materialized.
  *
  * Dimension partials are collected and broadcast — dimensions are small
  * relative to the fact table (the regime where factorization wins, §6.1).
  */
object Factorized {

  /** Per-key partial triples of one dimension, as a broadcast-ready map. */
  def partials(dim: DimSpec): Map[Seq[Long], Triple] = {
    val parts = Cofactor.partialTriples(dim.df, dim.keys, dim.schema)
    val keyCols = dim.keys.map(k => col(k).cast("long"))
    parts.select((keyCols :+ col("__triple")): _*).collect().map { r =>
      val key = dim.keys.indices.map(r.getLong(_))
      key -> Triple.fromBytes(r.getAs[Array[Byte]](dim.keys.size))
    }.toMap
  }

  /** Precomputed state for repeated factorized aggregations over the same
    * dimensions (MICE recomputes fact-side deltas every round; the dimensions
    * are complete and never change, so their partials are built once).
    */
  final class Plan(
      val factSchema: CofactorSchema,
      orderedDims: Seq[DimSpec],
      stages: Seq[Stage],
      bcasts: Map[String, Broadcast[Map[Seq[Long], Triple]]],
  ) extends Serializable {

    /** All dimensions, in multiplication (= attribute) order. */
    val dims: Seq[DimSpec] = orderedDims

    /** Combined attribute layout: fact attrs first, then dims in stage order. */
    val combined: CofactorSchema = orderedDims.map(_.schema).foldLeft(factSchema)(_ ++ _)

    private val allKeys: Seq[String] = orderedDims.flatMap(_.keys).distinct

    /** Factorized cofactor triple of a fact-side subset.
      *
      * @param hierarchical follow the staged evaluation order (best for large
      *        fact sides: wide dims multiply once per key group). For small
      *        subsets — MICE's per-round deltas — the flat single-stage path
      *        avoids the group shuffles; pass `hierarchical = false` there.
      *        Both produce the same triple in the same attribute order.
      */
    def cofactor(factPart: DataFrame, hierarchical: Boolean = true): Triple = {
      implicit val tripleEnc: Encoder[Triple] = Encoders.javaSerialization[Triple]
      implicit val ktEnc: Encoder[(String, Triple)] =
        Encoders.tuple(Encoders.STRING, tripleEnc)
      implicit val rowEnc: Encoder[(Array[Double], Array[Int], Array[Long])] =
        Encoders.tuple(ExprEncoders.doubleArray, ExprEncoders.intArray, ExprEncoders.longArray)

      val (c, d) = Cofactor.inputCols(factSchema)
      val keyCols = array(allKeys.map(col(_).cast("long")): _*)
      val ds = factPart.select(c.as("c"), d.as("d"), keyCols.as("ks"))
        .as[(Array[Double], Array[Int], Array[Long])]

      // Stage 0: lift each fact record, multiply this level's dims per row,
      // and pre-aggregate into groups keyed by the stage's nextKeys.
      // (In flat mode every dim multiplies per row and the grouping collapses
      // to a single global buffer — no shuffle of partial triples.)
      val s0 = if (hierarchical) stages.head else Stage(orderedDims.map(_.name), Nil)
      val laterStages = if (hierarchical) stages.tail else Nil
      val s0dims = s0.dimNames.map(n => orderedDims.find(_.name == n).get)
      val s0keyIdx = s0dims.map(_.keys.map(allKeys.indexOf).toArray).toArray
      val s0arity = s0dims.map(dm => (dm.schema.k, dm.schema.l)).toArray
      val s0maps = s0dims.map(dm => bcasts(dm.name)).toArray
      val nextIdx0 = s0.nextKeys.map(allKeys.indexOf).toArray
      val kf = factSchema.k; val lf = factSchema.l
      val arity0 = s0dims.map(_.schema).foldLeft(factSchema)(_ ++ _)
      val (k0, l0) = (arity0.k, arity0.l)

      def liftTimesStage0(row: (Array[Double], Array[Int], Array[Long])): Triple = {
        var t = Triple.lift(kf, lf, row._1, row._2)
        var i = 0
        while (i < s0maps.length) {
          val key: Seq[Long] = s0keyIdx(i).map(row._3(_)).toSeq
          t = t.times(s0maps(i).value.getOrElse(key, Triple.one(s0arity(i)._1, s0arity(i)._2)))
          i += 1
        }
        t
      }

      var cur: Dataset[(String, Triple)] =
        if (nextIdx0.isEmpty) {
          // No grouping: one global typed aggregation (partial per partition,
          // no sort, no per-group buffer shuffling) — the flat fast path.
          val agg = new TripleAggregator[(Array[Double], Array[Int], Array[Long])](k0, l0)(
            (b, row) => b.plus(liftTimesStage0(row)))
          ds.select(agg.toColumn).map(t => ("", t))
        } else {
          // Grouped: colocate rows by group key with one compact-row shuffle,
          // then aggregate each partition's groups in a local hash map —
          // avoiding Catalyst's sort-aggregate over opaque typed buffers.
          val rdd = ds.rdd
            .map(row => (nextIdx0.map(row._3(_)).mkString(":"), row))
            .partitionBy(new org.apache.spark.HashPartitioner(
              factPart.sparkSession.sparkContext.defaultParallelism))
            .mapPartitions { it =>
              val acc = scala.collection.mutable.HashMap.empty[String, Triple]
              for ((key, row) <- it)
                acc.getOrElseUpdate(key, Triple.zero(k0, l0)).plus(liftTimesStage0(row))
              acc.iterator
            }
          factPart.sparkSession.createDataset(rdd)(ktEnc)
        }
      var curKeys: Seq[String] = s0.nextKeys

      // Later stages: multiply in this level's dims (one lookup per *group*),
      // then re-group by the next key set.
      for (stage <- laterStages) {
        val sdims = stage.dimNames.map(n => orderedDims.find(_.name == n).get)
        val keyIdx = sdims.map(_.keys.map(curKeys.indexOf).toArray).toArray
        require(keyIdx.forall(_.forall(_ >= 0)),
          s"stage dims ${stage.dimNames} need keys within $curKeys")
        val arity = sdims.map(dm => (dm.schema.k, dm.schema.l)).toArray
        val maps = sdims.map(dm => bcasts(dm.name)).toArray
        val nextIdx = stage.nextKeys.map(curKeys.indexOf).toArray
        require(nextIdx.forall(_ >= 0), s"nextKeys ${stage.nextKeys} must be within $curKeys")

        val mult: Dataset[(String, Triple)] = cur.map { case (keyStr, t0) =>
          val keyVals = if (keyStr.isEmpty) Array.empty[Long] else keyStr.split(':').map(_.toLong)
          var t = t0
          var i = 0
          while (i < maps.length) {
            val key: Seq[Long] = keyIdx(i).map(keyVals(_)).toSeq
            t = t.times(maps(i).value.getOrElse(key, Triple.one(arity(i)._1, arity(i)._2)))
            i += 1
          }
          (nextIdx.map(keyVals(_)).mkString(":"), t)
        }
        cur = mult.groupByKey(_._1)(Encoders.STRING)
          .reduceGroups((a, b) => (a._1, a._2.plus(b._2)))
          .map(_._2)
        curKeys = stage.nextKeys
      }
      require(curKeys.isEmpty, "the last stage must group down to a single global triple")
      val out = cur.collect()
      if (out.isEmpty) Triple.zero(combined.k, combined.l)
      else out.map(_._2).reduce(_.plus(_))
    }

    /** Enrich a fact-side subset with all dimension attribute columns (used to
      * build prediction features for missing rows — small joins only).
      */
    def enrich(factPart: DataFrame): DataFrame =
      orderedDims.foldLeft(factPart) { (acc, dim) =>
        // Broadcast the (small) dimension — the DB analogue of an indexed
        // N:1 lookup; the global broadcast kill-switch in tests would force a
        // full shuffle for every per-round prediction otherwise.
        acc.join(broadcast(dim.df.select((dim.keys ++ dim.schema.cont ++ dim.schema.cat).map(col): _*)),
          dim.keys)
      }
  }

  /** Build a [[Plan]]. `hierarchy` gives the evaluation order; by default all
    * dimensions multiply at stage 0 (per fact row) and everything sums to one
    * group — correct for any schema, but without group-level sharing. Passing
    * a real hierarchy (e.g. narrow dims at stage 0, wide dims at coarser
    * levels) is what makes factorization pay off on dim-heavy schemas.
    *
    * The combined attribute order follows the stage order, i.e.
    * `fact ++ stages.flatMap(dims)`.
    */
  def plan(spark: org.apache.spark.sql.SparkSession, factSchema: CofactorSchema,
           dims: Seq[DimSpec], hierarchy: Seq[Stage] = Nil): Plan = {
    val stages = if (hierarchy.nonEmpty) hierarchy else Seq(Stage(dims.map(_.name), Nil))
    val stageNames = stages.flatMap(_.dimNames)
    require(stageNames.sorted == dims.map(_.name).sorted,
      s"hierarchy must cover every dim exactly once: $stageNames vs ${dims.map(_.name)}")
    require(stages.last.nextKeys.isEmpty, "the final stage must have no nextKeys")
    val ordered = stageNames.map(n => dims.find(_.name == n).get)
    val bcasts = dims.map(d => d.name -> spark.sparkContext.broadcast(partials(d))).toMap
    new Plan(factSchema, ordered, stages, bcasts)
  }
}
