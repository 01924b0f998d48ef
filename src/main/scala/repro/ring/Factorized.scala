package repro.ring

import scala.collection.mutable
import org.apache.spark.SparkException
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ByteType, IntegerType, LongType, ShortType}

/** A dimension table in a star/snowflake schema, joined to the fact table N:1
  * on `keys` (column names shared between fact and dimension — rename
  * upstream if needed).
  */
final case class DimSpec(name: String, df: DataFrame, keys: Seq[String], schema: CofactorSchema)

object DimSpec {

  /** `factPart` joined to each of `dims` in turn on its keys, taking the
    * dimension's keys and attributes (a join hint on a dimension's `df` holds).
    */
  def join(factPart: DataFrame, dims: Seq[DimSpec]): DataFrame =
    dims.foldLeft(factPart) { (acc, d) =>
      acc.join(d.df.select((d.keys ++ d.schema.cont ++ d.schema.cat).map(col): _*), d.keys)
    }
}

/** One level of a factorized evaluation order: multiply the named dimensions
  * into the current partial triples (each dimension's keys must be available
  * at this level), then re-group by `nextKeys` (empty = final global sum).
  */
final case class Stage(dimNames: Seq[String], nextKeys: Seq[String])

/** Factorized evaluation of the cofactor aggregate over joins (§5.1): the
  * ring SUM is pushed past the joins along a variable order ([[Stage]]s), so
  * the wide join result is never materialized.
  *
  * Every dimension joins N:1, so its partial triple for a key is just the
  * lift of its one row. A [[Plan]] therefore collects each dimension once as
  * primitive columns with a packed-key index and broadcasts them —
  * dimensions are small relative to the fact table (the regime where
  * factorization wins, §6.1). [[Plan.cofactor]] is then one shuffle-free
  * Spark job: each partition appends its fact rows' stage-0 dimension rows
  * and adds them into per-key groups, multiplies each group once by the lift
  * of its later dimensions' rows, and returns one triple. A group split over
  * partitions is multiplied once per partition, which distributivity of *ᴿ
  * over +ᴿ makes exact. As with the join, a fact row whose key has no
  * dimension row is dropped.
  */
object Factorized {

  /** Packs the values of the key columns `cols` (indices into a row's key
    * values and into `lo` and `span`) into one non-negative Long, exactly:
    * column c's value is offset by `lo(c)` and takes the bits its range
    * `lo(c) .. lo(c) + span(c)` needs. Fails, naming `owner` and the column,
    * when the columns need more than 63 bits together.
    */
  private final class KeyPacker(owner: String, names: Seq[String], cols: Array[Int],
                                lo: Array[Long], span: Array[Long]) extends Serializable {
    private val bits = cols.map(c => 64 - java.lang.Long.numberOfLeadingZeros(span(c)))
    for (i <- cols.indices) require(bits.take(i + 1).sum <= 63,
      s"$owner: key column ${names(cols(i))} does not fit a packed key: key columns " +
        s"${cols.take(i + 1).map(names).mkString(", ")} need ${bits.take(i + 1).sum} bits, more than 63")

    /** The packed key values `ks`, or -1 if one is out of its column's range. */
    def pack(ks: Array[Long]): Long = {
      var p = 0L
      var i = 0
      while (i < cols.length) {
        val v = ks(cols(i)) - lo(cols(i))
        if (java.lang.Long.compareUnsigned(v, span(cols(i))) > 0) return -1L
        p = (p << bits(i)) | v
        i += 1
      }
      p
    }
  }

  /** One dimension's rows as primitive arrays, and the index from a packed
    * key to its row.
    */
  private final class DimRows(val k: Int, val l: Int, val cont: Array[Array[Double]], val cat: Array[Array[Int]],
                              key: KeyPacker, index: mutable.LongMap[Int]) extends Serializable {

    /** The row joining the key values `ks`, or -1. */
    def rowOf(ks: Array[Long]): Int = index.getOrElse(key.pack(ks), -1)
  }

  /** Fails unless the `keys` of `df` are integral, so that each key value
    * packs exactly and never aliases another.
    */
  private def requireIntegralKeys(owner: String, df: DataFrame, keys: Seq[String]): Unit =
    for (c <- keys; dt = df.schema(c).dataType)
      require(Seq(ByteType, ShortType, IntegerType, LongType).contains(dt),
        s"$owner: key column $c has type $dt; join keys must be integral")

  /** One compiled [[Stage]]: the dimensions it multiplies in (indices into
    * the plan's dimensions) and the packer of the keys it groups by next.
    */
  private final case class Step(dims: Array[Int], next: KeyPacker)

  /** Evaluate `steps` over one partition of fact rows (fact continuous,
    * fact categorical, then key columns); at most one triple comes out.
    * Fails, naming the attribute, on a null in a fact attribute of a row that
    * joins.
    */
  private def evaluate(rows: Iterator[Row], fact: CofactorSchema, nKeys: Int,
                       dims: Array[DimRows], steps: Array[Step]): Iterator[Triple] = {
    val (kf, lf) = (fact.k, fact.l)
    val s0 = steps.head.dims
    val k0 = kf + s0.map(dims(_).k).sum
    val l0 = lf + s0.map(dims(_).l).sum
    val cont = new Array[Double](k0)
    val cat = new Array[Int](l0)
    val ks = new Array[Long](nKeys)
    val at = new Array[Int](dims.length)
    // Per group: its key values and its triple.
    var groups = new mutable.LongMap[(Array[Long], Triple)]

    def joins(r: Row): Boolean = {
      var i = 0
      while (i < nKeys) {
        if (r.isNullAt(kf + lf + i)) return false
        ks(i) = r.getLong(kf + lf + i)
        i += 1
      }
      // Inner-join semantics: every dimension must hold the row's key.
      i = 0
      while (i < dims.length) { at(i) = dims(i).rowOf(ks); if (at(i) < 0) return false; i += 1 }
      true
    }

    def nullAt(i: Int): Nothing = throw new IllegalArgumentException(
      s"fact: attribute ${if (i < kf) fact.cont(i) else fact.cat(i - kf)} has a null value; " +
        "fact attributes must be complete")

    for (r <- rows if joins(r)) {
      var i = 0
      while (i < kf) { if (r.isNullAt(i)) nullAt(i); cont(i) = r.getDouble(i); i += 1 }
      i = 0
      while (i < lf) { if (r.isNullAt(kf + i)) nullAt(kf + i); cat(i) = r.getInt(kf + i); i += 1 }
      var c = kf
      var d = lf
      i = 0
      while (i < s0.length) {
        val dm = dims(s0(i))
        System.arraycopy(dm.cont(at(s0(i))), 0, cont, c, dm.k)
        System.arraycopy(dm.cat(at(s0(i))), 0, cat, d, dm.l)
        c += dm.k; d += dm.l; i += 1
      }
      val g = steps.head.next.pack(ks)
      var grp = groups.getOrNull(g)
      if (grp == null) { grp = (ks.clone(), Triple.zero(k0, l0)); groups(g) = grp }
      grp._2.addRow(cont, cat)
    }

    // Later stages: multiply each group once by the lift of its dimension
    // rows, then re-key it.
    for (step <- steps.tail) {
      val sdims = step.dims.map(dims(_))
      val next = new mutable.LongMap[(Array[Long], Triple)]
      groups.foreachValue { case (gks, t0) =>
        val rs = sdims.map(_.rowOf(gks))
        val dc = Array.concat(sdims.indices.map(i => sdims(i).cont(rs(i))): _*)
        val dd = Array.concat(sdims.indices.map(i => sdims(i).cat(rs(i))): _*)
        val t = t0.times(Triple.lift(dc.length, dd.length, dc, dd))
        val g = step.next.pack(gks)
        val into = next.getOrNull(g)
        if (into == null) next(g) = (gks, t) else into._2.plus(t)
      }
      groups = next
    }
    groups.valuesIterator.map(_._2)
  }

  /** Precomputed state for repeated factorized aggregations over the same
    * dimensions (MICE aggregates fact-side subsets; the dimensions are
    * complete and never change, so they are collected once).
    *
    * @param dims all dimensions, in multiplication (= attribute) order
    */
  final class Plan private[Factorized] (
      val factSchema: CofactorSchema,
      val dims: Seq[DimSpec],
      stages: Seq[Stage],
      allKeys: Seq[String],
      rows: org.apache.spark.broadcast.Broadcast[Array[DimRows]],
      keyLo: Array[Long],
      keySpan: Array[Long],
  ) {

    /** Combined attribute layout: fact attrs first, then dims in stage order. */
    val combined: CofactorSchema = dims.map(_.schema).foldLeft(factSchema)(_ ++ _)

    /** Factorized cofactor triple of a fact-side subset, in one Spark job.
      * Fails with an `IllegalArgumentException` naming the attribute when a
      * fact attribute of a joining row holds a null.
      *
      * @param hierarchical follow the staged evaluation order (wide dims
      *        multiply once per key group). With `false` every dimension
      *        multiplies in per fact row, which suits small subsets. Both
      *        produce the same triple in the same attribute order.
      */
    def cofactor(factPart: DataFrame, hierarchical: Boolean = true): Triple = {
      val order = if (hierarchical) stages else Seq(Stage(dims.map(_.name), Nil))
      var avail = allKeys
      val steps = order.map { stage =>
        val ix = stage.dimNames.map(n => dims.indexWhere(_.name == n))
        require(ix.forall(dims(_).keys.forall(avail.contains)),
          s"stage dims ${stage.dimNames} need keys within $avail")
        require(stage.nextKeys.forall(avail.contains), s"nextKeys ${stage.nextKeys} must be within $avail")
        avail = stage.nextKeys
        Step(ix.toArray, new KeyPacker(s"stage ${stage.dimNames.mkString(", ")}", allKeys,
          stage.nextKeys.map(allKeys.indexOf).toArray, keyLo, keySpan))
      }.toArray
      requireIntegralKeys("fact", factPart, allKeys)
      val (fs, nKeys, bc) = (factSchema, allKeys.size, rows)
      val parts = try factPart.select(factSchema.cont.map(col(_).cast("double")) ++
          factSchema.cat.map(col(_).cast("int")) ++ allKeys.map(col(_).cast("long")): _*)
        .rdd.mapPartitions(it => evaluate(it, fs, nKeys, bc.value, steps)).collect()
      catch { case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] => throw e.getCause }
      parts.foldLeft(Triple.zero(combined.k, combined.l))(_.plus(_))
    }

    /** Enrich a fact-side subset with all dimension attribute columns (used to
      * build prediction features for missing rows). Each (small) dimension is
      * broadcast — the DB analogue of an indexed N:1 lookup — also where
      * automatic broadcast joins are switched off.
      */
    def enrich(factPart: DataFrame): DataFrame =
      DimSpec.join(factPart, dims.map(d => d.copy(df = broadcast(d.df))))
  }

  /** Build a [[Plan]]: collect each dimension once (one Spark job each) and
    * broadcast them. `hierarchy` gives the evaluation order; by default all
    * dimensions multiply at stage 0 (per fact row) and everything sums to one
    * group — correct for any schema, but without group-level sharing. Passing
    * a real hierarchy (e.g. narrow dims at stage 0, wide dims at coarser
    * levels) is what makes factorization pay off on dim-heavy schemas.
    *
    * The combined attribute order follows the stage order, i.e.
    * `fact ++ stages.flatMap(dims)`. Fails, naming the dimension and the
    * column, when a dimension repeats a key, its key columns need more than
    * 63 bits together or one of its attributes holds a null.
    */
  def plan(spark: SparkSession, factSchema: CofactorSchema,
           dims: Seq[DimSpec], hierarchy: Seq[Stage] = Nil): Plan = {
    val stages = if (hierarchy.nonEmpty) hierarchy else Seq(Stage(dims.map(_.name), Nil))
    val stageNames = stages.flatMap(_.dimNames)
    require(stageNames.sorted == dims.map(_.name).sorted,
      s"hierarchy must cover every dim exactly once: $stageNames vs ${dims.map(_.name)}")
    require(stages.last.nextKeys.isEmpty, "the final stage must have no nextKeys")
    val ordered = stageNames.map(n => dims.find(_.name == n).get)
    val allKeys = ordered.flatMap(_.keys).distinct
    val fetched = ordered.map { dim =>
      requireIntegralKeys(s"dimension ${dim.name}", dim.df, dim.keys)
      val nk = dim.keys.size
      val rows = dim.df.select(dim.keys.map(col(_).cast("long")) ++ dim.schema.cont.map(col(_).cast("double")) ++
          dim.schema.cat.map(col(_).cast("int")): _*)
        .collect().filter(r => (0 until nk).forall(!r.isNullAt(_))) // a null key joins nothing
      for ((c, j) <- (dim.schema.cont ++ dim.schema.cat).zipWithIndex)
        require(!rows.exists(_.isNullAt(nk + j)),
          s"dimension ${dim.name}: attribute $c has a null value; dimension attributes must be complete")
      val ks = rows.map { r =>
        val a = new Array[Long](allKeys.size)
        for (i <- 0 until nk) a(allKeys.indexOf(dim.keys(i))) = r.getLong(i)
        a
      }
      (rows, ks)
    }
    // Each key column packs over the range of its values in every dimension
    // that holds it; fact values out of that range join nothing.
    val keyLo = new Array[Long](allKeys.size)
    val keySpan = new Array[Long](allKeys.size)
    for ((c, i) <- allKeys.zipWithIndex) {
      val vs = ordered.indices.filter(ordered(_).keys.contains(c)).flatMap(fetched(_)._2.map(_(i)))
      if (vs.nonEmpty) { keyLo(i) = vs.min; keySpan(i) = vs.max - vs.min }
    }
    val dimRows = ordered.zip(fetched).map { case (dim, (rows, ks)) =>
      val (nk, k, l) = (dim.keys.size, dim.schema.k, dim.schema.l)
      val owner = s"dimension ${dim.name}"
      val packer = new KeyPacker(owner, allKeys, dim.keys.map(allKeys.indexOf).toArray, keyLo, keySpan)
      val index = new mutable.LongMap[Int](rows.length)
      for ((a, r) <- ks.zipWithIndex) {
        val p = packer.pack(a)
        require(!index.contains(p), s"$owner repeats key " +
          dim.keys.map(c => s"$c=${a(allKeys.indexOf(c))}").mkString(", ") + "; a dimension must join N:1")
        index(p) = r
      }
      new DimRows(k, l, rows.map(r => Array.tabulate(k)(j => r.getDouble(nk + j))),
        rows.map(r => Array.tabulate(l)(j => r.getInt(nk + k + j))), packer, index)
    }
    new Plan(factSchema, ordered, stages, allKeys, spark.sparkContext.broadcast(dimRows.toArray), keyLo, keySpan)
  }
}
