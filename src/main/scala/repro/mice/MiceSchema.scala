package repro.mice

import repro.ring.CofactorSchema

/** Attribute layout for a MICE run over a single table.
  *
  * @param cont    continuous attributes (doubles)
  * @param cat     categorical attributes (integer-encoded)
  * @param targets the incomplete attributes to impute, a subset of cont ∪ cat;
  *                visit order is the round-robin order of the chained equations
  */
final case class MiceSchema(cont: Seq[String], cat: Seq[String], targets: Seq[String]) {
  require(targets.nonEmpty, "MICE needs at least one incomplete attribute")
  require(targets.forall(t => cont.contains(t) || cat.contains(t)),
    s"targets must be attributes of the schema: $targets vs cont=$cont cat=$cat")

  /** Cofactor layout over all attributes (models for every target read off one triple). */
  val cofactor: CofactorSchema = CofactorSchema(cont, cat)

  def isContinuous(t: String): Boolean = cont.contains(t)

  /** Bookkeeping column marking originally-missing values of `t`. */
  def maskCol(t: String): String = s"__miss_$t"

  def maskCols: Seq[String] = targets.map(maskCol)

  /** All data attributes, without bookkeeping columns. */
  def dataCols: Seq[String] = cont ++ cat
}

/** Knobs of the ring MICE engine ([[MiceEngine]]). Every model is trained with the
  * fixed ridge `LinearRegression.DefaultLambda` (LDA: its fixed shrinkage) and
  * one scaled LU solve.
  *
  * @param iterations number of full rounds over all incomplete attributes
  * @param stochastic add N(0, σ²) noise to regression imputations (§3.1);
  *                   switch off to make variants bit-comparable in tests
  * @param seed       base RNG seed; every (iteration, attribute) pair derives
  *                   a distinct deterministic stream from it
  */
final case class MiceConfig(
    iterations: Int = 5,
    stochastic: Boolean = true,
    seed: Long = 42,
)
