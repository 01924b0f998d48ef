package repro.mice

import org.apache.spark.sql.DataFrame
import repro.ring.{DimSpec, Stage}

/** Algorithm 1: one `SUM_TRIPLE` pass over the observed rows per target and
  * round, no sharing — the reference point of the §4 optimizations.
  */
object MiceBaseline {
  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig()): MiceResult =
    MiceEngine.impute(df0, schema, cfg, Partitioning.None)
}

/** Algorithm 2, the Low variant: cofactor shared across targets and rounds. */
object MiceLow {
  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig()): MiceResult =
    MiceEngine.impute(df0, schema, cfg, Partitioning.ByMissing)
}

/** The High variant of §4, for high missing rates. */
object MiceHigh {
  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig()): MiceResult =
    MiceEngine.impute(df0, schema, cfg, Partitioning.ByObserved)
}

/** MICE over a *normalized* dataset (§6.3): Algorithm 2 with every cofactor
  * over "fact ⋈ dims" computed factorized, never materializing the join.
  * Missing values live in the fact table only (as in Fig 6), so it imputes
  * the same cells as [[MiceLow]] over the materialized join.
  *
  * @param schema    MICE layout of the *fact* attributes; targets ⊆ fact attrs.
  * @param dims      dimension tables (complete; joined N:1 on shared key names)
  * @param hierarchy optional factorized evaluation order (see [[repro.ring.Factorized.plan]])
  */
object FactorizedMice {
  def impute(fact0: DataFrame, schema: MiceSchema, dims: Seq[DimSpec],
             cfg: MiceConfig = MiceConfig(), hierarchy: Seq[Stage] = Nil): MiceResult =
    MiceEngine.impute(fact0, schema, cfg, Partitioning.ByMissing, dims, hierarchy)
}
