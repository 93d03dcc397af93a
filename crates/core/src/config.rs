//! Sparsifier configuration.

use tracered_graph::laplacian::ShiftPolicy;
use tracered_graph::mst::TreeKind;
use tracered_sparse::order::Ordering;
use tracered_sparse::{BoostSchedule, KernelVariant};

use crate::error::CoreError;

/// Which spectral-criticality metric drives edge recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Method {
    /// The paper's approximate trace reduction (Algorithm 2) — default.
    #[default]
    TraceReduction,
    /// GRASS-style spectral perturbation analysis \[Feng 2020\]:
    /// criticality `w_pq (h_tᵀ e_pq)²` from t-step generalized power
    /// iterations, with the same iterative densification schedule.
    Grass,
    /// feGRASS-style effective-resistance criticality `w_pq · R_T(p, q)`
    /// computed once against the spanning tree (single pass).
    EffectiveResistance,
    /// Spielman–Srivastava criticality `w_pq · R̃_G(p, q)` with
    /// effective resistances estimated in the **full graph** via
    /// Johnson–Lindenstrauss projections \[Spielman & Srivastava 2011\] —
    /// the costly-but-principled baseline of the paper's introduction
    /// (requires factorizing the full graph Laplacian).
    JlResistance,
}

/// Configuration for [`fn@crate::sparsify`].
///
/// Defaults mirror the paper's experimental setup: recover `10 % · |V|`
/// off-tree edges over five densification iterations, with truncation
/// radius β = 5 and SPAI threshold δ = 0.1.
///
/// # Example
///
/// ```
/// use tracered_core::{Method, SparsifyConfig};
///
/// let cfg = SparsifyConfig::new(Method::TraceReduction)
///     .edge_fraction(0.05)
///     .iterations(3)
///     .beta(4);
/// assert_eq!(cfg.num_iterations(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SparsifyConfig {
    method: Method,
    edge_fraction: f64,
    iterations: usize,
    beta: usize,
    spai_threshold: f64,
    similarity_layers: usize,
    use_similarity_exclusion: bool,
    tree_kind: TreeKind,
    ordering: Ordering,
    shift: ShiftPolicy,
    grass_power_steps: usize,
    grass_num_vectors: usize,
    jl_probes: usize,
    seed: u64,
    track_trace: bool,
    threads: Option<usize>,
    factor_threads: Option<usize>,
    pivot_boost: Option<BoostSchedule>,
}

impl Default for SparsifyConfig {
    fn default() -> Self {
        SparsifyConfig::new(Method::default())
    }
}

impl SparsifyConfig {
    /// Creates the paper-default configuration for a given method.
    pub fn new(method: Method) -> Self {
        let single_pass = method == Method::EffectiveResistance || method == Method::JlResistance;
        SparsifyConfig {
            method,
            edge_fraction: 0.10,
            iterations: if single_pass { 1 } else { 5 },
            beta: 5,
            spai_threshold: 0.1,
            similarity_layers: 1,
            // The paper combines exclusion with trace reduction; GRASS [8]
            // runs without it.
            use_similarity_exclusion: method != Method::Grass,
            tree_kind: TreeKind::MaxEffectiveWeight,
            ordering: Ordering::MinDegree,
            // The paper adds "small values" to the diagonal; its test
            // matrices additionally carry physical diagonal dominance
            // (ground conductance). A vanishing shift makes L⁻¹'s columns
            // share a huge near-nullspace tail that defeats Algorithm 1's
            // max-relative pruning (the grounding sweep of the `ablation`
            // bench binary measures this), so the default grounds at 1e-3
            // of the mean weighted degree — the scale the paper's
            // benchmarks live at.
            shift: ShiftPolicy::RelativeMeanDegree(1e-3),
            grass_power_steps: 2,
            grass_num_vectors: 3,
            jl_probes: 24,
            seed: 0x5eed,
            track_trace: false,
            // Serial by default: scoring, resistances and SpMV stay on
            // the historical exact arithmetic path unless opted in.
            threads: Some(1),
            // Factorization threads are a separate knob because the
            // parallel numeric Cholesky is bit-identical at every count
            // (unlike the chunk-rounded reductions behind `threads`),
            // and because the partitioned driver parallelizes *across*
            // partitions with `threads` while each partition can still
            // factor in parallel *inside* its job with this knob.
            factor_threads: Some(1),
            // No boosted refactorization by default: a failing pivot
            // surfaces as a typed error unless the caller opts into the
            // resilience ladder.
            pivot_boost: None,
        }
    }

    /// Worker threads for the scoring/SpMV hot paths: `Some(1)` (the
    /// default) is the exact serial path, `Some(t)` uses `t` workers,
    /// and `None` uses the hardware's available parallelism.
    ///
    /// Criticality scores are bit-identical across thread counts (see
    /// [`crate::criticality`]), so this only changes wall-clock time.
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The configured thread knob (`None` = auto-detect).
    pub fn threads_value(&self) -> Option<usize> {
        self.threads
    }

    /// Worker threads for the per-iteration subgraph Cholesky
    /// factorizations: `Some(1)` (the default) is the serial numeric
    /// kernel, `Some(t)` factors independent elimination-tree subtrees
    /// on `t` workers, `None` uses the hardware's available parallelism.
    ///
    /// The parallel factorization is **bit-identical** to the serial one
    /// (see [`tracered_sparse::CholeskyFactor::factorize`]), so
    /// this knob changes `factor_time` only — sparsifier edge sets,
    /// scores, and solve results are unchanged at every setting.
    pub fn factor_threads(mut self, threads: Option<usize>) -> Self {
        self.factor_threads = threads;
        self
    }

    /// The configured factorization thread knob (`None` = auto-detect).
    pub fn factor_threads_value(&self) -> Option<usize> {
        self.factor_threads
    }

    /// The numeric Cholesky kernel the `perfbench` replay
    /// (`perfbench/src/replay.rs`) passes when it times the sparsifier
    /// factorizations: always [`KernelVariant::Scalar`]. Sparsify's own
    /// factors let the symbolic analysis pick the kernel by the factor's
    /// shape, and every sparsifier factor the benchmark builds is thin
    /// enough to get the scalar one. Kept only for that caller; delete
    /// it once the replay stops calling it.
    pub fn kernel_value(&self) -> KernelVariant {
        KernelVariant::Scalar
    }

    /// Diagonal-boost retry ladder for the per-iteration subgraph
    /// factorizations: `None` (the default) surfaces a non-positive
    /// pivot as [`crate::CoreError::Sparse`]; `Some(schedule)` retries
    /// through the boost ladder of
    /// [`tracered_sparse::CholeskyFactor::factorize`] and records the
    /// applied shift in
    /// [`crate::IterationStats::applied_shift`]. The boost is applied to
    /// the factorization *input*, so factor bit-identity across thread
    /// counts is preserved.
    pub fn pivot_boost(mut self, schedule: Option<BoostSchedule>) -> Self {
        self.pivot_boost = schedule;
        self
    }

    /// The configured pivot-boost ladder (`None` = fail fast).
    pub fn pivot_boost_value(&self) -> Option<BoostSchedule> {
        self.pivot_boost
    }

    /// Number of Johnson–Lindenstrauss probes (full-graph solves) for the
    /// [`Method::JlResistance`] baseline (default 24).
    pub fn jl_probes(mut self, probes: usize) -> Self {
        self.jl_probes = probes;
        self
    }

    /// The configured JL probe count.
    pub fn jl_probes_value(&self) -> usize {
        self.jl_probes
    }

    /// Fraction of `|V|` off-tree edges to recover (paper: 0.10).
    pub fn edge_fraction(mut self, fraction: f64) -> Self {
        self.edge_fraction = fraction;
        self
    }

    /// Number of densification iterations `N_r` (paper: 5).
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// BFS truncation radius β of the trace-reduction sums (paper: 5).
    pub fn beta(mut self, beta: usize) -> Self {
        self.beta = beta;
        self
    }

    /// Pruning threshold δ of Algorithm 1 (paper: 0.1).
    pub fn spai_threshold(mut self, delta: f64) -> Self {
        self.spai_threshold = delta;
        self
    }

    /// BFS radius used when marking spectrally similar edges for
    /// exclusion (default 1).
    pub fn similarity_layers(mut self, layers: usize) -> Self {
        self.similarity_layers = layers;
        self
    }

    /// Enables or disables similar-edge exclusion.
    pub fn similarity_exclusion(mut self, enabled: bool) -> Self {
        self.use_similarity_exclusion = enabled;
        self
    }

    /// Spanning-tree flavour (default: feGRASS's MEWST).
    pub fn tree_kind(mut self, kind: TreeKind) -> Self {
        self.tree_kind = kind;
        self
    }

    /// Fill-reducing ordering used for the per-iteration factorizations.
    pub fn ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Diagonal-shift policy applied identically to `L_G` and every
    /// subgraph Laplacian.
    pub fn shift(mut self, shift: ShiftPolicy) -> Self {
        self.shift = shift;
        self
    }

    /// Number of generalized power-iteration steps `t` for the GRASS
    /// baseline (default 2).
    pub fn grass_power_steps(mut self, t: usize) -> Self {
        self.grass_power_steps = t;
        self
    }

    /// Number of independent random probe vectors for the GRASS baseline
    /// (default 3).
    pub fn grass_num_vectors(mut self, k: usize) -> Self {
        self.grass_num_vectors = k;
        self
    }

    /// RNG seed for the GRASS probes (deterministic by default).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records a Hutchinson estimate of `Trace(L_S⁻¹ L_G)` in each
    /// iteration's [`crate::IterationStats`] — the quantity Algorithm 2
    /// greedily drives down. Costs one extra factorization in the first
    /// iteration plus a few solves per iteration; off by default.
    pub fn track_trace(mut self, enabled: bool) -> Self {
        self.track_trace = enabled;
        self
    }

    /// Whether per-iteration trace estimates are recorded.
    pub fn track_trace_enabled(&self) -> bool {
        self.track_trace
    }

    /// The configured method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The configured edge-recovery fraction.
    pub fn edge_fraction_value(&self) -> f64 {
        self.edge_fraction
    }

    /// The configured iteration count.
    pub fn num_iterations(&self) -> usize {
        self.iterations
    }

    /// The configured truncation radius.
    pub fn beta_value(&self) -> usize {
        self.beta
    }

    /// The configured SPAI threshold.
    pub fn spai_threshold_value(&self) -> f64 {
        self.spai_threshold
    }

    /// The configured similarity-exclusion radius.
    pub fn similarity_layers_value(&self) -> usize {
        self.similarity_layers
    }

    /// Whether similar-edge exclusion is enabled.
    pub fn similarity_exclusion_enabled(&self) -> bool {
        self.use_similarity_exclusion
    }

    /// The configured spanning-tree flavour.
    pub fn tree_kind_value(&self) -> TreeKind {
        self.tree_kind
    }

    /// The configured factorization ordering.
    pub fn ordering_value(&self) -> Ordering {
        self.ordering
    }

    /// The configured shift policy.
    pub fn shift_value(&self) -> &ShiftPolicy {
        &self.shift
    }

    /// The configured GRASS power-step count.
    pub fn grass_power_steps_value(&self) -> usize {
        self.grass_power_steps
    }

    /// The configured GRASS probe count.
    pub fn grass_num_vectors_value(&self) -> usize {
        self.grass_num_vectors
    }

    /// The configured RNG seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a value is out of range.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.edge_fraction.is_finite() || self.edge_fraction < 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!("edge_fraction {} must be finite and >= 0", self.edge_fraction),
            });
        }
        if self.iterations == 0 {
            return Err(CoreError::InvalidConfig { what: "iterations must be at least 1".into() });
        }
        if !self.spai_threshold.is_finite() || self.spai_threshold < 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!("spai_threshold {} must be finite and >= 0", self.spai_threshold),
            });
        }
        if self.method == Method::Grass
            && (self.grass_num_vectors == 0 || self.grass_power_steps == 0)
        {
            return Err(CoreError::InvalidConfig {
                what: "GRASS requires at least one probe vector and one power step".into(),
            });
        }
        if self.method == Method::JlResistance && self.jl_probes == 0 {
            return Err(CoreError::InvalidConfig {
                what: "JL resistance requires at least one probe".into(),
            });
        }
        if self.threads == Some(0) {
            return Err(CoreError::InvalidConfig {
                what: "threads must be at least 1 (use None for auto-detect)".into(),
            });
        }
        if self.factor_threads == Some(0) {
            return Err(CoreError::InvalidConfig {
                what: "factor_threads must be at least 1 (use None for auto-detect)".into(),
            });
        }
        if let Some(boost) = &self.pivot_boost {
            boost
                .validate()
                .map_err(|e| CoreError::InvalidConfig { what: format!("pivot_boost: {e}") })?;
        }
        Ok(())
    }

    /// A 64-bit fingerprint over every knob that can change the
    /// sparsifier's *output* — the "config" half of the service layer's
    /// factor-cache key `(matrix fingerprint, config fingerprint)`.
    ///
    /// `threads` and `factor_threads` are deliberately excluded: the
    /// parallel kernels they select are bit-identical at every count
    /// (the workspace determinism contract), so two configs differing
    /// only in thread counts produce the same sparsifier and may share a
    /// cached factor.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(match self.method {
            Method::TraceReduction => 0,
            Method::Grass => 1,
            Method::EffectiveResistance => 2,
            Method::JlResistance => 3,
        });
        mix(self.edge_fraction.to_bits());
        mix(self.iterations as u64);
        mix(self.beta as u64);
        mix(self.spai_threshold.to_bits());
        mix(self.similarity_layers as u64);
        mix(u64::from(self.use_similarity_exclusion));
        // Every enum below is matched exhaustively ON PURPOSE: a wildcard
        // arm here once collapsed distinct variants onto one tag, and the
        // service factor cache keys on this fingerprint — two different
        // configs silently shared a cached factor. Adding a variant must
        // be a compile error at this site, never a silent collision.
        mix(match self.tree_kind {
            TreeKind::MaxEffectiveWeight => 0,
            TreeKind::MaxWeight => 1,
        });
        mix(match self.ordering {
            Ordering::Natural => 0,
            Ordering::MinDegree => 2,
            Ordering::NestedDissection => 3,
        });
        match &self.shift {
            ShiftPolicy::None => mix(0),
            ShiftPolicy::Uniform(s) => {
                mix(1);
                mix(s.to_bits());
            }
            ShiftPolicy::RelativeMeanDegree(f) => {
                mix(2);
                mix(f.to_bits());
            }
            ShiftPolicy::PerNode(shifts) => {
                mix(3);
                mix(shifts.len() as u64);
                for s in shifts {
                    mix(s.to_bits());
                }
            }
        }
        mix(self.grass_power_steps as u64);
        mix(self.grass_num_vectors as u64);
        mix(self.jl_probes as u64);
        mix(self.seed);
        mix(u64::from(self.track_trace));
        match &self.pivot_boost {
            None => mix(0),
            Some(b) => {
                mix(1);
                mix(b.initial_relative.to_bits());
                mix(b.growth.to_bits());
                mix(b.max_boosts as u64);
            }
        }
        h
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SparsifyConfig::default();
        assert_eq!(cfg.method(), Method::TraceReduction);
        assert!((cfg.edge_fraction_value() - 0.10).abs() < 1e-12);
        assert_eq!(cfg.num_iterations(), 5);
        assert_eq!(cfg.beta_value(), 5);
        assert!((cfg.spai_threshold_value() - 0.1).abs() < 1e-12);
        assert!(cfg.similarity_exclusion_enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn fingerprint_tracks_output_knobs_only() {
        let base = SparsifyConfig::default();
        assert_eq!(base.fingerprint(), SparsifyConfig::default().fingerprint(), "deterministic");
        // Output-changing knobs move the fingerprint…
        assert_ne!(base.fingerprint(), base.clone().edge_fraction(0.2).fingerprint());
        assert_ne!(base.fingerprint(), base.clone().seed(7).fingerprint());
        assert_ne!(base.fingerprint(), SparsifyConfig::new(Method::Grass).fingerprint());
        // …while thread knobs (bit-identical kernels) share a cache slot.
        assert_eq!(
            base.fingerprint(),
            base.clone().threads(Some(8)).factor_threads(None).fingerprint()
        );
    }

    /// Regression for the wildcard-arm fingerprint collision: every
    /// variant of every enum knob must map to its own tag, so no two of
    /// these configs may share a fingerprint — the service factor cache
    /// keys on it, and a collision silently serves one config's factor
    /// for another.
    #[test]
    fn fingerprints_pairwise_distinct_across_all_enum_variants() {
        let base = SparsifyConfig::default;
        let mut variants: Vec<(String, u64)> = Vec::new();
        for method in [
            Method::TraceReduction,
            Method::Grass,
            Method::EffectiveResistance,
            Method::JlResistance,
        ] {
            // `new(method)` also flips iteration/exclusion defaults; pin
            // them so only the method axis varies.
            let cfg = SparsifyConfig::new(method).iterations(5).similarity_exclusion(true);
            variants.push((format!("method::{method:?}"), cfg.fingerprint()));
        }
        for kind in [TreeKind::MaxEffectiveWeight, TreeKind::MaxWeight] {
            variants.push((format!("tree::{kind:?}"), base().tree_kind(kind).fingerprint()));
        }
        for ordering in [Ordering::Natural, Ordering::MinDegree, Ordering::NestedDissection] {
            variants.push((format!("ord::{ordering:?}"), base().ordering(ordering).fingerprint()));
        }
        for (name, shift) in [
            ("none", ShiftPolicy::None),
            ("uniform", ShiftPolicy::Uniform(1e-3)),
            ("relmean", ShiftPolicy::RelativeMeanDegree(1e-3)),
            ("pernode", ShiftPolicy::PerNode(vec![1e-3; 4])),
        ] {
            variants.push((format!("shift::{name}"), base().shift(shift).fingerprint()));
        }
        for boost in [None, Some(BoostSchedule::default())] {
            variants.push((
                format!("boost::{}", boost.is_some()),
                base().pivot_boost(boost).fingerprint(),
            ));
        }
        // The default config is reached once along every axis; those (and
        // only those) entries may share a fingerprint.
        let defaults = [
            "method::TraceReduction",
            "tree::MaxEffectiveWeight",
            "ord::MinDegree",
            "shift::relmean",
            "boost::false",
        ];
        for i in 0..variants.len() {
            for j in 0..i {
                if variants[i].1 == variants[j].1 {
                    assert!(
                        defaults.contains(&variants[i].0.as_str())
                            && defaults.contains(&variants[j].0.as_str()),
                        "fingerprint collision between {} and {}",
                        variants[i].0,
                        variants[j].0
                    );
                }
            }
        }
    }

    #[test]
    fn effective_resistance_defaults_to_single_pass() {
        let cfg = SparsifyConfig::new(Method::EffectiveResistance);
        assert_eq!(cfg.num_iterations(), 1);
    }

    #[test]
    fn grass_disables_exclusion_by_default() {
        let cfg = SparsifyConfig::new(Method::Grass);
        assert!(!cfg.similarity_exclusion_enabled());
    }

    #[test]
    fn builder_chains() {
        let cfg = SparsifyConfig::new(Method::TraceReduction)
            .edge_fraction(0.2)
            .iterations(3)
            .beta(2)
            .spai_threshold(0.05)
            .similarity_layers(2)
            .seed(9);
        assert!((cfg.edge_fraction_value() - 0.2).abs() < 1e-12);
        assert_eq!(cfg.num_iterations(), 3);
        assert_eq!(cfg.beta_value(), 2);
        assert_eq!(cfg.similarity_layers_value(), 2);
        assert_eq!(cfg.seed_value(), 9);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(SparsifyConfig::default().edge_fraction(-0.1).validate().is_err());
        assert!(SparsifyConfig::default().edge_fraction(f64::NAN).validate().is_err());
        assert!(SparsifyConfig::default().iterations(0).validate().is_err());
        assert!(SparsifyConfig::default().spai_threshold(-1.0).validate().is_err());
        assert!(SparsifyConfig::new(Method::Grass).grass_num_vectors(0).validate().is_err());
        assert!(SparsifyConfig::default().threads(Some(0)).validate().is_err());
        assert!(SparsifyConfig::default().factor_threads(Some(0)).validate().is_err());
    }

    #[test]
    fn threads_knob_defaults_serial_and_accepts_auto() {
        assert_eq!(SparsifyConfig::default().threads_value(), Some(1));
        let auto = SparsifyConfig::default().threads(None);
        assert_eq!(auto.threads_value(), None);
        assert!(auto.validate().is_ok());
        assert_eq!(SparsifyConfig::default().threads(Some(8)).threads_value(), Some(8));
    }

    #[test]
    fn pivot_boost_defaults_off_and_validates() {
        assert!(SparsifyConfig::default().pivot_boost_value().is_none());
        let cfg = SparsifyConfig::default().pivot_boost(Some(BoostSchedule::default()));
        assert!(cfg.pivot_boost_value().is_some());
        assert!(cfg.validate().is_ok());
        let bad = BoostSchedule { growth: 0.5, ..Default::default() };
        let err = SparsifyConfig::default().pivot_boost(Some(bad)).validate();
        assert!(matches!(err, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn factor_threads_knob_defaults_serial_and_accepts_auto() {
        assert_eq!(SparsifyConfig::default().factor_threads_value(), Some(1));
        let auto = SparsifyConfig::default().factor_threads(None);
        assert_eq!(auto.factor_threads_value(), None);
        assert!(auto.validate().is_ok());
        let cfg = SparsifyConfig::default().factor_threads(Some(4));
        assert_eq!(cfg.factor_threads_value(), Some(4));
        // Independent of the scoring knob.
        assert_eq!(cfg.threads_value(), Some(1));
    }
}
