//! Deterministic fault injection for the `tracered` numeric stack.
//!
//! Robustness claims are only as good as the faults they were tested
//! against. This crate provides a seed-driven [`FaultPlan`] that corrupts
//! inputs in the ways the resilience layer must survive:
//!
//! - non-finite matrix entries (NaN / ±Inf), caught by
//!   [`tracered_sparse::scan_non_finite`];
//! - poisoned pivots (a strongly negative diagonal entry), which force
//!   `NotPositiveDefinite` breakdowns and exercise the boost ladder of
//!   [`tracered_sparse::CholeskyFactor::factorize`];
//! - non-finite right-hand-side and source-scale entries, which must
//!   surface as classified terminations, never as garbage answers;
//! - panicking pool jobs, which the `tracered_par` work-stealing pool
//!   must contain without poisoning its workers;
//! - outage faults for the contingency layer: corrupted rank-1
//!   update vectors and pivot-poisoning downdate spikes, which the
//!   incremental Cholesky update must reject typed with the factor
//!   restored bit-exactly;
//! - request-level faults ([`RequestFault`]) for the solver-service
//!   aggregator: NaN right-hand sides, wrong-length vectors, stale
//!   epoch pins and panicking request closures, each of which must fail
//!   exactly one request while its batch-mates complete.
//!
//! Every choice (which entry, which value, which job) is drawn from a
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c) stream, so a fault
//! campaign is exactly reproducible from its seed: a failure seen in CI
//! replays locally with the same plan. The chaos suite in
//! `tests/chaos.rs` drives every injected fault through the public APIs
//! and asserts the contract of the resilience layer: **a typed error or a
//! recorded recovery — never a panic, never a silently wrong answer.**

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

use tracered_sparse::CscMatrix;

/// What an injected matrix entry was set to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultValue {
    /// `f64::NAN`.
    Nan,
    /// `f64::INFINITY`.
    PosInf,
    /// `f64::NEG_INFINITY`.
    NegInf,
}

impl FaultValue {
    /// The concrete floating-point payload.
    pub fn as_f64(self) -> f64 {
        match self {
            FaultValue::Nan => f64::NAN,
            FaultValue::PosInf => f64::INFINITY,
            FaultValue::NegInf => f64::NEG_INFINITY,
        }
    }
}

/// One recorded corruption of a stored matrix entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Row of the corrupted entry.
    pub row: usize,
    /// Column of the corrupted entry.
    pub col: usize,
    /// What the entry was replaced with.
    pub value: FaultValue,
}

/// A deterministic, seed-driven fault campaign.
///
/// All methods take `&mut self`: each draw advances the internal
/// splitmix64 stream, so a fixed seed yields a fixed fault sequence
/// regardless of platform or thread count.
///
/// ```
/// use tracered_fi::FaultPlan;
/// use tracered_sparse::CscMatrix;
///
/// let a = CscMatrix::identity(4);
/// let (bad, faults) = FaultPlan::new(7).corrupt_matrix_entries(&a, 2);
/// assert_eq!(faults.len(), 2);
/// for f in &faults {
///     assert!(!bad.get(f.row, f.col).is_finite());
/// }
/// // Same seed, same plan: the campaign replays exactly.
/// let (_, again) = FaultPlan::new(7).corrupt_matrix_entries(&a, 2);
/// assert_eq!(faults, again);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    state: u64,
}

impl FaultPlan {
    /// Creates a plan for `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, state: seed }
    }

    /// The seed this plan was created with (for failure reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw splitmix64 draw.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..bound` (`bound > 0`).
    fn next_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "next_index needs a non-empty range");
        (self.next_u64() % bound as u64) as usize
    }

    /// Next fault payload, cycling through NaN and the two infinities.
    fn next_value(&mut self) -> FaultValue {
        match self.next_u64() % 3 {
            0 => FaultValue::Nan,
            1 => FaultValue::PosInf,
            _ => FaultValue::NegInf,
        }
    }

    /// Replaces up to `count` distinct stored entries of `a` with
    /// non-finite values. Returns the corrupted copy and the injection
    /// log (empty when `a` has no stored entries).
    pub fn corrupt_matrix_entries(
        &mut self,
        a: &CscMatrix,
        count: usize,
    ) -> (CscMatrix, Vec<Injection>) {
        let nnz = a.nnz();
        let mut out = a.clone();
        let mut injections = Vec::new();
        if nnz == 0 || count == 0 {
            return (out, injections);
        }
        let count = count.min(nnz);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < count {
            chosen.insert(self.next_index(nnz));
        }
        let colptr = a.colptr().to_vec();
        for &k in &chosen {
            let value = self.next_value();
            out.values_mut()[k] = value.as_f64();
            // Storage is column-major: recover (row, col) from the flat
            // index for the injection log.
            let col = colptr.partition_point(|&p| p <= k) - 1;
            injections.push(Injection { row: a.rowidx()[k], col, value });
        }
        (out, injections)
    }

    /// Makes one randomly chosen diagonal entry of `a` strongly negative,
    /// guaranteeing the matrix is not positive definite. Returns the
    /// corrupted copy and the poisoned column.
    ///
    /// The poisoned value is `-(|old| + mean |diag| + 1)`: large enough
    /// that no rounding accident can rescue the pivot, finite so the
    /// failure is a classified `NotPositiveDefinite`, not a NaN.
    ///
    /// # Panics
    ///
    /// Panics if `a` has a zero dimension or a structurally missing
    /// diagonal entry (SPD inputs always store their diagonal).
    pub fn poison_pivot(&mut self, a: &CscMatrix) -> (CscMatrix, usize) {
        let n = a.ncols().min(a.nrows());
        assert!(n > 0, "cannot poison an empty matrix");
        let target = self.next_index(n);
        let diag = a.diagonal();
        let scale = diag.iter().map(|d| d.abs()).sum::<f64>() / n as f64;
        let (rows, _) = a.col(target);
        let offset = rows.iter().position(|&r| r == target).expect("diagonal entry must be stored");
        let k = a.colptr()[target] + offset;
        let mut out = a.clone();
        let old = out.values_mut()[k];
        out.values_mut()[k] = -(old.abs() + scale + 1.0);
        (out, target)
    }

    /// Sets one entry of `b` to NaN. Returns the corrupted copy and the
    /// index hit.
    ///
    /// # Panics
    ///
    /// Panics if `b` is empty.
    pub fn nan_rhs_entry(&mut self, b: &[f64]) -> (Vec<f64>, usize) {
        assert!(!b.is_empty(), "cannot corrupt an empty vector");
        let idx = self.next_index(b.len());
        let mut out = b.to_vec();
        out[idx] = f64::NAN;
        (out, idx)
    }

    /// Sets one entry of a source-scale vector to a non-finite value.
    /// Returns the corrupted copy and the index hit.
    ///
    /// # Panics
    ///
    /// Panics if `scales` is empty.
    pub fn corrupt_scales(&mut self, scales: &[f64]) -> (Vec<f64>, usize) {
        assert!(!scales.is_empty(), "cannot corrupt an empty vector");
        let idx = self.next_index(scales.len());
        let mut out = scales.to_vec();
        out[idx] = self.next_value().as_f64();
        (out, idx)
    }

    /// Sets one entry of a rank-1 update/downdate vector to a
    /// non-finite value. [`tracered_sparse`]'s incremental Cholesky
    /// update must reject the vector with a typed error *before*
    /// touching the factor — the chaos suite asserts the factor still
    /// solves bit-identically afterwards. Returns the corrupted copy
    /// and the index hit.
    ///
    /// # Panics
    ///
    /// Panics if `w` is empty.
    pub fn corrupt_update_vector(&mut self, w: &[f64]) -> (Vec<f64>, usize) {
        assert!(!w.is_empty(), "cannot corrupt an empty vector");
        let idx = self.next_index(w.len());
        let mut out = w.to_vec();
        out[idx] = self.next_value().as_f64();
        (out, idx)
    }

    /// Builds a downdate vector that poisons one pivot of `a`: a single
    /// spike `w[j] = sqrt(4·|a_jj|)` at a randomly chosen column, so
    /// `A − wwᵀ` has a strongly negative diagonal and any hyperbolic
    /// downdate of a factor of `A` must lose positive definiteness at
    /// (or before) column `j`. The loss must surface as a typed
    /// `NotPositiveDefinite` with the factor restored bit-exactly —
    /// never as a panic or a corrupted factor. Returns the vector and
    /// the poisoned column.
    ///
    /// # Panics
    ///
    /// Panics if `a` has a zero dimension.
    pub fn poison_downdate(&mut self, a: &CscMatrix) -> (Vec<f64>, usize) {
        let n = a.ncols().min(a.nrows());
        assert!(n > 0, "cannot poison an empty matrix");
        let target = self.next_index(n);
        let mut w = vec![0.0; a.ncols()];
        w[target] = (4.0 * a.get(target, target).abs().max(1.0)).sqrt();
        (w, target)
    }

    /// Uniform slot pick in `0..total`, for planting one poisoned
    /// element in a batch whose element type this crate does not know
    /// (e.g. a contingency outage list). Keeps mid-batch injection
    /// seed-driven like every other campaign choice.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn pick_slot(&mut self, total: usize) -> usize {
        assert!(total > 0, "cannot pick from an empty batch");
        self.next_index(total)
    }

    /// Chooses which of `total` pool jobs should panic: a deterministic
    /// non-empty subset (roughly one in four). Returns a mask.
    pub fn panic_jobs(&mut self, total: usize) -> Vec<bool> {
        let mut mask = vec![false; total];
        if total == 0 {
            return mask;
        }
        for flag in mask.iter_mut() {
            *flag = self.next_u64().is_multiple_of(4);
        }
        if !mask.iter().any(|&f| f) {
            let forced = self.next_index(total);
            mask[forced] = true;
        }
        mask
    }

    /// Assigns request-level faults to `total` solver-service requests:
    /// roughly one request in four draws one of the [`RequestFault`]
    /// kinds, and at least one fault is always injected (when
    /// `total > 0`). Deterministic per seed, like every other injector.
    pub fn request_faults(&mut self, total: usize) -> Vec<Option<RequestFault>> {
        let mut plan = vec![None; total];
        if total == 0 {
            return plan;
        }
        for slot in plan.iter_mut() {
            if self.next_u64().is_multiple_of(4) {
                *slot = Some(self.next_request_fault());
            }
        }
        if !plan.iter().any(Option::is_some) {
            let forced = self.next_index(total);
            plan[forced] = Some(self.next_request_fault());
        }
        plan
    }

    /// Next request-fault kind, cycling uniformly over the variants.
    fn next_request_fault(&mut self) -> RequestFault {
        match self.next_u64() % 4 {
            0 => RequestFault::NanRhs,
            1 => RequestFault::WrongLength,
            2 => RequestFault::StaleEpoch,
            _ => RequestFault::PanicClosure,
        }
    }
}

/// A request-level fault for the solver-service chaos suite. Each kind
/// must fail **exactly one** request with a typed error while its
/// batch-mates complete and the aggregator keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RequestFault {
    /// Replace one right-hand-side entry with NaN.
    NanRhs,
    /// Truncate the right-hand side below the system dimension.
    WrongLength,
    /// Pin the request to an epoch that is no longer current.
    StaleEpoch,
    /// Make the deferred right-hand-side closure panic.
    PanicClosure,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn laplacian_like(n: usize) -> CscMatrix {
        // Tridiagonal SPD matrix, full symmetric storage.
        let mut coo = tracered_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + i as f64 * 0.1).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csc()
    }

    #[test]
    fn same_seed_same_campaign() {
        let a = laplacian_like(12);
        let mut p1 = FaultPlan::new(42);
        let mut p2 = FaultPlan::new(42);
        assert_eq!(p1.corrupt_matrix_entries(&a, 3).1, p2.corrupt_matrix_entries(&a, 3).1);
        assert_eq!(p1.poison_pivot(&a).1, p2.poison_pivot(&a).1);
        assert_eq!(p1.nan_rhs_entry(&[1.0; 9]).1, p2.nan_rhs_entry(&[1.0; 9]).1);
        assert_eq!(p1.corrupt_update_vector(&[0.5; 7]), p2.corrupt_update_vector(&[0.5; 7]));
        assert_eq!(p1.poison_downdate(&a), p2.poison_downdate(&a));
        assert_eq!(p1.pick_slot(13), p2.pick_slot(13));
        assert_eq!(p1.panic_jobs(16), p2.panic_jobs(16));
        assert_eq!(p1.request_faults(24), p2.request_faults(24));
    }

    #[test]
    fn request_faults_always_inject_at_least_one() {
        for seed in 0..32u64 {
            let plan = FaultPlan::new(seed).request_faults(8);
            assert_eq!(plan.len(), 8);
            assert!(plan.iter().any(Option::is_some), "seed {seed} injected nothing");
        }
        assert!(FaultPlan::new(1).request_faults(0).is_empty());
        assert!(FaultPlan::new(1).request_faults(1)[0].is_some(), "a lone request is forced");
    }

    #[test]
    fn different_seeds_diverge() {
        let hits_a: Vec<usize> = (0..8).map(|_| FaultPlan::new(1).next_index(1000)).collect();
        let hits_b: Vec<usize> = (0..8).map(|_| FaultPlan::new(2).next_index(1000)).collect();
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn corrupt_matrix_reports_accurate_coordinates() {
        let a = laplacian_like(10);
        let (bad, faults) = FaultPlan::new(7).corrupt_matrix_entries(&a, 5);
        assert_eq!(faults.len(), 5);
        for f in &faults {
            let got = bad.get(f.row, f.col);
            match f.value {
                FaultValue::Nan => assert!(got.is_nan()),
                FaultValue::PosInf => assert_eq!(got, f64::INFINITY),
                FaultValue::NegInf => assert_eq!(got, f64::NEG_INFINITY),
            }
        }
        // The original is untouched.
        assert!(a.values().iter().all(|v| v.is_finite()));
        // Count of non-finite stored values matches the log.
        let hit = bad.values().iter().filter(|v| !v.is_finite()).count();
        assert_eq!(hit, 5);
    }

    #[test]
    fn corrupt_matrix_clamps_to_nnz() {
        let a = CscMatrix::identity(3);
        let (_, faults) = FaultPlan::new(3).corrupt_matrix_entries(&a, 100);
        assert_eq!(faults.len(), 3);
    }

    #[test]
    fn poisoned_pivot_defeats_plain_cholesky() {
        use tracered_sparse::{order::Ordering, CholeskyFactor, SparseError};
        let a = laplacian_like(16);
        CholeskyFactor::factorize(&a, Ordering::MinDegree).expect("healthy matrix factors");
        let (bad, col) = FaultPlan::new(11).poison_pivot(&a);
        assert!(bad.get(col, col) < 0.0);
        assert!(matches!(
            CholeskyFactor::factorize(&bad, Ordering::MinDegree),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn poison_downdate_guarantees_an_indefinite_perturbation() {
        let a = laplacian_like(12);
        let (w, col) = FaultPlan::new(17).poison_downdate(&a);
        // (A − wwᵀ) has a strongly negative diagonal at `col`.
        assert!(a.get(col, col) - w[col] * w[col] < 0.0);
        assert!(w.iter().enumerate().all(|(i, &v)| i == col || v == 0.0));
    }

    #[test]
    fn panic_jobs_always_selects_at_least_one() {
        for seed in 0..32 {
            let mask = FaultPlan::new(seed).panic_jobs(6);
            assert_eq!(mask.len(), 6);
            assert!(mask.iter().any(|&f| f), "seed {seed} selected no panicking job");
        }
        assert!(FaultPlan::new(0).panic_jobs(0).is_empty());
    }

    #[test]
    fn scale_corruption_is_non_finite() {
        let (bad, idx) = FaultPlan::new(5).corrupt_scales(&[1.0, 0.5, 0.25]);
        assert!(!bad[idx].is_finite());
        assert_eq!(bad.iter().filter(|s| !s.is_finite()).count(), 1);
    }
}
