//! Power-grid transient simulation (paper §4.2).
//!
//! The paper evaluates its sparsifiers on IBM/THU power-grid benchmarks:
//! transient analysis `(G + C/h) v(t+h) = (C/h) v(t) + u(t+h)` under
//! backward Euler, where `G` is the conductance Laplacian (mesh resistors
//! plus pad conductances on the diagonal) and `C` the node capacitances.
//! Those benchmark files are not redistributable, so [`synth`] generates
//! grids following the paper's own recipe for augmenting [Yang & Li
//! 2012]: mesh resistors, C4 pads, 1–10 pF node capacitances and periodic
//! pulse current sources.
//!
//! Two transient engines reproduce the paper's trade-off:
//!
//! - [`transient::simulate_direct`] — fixed time step (limited by the
//!   smallest breakpoint distance of the sources), one factorization of
//!   `G + C/h`, substitutions per step. Its variable-step sibling
//!   [`transient::simulate_direct_varied`] runs the same stepping loop
//!   over the breakpoint grid and refactorizes whenever `h` changes;
//! - [`transient::simulate_pcg`] — breakpoint-driven *variable* steps,
//!   PCG per step, preconditioned once from the DC-analysis sparsifier.
//!
//! # Example
//!
//! ```
//! use tracered_powergrid::synth::{synthesize, SynthConfig};
//! use tracered_powergrid::transient::{simulate_direct, TransientConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pg = synthesize(&SynthConfig { mesh: 8, ..Default::default() });
//! let cfg = TransientConfig { t_end: 1e-9, fixed_step: Some(1e-11), ..Default::default() };
//! let out = simulate_direct(&pg, &cfg, &[0])?;
//! assert_eq!(out.probes.len(), 1);
//! assert!(out.stats.steps > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// MNA assembly walks parallel per-node arrays by position; index loops
// are the clearer idiom there.
#![allow(clippy::needless_range_loop)]

#[warn(clippy::unwrap_used)]
pub mod contingency;
pub mod netlist;
pub mod synth;
#[warn(clippy::unwrap_used)]
pub mod transient;
#[warn(clippy::unwrap_used)]
pub mod waveform;

pub use contingency::{
    simulate_contingency_batch, simulate_contingency_refactor, ContingencyConfig,
    ContingencyMethod, ContingencySweep, EpochHook, Outage, OutageEvent, OutageFailure,
    OutageFailureKind, OutageOutcome, OutageSolve,
};
pub use netlist::{CurrentSource, PowerGrid};
pub use transient::{
    simulate_pcg_batch_outcomes, ScenarioFailure, ScenarioFailureKind, ScenarioOutcome,
};
pub use waveform::PulseWaveform;
