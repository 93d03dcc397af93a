//! Synthetic power-grid benchmark generation.
//!
//! The IBM [Nassif 2008] and THU [Yang & Li 2012] grids the paper uses
//! are not redistributable here, so this module generates grids with the
//! same physics, following the paper's own augmentation recipe: to the
//! resistive mesh it adds "capacitances with values randomly ranging from
//! 1 pF to 10 pF … and periodic pulse currents … at each current source".
//! Mesh conductances, pad placement and source placement are randomized
//! but seeded, so every benchmark case is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tracered_graph::gen::{grid2d, WeightProfile};

use crate::netlist::{CurrentSource, PowerGrid};
use crate::waveform::PulseWaveform;

/// Parameters of the synthetic grid generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Mesh is `mesh × mesh` nodes.
    pub mesh: usize,
    /// Mesh conductances are log-uniform in `[g_lo, g_hi]` siemens.
    pub g_lo: f64,
    /// Upper conductance bound.
    pub g_hi: f64,
    /// One C4 pad every `pad_pitch` nodes in each direction.
    pub pad_pitch: usize,
    /// Pad conductance to the ideal supply (siemens).
    pub pad_conductance: f64,
    /// Node capacitances are uniform in `[c_lo, c_hi]` farads
    /// (paper: 1–10 pF).
    pub c_lo: f64,
    /// Upper capacitance bound.
    pub c_hi: f64,
    /// Fraction of nodes carrying a switching current source.
    pub source_fraction: f64,
    /// Peak source current (amperes); amplitudes are uniform in
    /// `[0, peak]`.
    pub peak_current: f64,
    /// Supply voltage.
    pub vdd: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            mesh: 32,
            g_lo: 1.0,
            g_hi: 10.0,
            pad_pitch: 8,
            pad_conductance: 50.0,
            c_lo: 1e-12,
            c_hi: 10e-12,
            source_fraction: 0.1,
            peak_current: 5e-3,
            vdd: 1.8,
            seed: 0xcafe,
        }
    }
}

/// Generates a synthetic power grid.
///
/// # Panics
///
/// Panics if `mesh == 0` or `pad_pitch == 0`.
pub fn synthesize(cfg: &SynthConfig) -> PowerGrid {
    assert!(cfg.mesh > 0, "mesh must be positive");
    assert!(cfg.pad_pitch > 0, "pad pitch must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.mesh;
    let n = k * k;
    let graph = grid2d(k, k, WeightProfile::LogUniform { lo: cfg.g_lo, hi: cfg.g_hi }, cfg.seed);
    // Pads on a coarse sub-grid (offset to avoid the boundary).
    let mut pad = vec![0.0; n];
    let off = cfg.pad_pitch / 2;
    let mut r = off;
    while r < k {
        let mut c = off;
        while c < k {
            pad[r * k + c] = cfg.pad_conductance;
            c += cfg.pad_pitch;
        }
        r += cfg.pad_pitch;
    }
    // Guarantee at least one pad.
    if pad.iter().all(|&g| g == 0.0) {
        pad[0] = cfg.pad_conductance;
    }
    // Capacitances 1–10 pF (paper's augmentation of the THU grids).
    let cap: Vec<f64> = (0..n).map(|_| rng.random_range(cfg.c_lo..cfg.c_hi)).collect();
    // Periodic pulse sources at a random subset of non-pad nodes.
    let mut sources = Vec::new();
    let mut async_budget = 2usize;
    for node in 0..n {
        if pad[node] > 0.0 || rng.random::<f64>() >= cfg.source_fraction {
            continue;
        }
        // Pulse timing quantised to a 50 ps lattice so breakpoints align
        // across sources (mirrors clocked switching activity); periods
        // 0.5–2 ns, edges 50–200 ps. A handful of sources switches
        // asynchronously (continuous delays) — enough to force a
        // varied-step direct solver to refactorize (paper §4.2) without
        // shattering the breakpoint grid.
        let lattice = 5e-11;
        // Deterministic sprinkling: the 8th and 37th sources (when they
        // exist) switch asynchronously.
        let is_async = async_budget > 0 && (sources.len() == 7 || sources.len() == 36);
        let delay = if is_async {
            async_budget -= 1;
            rng.random_range(0.0..8.0 * lattice)
        } else {
            rng.random_range(0..8) as f64 * lattice
        };
        let rise = rng.random_range(1..4) as f64 * lattice;
        let width = rng.random_range(0..6) as f64 * lattice;
        let fall = rng.random_range(1..4) as f64 * lattice;
        let min_period = delay.max(rise + width + fall) + lattice;
        // Asynchronous blocks switch slowly: they disturb the step grid
        // enough to force direct-solver refactorizations without
        // shattering it.
        let period_range = if is_async { 30..40 } else { 10..40 };
        let period = (rng.random_range(period_range) as f64 * lattice).max(min_period);
        sources.push(CurrentSource {
            node,
            waveform: PulseWaveform {
                delay,
                rise,
                width,
                fall,
                period,
                amplitude: rng.random_range(0.0..cfg.peak_current),
            },
        });
    }
    // Guarantee at least one source so transients are non-trivial.
    if sources.is_empty() {
        sources.push(CurrentSource {
            node: n / 2,
            waveform: PulseWaveform {
                delay: 5e-11,
                rise: 5e-11,
                width: 1e-10,
                fall: 5e-11,
                period: 1e-9,
                amplitude: cfg.peak_current,
            },
        });
    }
    PowerGrid::new(graph, pad, cap, sources, cfg.vdd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_well_formed() {
        let pg = synthesize(&SynthConfig::default());
        assert_eq!(pg.num_nodes(), 32 * 32);
        assert!(pg.graph().is_connected());
        assert!(pg.pad_conductance().iter().any(|&g| g > 0.0));
        assert!(!pg.sources().is_empty());
        assert!(pg.capacitance().iter().all(|&c| (1e-12..10e-12).contains(&c)));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = synthesize(&SynthConfig::default());
        let b = synthesize(&SynthConfig::default());
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.pad_conductance(), b.pad_conductance());
        assert_eq!(a.sources().len(), b.sources().len());
        let c = synthesize(&SynthConfig { seed: 1, ..Default::default() });
        assert_ne!(a.graph(), c.graph());
    }

    #[test]
    fn small_mesh_still_gets_pad_and_source() {
        let pg = synthesize(&SynthConfig { mesh: 3, pad_pitch: 50, ..Default::default() });
        assert!(pg.pad_conductance().iter().any(|&g| g > 0.0));
        assert!(!pg.sources().is_empty());
    }

    #[test]
    fn dc_analysis_is_solvable_and_near_vdd() {
        let pg = synthesize(&SynthConfig { mesh: 12, ..Default::default() });
        let g = pg.conductance_matrix();
        let solver = tracered_solver::DirectSolver::new_threads(&g, 1).unwrap();
        let v = solver.solve(&pg.dc_rhs());
        for &vi in &v {
            assert!(vi > 0.5 * pg.vdd() && vi <= pg.vdd() + 1e-9, "node voltage {vi}");
        }
    }

    #[test]
    fn source_waveforms_have_positive_periods() {
        let pg = synthesize(&SynthConfig { mesh: 16, source_fraction: 0.5, ..Default::default() });
        for s in pg.sources() {
            let w = s.waveform;
            assert!(w.period > 0.0);
            assert!(w.period >= w.rise + w.width + w.fall);
            assert!(w.min_breakpoint_gap() > 0.0);
        }
    }
}
