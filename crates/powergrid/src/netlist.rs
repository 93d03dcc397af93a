//! The power-grid circuit model and its MNA matrices.

use std::sync::{Arc, OnceLock};

use tracered_graph::laplacian::laplacian_with_shifts;
use tracered_graph::Graph;
use tracered_sparse::CscMatrix;

use crate::waveform::PulseWaveform;

/// A pulse current source attached to a grid node (a switching block
/// drawing current from the rail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSource {
    /// Node the block draws current from.
    pub node: usize,
    /// The draw waveform.
    pub waveform: PulseWaveform,
}

/// A VDD power-distribution network: mesh resistors, C4 pad conductances
/// to the ideal supply, node decoupling capacitances and switching
/// current sources.
#[derive(Debug, Clone)]
pub struct PowerGrid {
    graph: Graph,
    pad_conductance: Vec<f64>,
    capacitance: Vec<f64>,
    sources: Vec<CurrentSource>,
    vdd: f64,
    /// Lazily assembled `G`, shared by every engine that borrows the
    /// grid — the batch transient loops used to reassemble (and then
    /// deep-clone) it on every call.
    conductance: OnceLock<Arc<CscMatrix>>,
}

// Shared-handle audit: the service layer publishes `Arc<PowerGrid>` to
// concurrent request handlers; the memoized matrix must not cost `Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PowerGrid>();
};

impl PowerGrid {
    /// Assembles a power grid.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths disagree with the node count, a source
    /// node is out of bounds, or any pad conductance / capacitance is
    /// negative or non-finite.
    pub fn new(
        graph: Graph,
        pad_conductance: Vec<f64>,
        capacitance: Vec<f64>,
        sources: Vec<CurrentSource>,
        vdd: f64,
    ) -> Self {
        let n = graph.num_nodes();
        assert_eq!(pad_conductance.len(), n, "one pad conductance per node");
        assert_eq!(capacitance.len(), n, "one capacitance per node");
        assert!(
            pad_conductance.iter().all(|&g| g.is_finite() && g >= 0.0),
            "pad conductances must be finite and non-negative"
        );
        assert!(
            capacitance.iter().all(|&c| c.is_finite() && c >= 0.0),
            "capacitances must be finite and non-negative"
        );
        assert!(sources.iter().all(|s| s.node < n), "source nodes must be in bounds");
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive");
        PowerGrid {
            graph,
            pad_conductance,
            capacitance,
            sources,
            vdd,
            conductance: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The resistor mesh as a graph (conductances as edge weights).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Per-node pad conductances (zero away from C4 pads).
    pub fn pad_conductance(&self) -> &[f64] {
        &self.pad_conductance
    }

    /// Per-node capacitances (farads).
    pub fn capacitance(&self) -> &[f64] {
        &self.capacitance
    }

    /// The switching current sources.
    pub fn sources(&self) -> &[CurrentSource] {
        &self.sources
    }

    /// Ideal supply voltage.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The conductance matrix `G`: mesh Laplacian plus pad conductances on
    /// the diagonal. This is the SDD system of DC analysis, and the matrix
    /// the graph sparsifier approximates.
    pub fn conductance_matrix(&self) -> CscMatrix {
        (*self.conductance_shared()).clone()
    }

    /// The conductance matrix as a shared immutable handle, assembled on
    /// first use and memoized. The transient engines and the service
    /// layer borrow this instead of reassembling `G` per call; the
    /// assembly is deterministic, so the cached matrix is bit-identical
    /// to what [`PowerGrid::conductance_matrix`] used to rebuild.
    pub fn conductance_shared(&self) -> Arc<CscMatrix> {
        Arc::clone(
            self.conductance.get_or_init(|| {
                Arc::new(laplacian_with_shifts(&self.graph, &self.pad_conductance))
            }),
        )
    }

    /// The backward-Euler system matrix `G + C/h` for step size `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h <= 0`.
    pub fn transient_matrix(&self, h: f64) -> CscMatrix {
        assert!(h > 0.0, "time step must be positive");
        let shifts: Vec<f64> = self
            .pad_conductance
            .iter()
            .zip(self.capacitance.iter())
            .map(|(&g, &c)| g + c / h)
            .collect();
        laplacian_with_shifts(&self.graph, &shifts)
    }

    /// Backward-Euler right-hand side at time `t_next`:
    /// `b = (C/h)·v_prev + G_pad·VDD − I(t_next)`.
    ///
    /// # Panics
    ///
    /// Panics if `v_prev.len()` differs from the node count or `h <= 0`.
    pub fn transient_rhs(&self, t_next: f64, h: f64, v_prev: &[f64], out: &mut [f64]) {
        self.transient_rhs_scaled(t_next, h, v_prev, None, out);
    }

    /// [`PowerGrid::transient_rhs`] with per-source amplitude scaling —
    /// the batch transient engine's per-scenario right-hand side.
    /// `source_scale[i]` multiplies source `i`'s draw; `None` means the
    /// nominal ensemble (every scale `1.0`, bit-identical to the unscaled
    /// path).
    ///
    /// # Panics
    ///
    /// Panics on the [`PowerGrid::transient_rhs`] conditions, or if a
    /// scale slice's length differs from the source count.
    pub fn transient_rhs_scaled(
        &self,
        t_next: f64,
        h: f64,
        v_prev: &[f64],
        source_scale: Option<&[f64]>,
        out: &mut [f64],
    ) {
        let n = self.num_nodes();
        assert_eq!(v_prev.len(), n, "previous state length must equal node count");
        assert_eq!(out.len(), n, "output length must equal node count");
        assert!(h > 0.0, "time step must be positive");
        if let Some(scale) = source_scale {
            assert_eq!(scale.len(), self.sources.len(), "one scale per source");
        }
        for i in 0..n {
            out[i] = self.capacitance[i] / h * v_prev[i] + self.pad_conductance[i] * self.vdd;
        }
        for (k, s) in self.sources.iter().enumerate() {
            let scale = source_scale.map_or(1.0, |sc| sc[k]);
            out[s.node] -= scale * s.waveform.value(t_next);
        }
    }

    /// DC right-hand side: `b = G_pad·VDD − I(0)`.
    pub fn dc_rhs(&self) -> Vec<f64> {
        self.dc_rhs_scaled(None)
    }

    /// [`PowerGrid::dc_rhs`] with per-source amplitude scaling (`None`
    /// means nominal, scale `1.0` everywhere).
    ///
    /// # Panics
    ///
    /// Panics if a scale slice's length differs from the source count.
    pub fn dc_rhs_scaled(&self, source_scale: Option<&[f64]>) -> Vec<f64> {
        if let Some(scale) = source_scale {
            assert_eq!(scale.len(), self.sources.len(), "one scale per source");
        }
        let mut b: Vec<f64> = self.pad_conductance.iter().map(|&g| g * self.vdd).collect();
        for (k, s) in self.sources.iter().enumerate() {
            let scale = source_scale.map_or(1.0, |sc| sc[k]);
            b[s.node] -= scale * s.waveform.value(0.0);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::PulseWaveform;

    fn tiny() -> PowerGrid {
        // 3-node chain, pad at node 0.
        let graph = Graph::from_edges(3, &[(0, 1, 10.0), (1, 2, 10.0)]).unwrap();
        let wave = PulseWaveform {
            delay: 0.0,
            rise: 1e-10,
            width: 1e-10,
            fall: 1e-10,
            period: 1e-9,
            amplitude: 0.001,
        };
        PowerGrid::new(
            graph,
            vec![100.0, 0.0, 0.0],
            vec![1e-12, 2e-12, 3e-12],
            vec![CurrentSource { node: 2, waveform: wave }],
            1.8,
        )
    }

    #[test]
    fn conductance_matrix_is_spd() {
        let pg = tiny();
        let g = pg.conductance_matrix();
        assert!(g.is_symmetric());
        assert!(g.to_dense().cholesky().is_ok());
        assert_eq!(g.get(0, 0), 110.0);
    }

    #[test]
    fn transient_matrix_adds_c_over_h() {
        let pg = tiny();
        let h = 1e-11;
        let m = pg.transient_matrix(h);
        let g = pg.conductance_matrix();
        assert!((m.get(1, 1) - (g.get(1, 1) + 2e-12 / h)).abs() < 1e-9);
        assert_eq!(m.get(0, 1), g.get(0, 1));
    }

    #[test]
    fn dc_rhs_balances_pads_and_sources() {
        let pg = tiny();
        let b = pg.dc_rhs();
        assert!((b[0] - 180.0).abs() < 1e-12);
        assert_eq!(b[1], 0.0);
        assert_eq!(b[2], 0.0); // pulse value at t = 0 is 0 (start of rise)
    }

    #[test]
    fn transient_rhs_combines_history_pads_and_draw() {
        let pg = tiny();
        let h = 1e-10;
        let v_prev = vec![1.8, 1.7, 1.6];
        let mut b = vec![0.0; 3];
        // At t = 1.5e-10 the pulse is on its plateau: draw = 1 mA.
        pg.transient_rhs(1.5e-10, h, &v_prev, &mut b);
        assert!((b[0] - (1e-12 / h * 1.8 + 180.0)).abs() < 1e-9);
        assert!((b[1] - 2e-12 / h * 1.7).abs() < 1e-12);
        assert!((b[2] - (3e-12 / h * 1.6 - 0.001)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pad conductances")]
    fn negative_pad_is_rejected() {
        let graph = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        PowerGrid::new(graph, vec![-1.0, 0.0], vec![0.0, 0.0], vec![], 1.8);
    }

    #[test]
    #[should_panic(expected = "source nodes")]
    fn out_of_bounds_source_is_rejected() {
        let graph = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let wave = PulseWaveform {
            delay: 0.0,
            rise: 1e-10,
            width: 0.0,
            fall: 1e-10,
            period: 1e-9,
            amplitude: 1.0,
        };
        PowerGrid::new(
            graph,
            vec![1.0, 0.0],
            vec![0.0, 0.0],
            vec![CurrentSource { node: 9, waveform: wave }],
            1.8,
        );
    }
}
