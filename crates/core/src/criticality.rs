//! The trace-reduction spectral-criticality metric (paper §3.1–3.2).
//!
//! Recovering off-subgraph edge `(p, q)` with weight `w` changes the trace
//! of `L_S⁻¹ L_G` by (paper Eq. 11)
//!
//! ```text
//!                  w · Σ_{(i,j)∈E} w_ij (e_ijᵀ L_S⁻¹ e_pq)²
//! TrRed_S(p, q) = ───────────────────────────────────────────
//!                           1 + w · R_S(p, q)
//! ```
//!
//! Computing the full sum for every candidate is `Ω(m²)`; the paper's
//! physics-inspired truncation keeps only the terms where
//! `e_ijᵀ L_S⁻¹ e_pq` is large — edges near the injection points. In the
//! electrical analogy, `e_ijᵀ L_S⁻¹ e_pq` is the voltage drop across
//! `(i, j)` when a unit current enters the subgraph at `p` and leaves at
//! `q`; the significant drops occur between the high-voltage region around
//! `p` and the low-voltage region around `q`, hence the β-layer BFS
//! neighbourhood restriction of Eq. 12.
//!
//! Two evaluators are provided:
//!
//! - [`tree_phase_scores`]: exact voltage propagation when `S` is a tree
//!   (Eqs. 13–15) — current flows only along the unique `p→q` tree path,
//!   so node voltages follow from a BFS that drops the voltage across path
//!   edges. A tree edge is on the path exactly when one of `p`, `q` lies
//!   in the subtree below it, which the tree's preorder intervals answer
//!   in `O(1)` ([`RootedTree::is_ancestor`]); no path is walked.
//! - [`subgraph_phase_scores`]: general subgraphs via the sparse
//!   approximate inverse `Z̃ ≈ L⁻¹` of the Cholesky factor (Eq. 20). Each
//!   call first builds a flat table of every node's β-ball in the
//!   subgraph, in BFS order, so a node's ball is computed once per call
//!   instead of once per incident candidate. Per candidate, `z̃_pq` is
//!   scattered densely, `q`'s ball is stamped from the table, `p`'s ball
//!   is walked from it, and each node voltage `z̃_iᵀ z̃_pq` is computed at
//!   most once (memoized under the candidate's stamp).
//!
//! Both keep the summation order of the plain evaluators — `p`'s ball in
//! BFS order, then each node's adjacency order, each cross edge counted
//! once — so the scores are bit-identical to walking the path and running
//! a fresh BFS per candidate (`crates/core/tests/scoring_oracle.rs` holds
//! them to such a reference under `to_bits`).
//!
//! # Parallel evaluation
//!
//! Each candidate's score depends only on read-only shared state (graph,
//! tree, factor, approximate inverse, ball table) plus private scratch,
//! so scoring is embarrassingly parallel, and the order in which
//! candidates are evaluated is free. Both evaluators score them in a
//! locality order: candidate positions bucketed by the smaller BFS rank
//! of their two endpoints, so consecutive candidates share Z̃ columns,
//! ball-table rows and adjacency lists in cache (the callers' Kruskal
//! order puts them far apart). The `_threads` variants
//! ([`tree_phase_scores_threads`], [`subgraph_phase_scores_threads`])
//! cut the evaluation positions into chunks on a work-stealing scheduler
//! ([`tracered_par`]) with one scratch arena per worker, and scatter the
//! evaluated scores back once, so outputs stay index-aligned with the
//! input and **bit-identical** to the serial path for every thread count
//! and every input order, because each score is computed by exactly the
//! same per-candidate code under its own stamp either way. The ball
//! table is built on the same workers in node chunks concatenated in
//! chunk order, so it too is the same at every thread count.

use tracered_graph::bfs::bfs;
use tracered_graph::tree::NO_NODE;
use tracered_graph::{Graph, RootedTree};
use tracered_sparse::sparsevec::{dot, dot_dense};
use tracered_sparse::{ApproxInverse, CholeskyFactor};

/// Minimum candidates per chunk: a β-layer BFS costs far more than queue
/// traffic, so modest chunks still amortise scratch reuse while giving
/// the scheduler enough pieces to balance skewed neighbourhood sizes.
const MIN_CHUNK: usize = 16;

/// Why the [`bfs`] sweeps cannot fail: node ids fit in `u32`, as the
/// approximate inverse's row indices do.
const U32_IDS: &str = "node ids fit in u32";

/// Reusable scratch for tree-phase scoring — one arena per worker.
struct TreeScratch {
    stamp: u64,
    p: TreeBall,
    q: TreeBall,
    edge_stamp: Vec<u64>,
}

impl TreeScratch {
    fn new(n: usize, m: usize) -> Self {
        TreeScratch { stamp: 0, p: TreeBall::new(n), q: TreeBall::new(n), edge_stamp: vec![0; m] }
    }

    /// Recycling factory for the pool's per-worker scratch cache: a
    /// cached arena is valid whenever its dimensions match — the stamp
    /// counter keeps incrementing, which is exactly how stale entries
    /// are invalidated within a region already. Anything else (other
    /// graph, other densification level) is rebuilt from scratch.
    fn recycle(cached: Option<Self>, n: usize, m: usize) -> Self {
        match cached {
            Some(s) if s.p.member.len() == n && s.edge_stamp.len() == m => s,
            _ => TreeScratch::new(n, m),
        }
    }
}

/// Scores one candidate against the spanning tree (the body of the
/// serial loop, shared verbatim by the serial and parallel paths).
fn tree_phase_score_one(
    g: &Graph,
    tree: &RootedTree,
    eid: usize,
    r: f64,
    beta: usize,
    s: &mut TreeScratch,
) -> f64 {
    let e = g.edge(eid);
    let (p, q, w) = (e.u, e.v, e.weight);
    s.stamp += 1;
    let stamp = s.stamp;
    // BFS β layers from p in the tree; v(p) = R, dropping across path
    // edges only (Eq. 13).
    s.p.fill(g, tree, (p, q), p, beta, r, -1.0, stamp);
    // BFS β layers from q; v(q) = 0, rising across path edges (Eq. 14).
    s.q.fill(g, tree, (p, q), q, beta, 0.0, 1.0, stamp);
    // Σ over graph edges (i, j) with i ∈ N(p, β), j ∈ N(q, β).
    let mut sum = 0.0;
    for &i in &s.p.ball {
        for &(j, cross_eid) in g.neighbors(i) {
            if s.q.member[j] != stamp || s.edge_stamp[cross_eid] == stamp {
                continue;
            }
            s.edge_stamp[cross_eid] = stamp;
            let drop = s.p.volt[i] - s.q.volt[j];
            sum += g.edge(cross_eid).weight * drop * drop;
        }
    }
    w * sum / (1.0 + w * r)
}

/// Scores all `candidates` (off-tree edge ids of `g`) against the spanning
/// tree using the truncated trace reduction of Eq. 15.
///
/// `resistances[k]` must hold the tree effective resistance
/// `R_T(p_k, q_k)` of candidate `k` (batch-computed with
/// [`tracered_graph::lca::tree_resistances`]). `beta` is the BFS
/// truncation radius.
///
/// Returns one score per candidate, aligned with the input order.
///
/// # Panics
///
/// Panics if `resistances.len() != candidates.len()` or an edge id is out
/// of bounds.
pub fn tree_phase_scores(
    g: &Graph,
    tree: &RootedTree,
    candidates: &[usize],
    resistances: &[f64],
    beta: usize,
) -> Vec<f64> {
    tree_phase_scores_threads(g, tree, candidates, resistances, beta, 1)
}

/// [`tree_phase_scores`] evaluated on `threads` workers.
///
/// Candidates are scored in a locality order (bucketed by the smaller
/// BFS rank over `g` of their endpoints) in chunks on a work-stealing
/// queue; each worker owns a private scratch arena (stamps, voltages,
/// balls), so scores are bit-identical to the serial path and aligned
/// with the input order.
///
/// # Panics
///
/// Same conditions as [`tree_phase_scores`].
pub fn tree_phase_scores_threads(
    g: &Graph,
    tree: &RootedTree,
    candidates: &[usize],
    resistances: &[f64],
    beta: usize,
    threads: usize,
) -> Vec<f64> {
    assert_eq!(candidates.len(), resistances.len(), "one resistance per candidate is required");
    if candidates.is_empty() {
        return Vec::new();
    }
    let n = g.num_nodes();
    let m = g.num_edges();
    score_in_order(
        &evaluation_order(g, candidates),
        threads,
        |cached| TreeScratch::recycle(cached, n, m),
        |scratch, k| tree_phase_score_one(g, tree, candidates[k], resistances[k], beta, scratch),
    )
}

/// The order in which the evaluators score `candidates` (edge ids of
/// `g`): the positions `0..candidates.len()`, bucketed by the smaller
/// BFS rank of each candidate's two endpoints, input order within a
/// bucket.
///
/// The rank comes from one BFS over `g` ([`bfs`] unbounded from node 0,
/// then from each unvisited node in id order under the same stamp, so
/// every component is ranked): the level order of Cuthill–McKee without
/// its degree sort. Unlike the node ids it keeps neighbouring candidates
/// close on any node numbering. The bucketing is a stable counting sort,
/// `O(n + k)`.
fn evaluation_order(g: &Graph, candidates: &[usize]) -> Vec<usize> {
    let n = g.num_nodes();
    let mut seen = vec![0u64; n];
    let mut queue = Vec::with_capacity(n);
    for root in 0..n {
        bfs(g, root, usize::MAX, 1, &mut seen, &mut queue).expect(U32_IDS);
    }
    let mut rank = vec![0usize; n];
    for (r, &v) in queue.iter().enumerate() {
        rank[v as usize] = r;
    }
    let bucket: Vec<usize> = candidates
        .iter()
        .map(|&id| {
            let e = g.edge(id);
            rank[e.u].min(rank[e.v])
        })
        .collect();
    // `next[b]` is the first free position of bucket `b`.
    let mut next = vec![0usize; n + 1];
    for &b in &bucket {
        next[b + 1] += 1;
    }
    for b in 0..n {
        next[b + 1] += next[b];
    }
    let mut order = vec![0usize; candidates.len()];
    for (k, &b) in bucket.iter().enumerate() {
        order[next[b]] = k;
        next[b] += 1;
    }
    order
}

/// Scores the candidate positions in `order` on `threads` workers, one
/// `scratch` arena per worker, and returns the scores aligned with the
/// positions: slot `k` holds `score(_, k)`. Chunks run over evaluation
/// positions into one buffer, which is scattered once at the end.
fn score_in_order<S: 'static>(
    order: &[usize],
    threads: usize,
    scratch: impl Fn(Option<S>) -> S + Sync,
    score: impl Fn(&mut S, usize) -> f64 + Sync,
) -> Vec<f64> {
    let mut evaluated = vec![0.0f64; order.len()];
    let chunk = tracered_par::chunk_size(order.len(), threads, MIN_CHUNK);
    tracered_par::par_chunks_mut_scratch(
        &mut evaluated,
        chunk,
        threads,
        scratch,
        |s, start, out| {
            for (slot, &k) in out.iter_mut().zip(&order[start..]) {
                *slot = score(s, k);
            }
        },
    );
    let mut scores = vec![0.0f64; order.len()];
    for (&k, &v) in order.iter().zip(&evaluated) {
        scores[k] = v;
    }
    scores
}

/// One endpoint's side of a tree-phase candidate: visit marks, node
/// voltages, and the ball in BFS order, which doubles as the BFS queue.
struct TreeBall {
    member: Vec<u64>,
    volt: Vec<f64>,
    ball: Vec<usize>,
}

impl TreeBall {
    fn new(n: usize) -> Self {
        TreeBall { member: vec![0; n], volt: vec![0.0; n], ball: Vec::new() }
    }

    /// Level-synchronous BFS over the tree adjacency (parent first, then
    /// children) from `start`, `beta` levels deep, assigning node
    /// voltages per Eqs. 13–14: the voltage changes by `sign / w_edge`
    /// across edges of the `p`–`q` path and is copied verbatim across
    /// the others. The edge above child `c` is on the path exactly when
    /// one of `p`, `q` lies in `c`'s subtree.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &mut self,
        g: &Graph,
        tree: &RootedTree,
        (p, q): (usize, usize),
        start: usize,
        beta: usize,
        start_voltage: f64,
        sign: f64,
        stamp: u64,
    ) {
        self.member[start] = stamp;
        self.volt[start] = start_voltage;
        self.ball.clear();
        self.ball.push(start);
        let mut level = 0..1;
        for _ in 0..beta {
            for at in level.clone() {
                let x = self.ball[at];
                let vx = self.volt[x];
                // Tree neighbours of x, each with the child end `c` of
                // the edge joining them: the parent, then the children.
                let parent = tree.parent(x);
                let up = (parent != NO_NODE).then_some((parent, x));
                let down = tree.children(x).iter().map(|&c| (c, c));
                for (nbr, c) in up.into_iter().chain(down) {
                    if self.member[nbr] == stamp {
                        continue;
                    }
                    self.member[nbr] = stamp;
                    self.volt[nbr] = if tree.is_ancestor(c, p) != tree.is_ancestor(c, q) {
                        vx + sign / g.edge(tree.parent_edge(c)).weight
                    } else {
                        vx
                    };
                    self.ball.push(nbr);
                }
            }
            level = level.end..self.ball.len();
            if level.is_empty() {
                break;
            }
        }
    }
}

/// Scores all `candidates` (off-subgraph edge ids of `g`) against a
/// general subgraph using the SPAI-based approximation of Eq. 20.
///
/// Arguments:
///
/// - `subgraph`: the current sparsifier as a graph over the same node set
///   (used for the β-layer BFS — the electrical model lives in `S`);
/// - `factor`: Cholesky factorization of the subgraph Laplacian `L_S`;
/// - `zinv`: Algorithm 1 output for `factor.l()`;
/// - `beta`: BFS truncation radius.
///
/// Returns one score per candidate, aligned with the input order.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn subgraph_phase_scores(
    g: &Graph,
    subgraph: &Graph,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    candidates: &[usize],
    beta: usize,
) -> Vec<f64> {
    subgraph_phase_scores_threads(g, subgraph, factor, zinv, candidates, beta, 1)
}

/// Every node's β-ball in the subgraph, in the order a FIFO BFS visits
/// it ([`bfs`] with a fresh stamp per node): ball `v` is
/// `nodes[offsets[v]..offsets[v + 1]]`. It holds `Σ_v |ball(v)|`
/// entries, so its size grows with β like the work of the per-candidate
/// BFS it replaces.
struct BallTable {
    offsets: Vec<usize>,
    nodes: Vec<u32>,
}

impl BallTable {
    /// Builds the table on `threads` workers, one node chunk per thread,
    /// and concatenates the chunks in node order.
    fn build(subgraph: &Graph, beta: usize, threads: usize, m: usize) -> Self {
        let n = subgraph.num_nodes();
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let mut parts: Vec<(Vec<u32>, Vec<usize>)> = vec![Default::default(); n.div_ceil(chunk)];
        tracered_par::par_chunks_mut_scratch(
            &mut parts,
            1,
            threads,
            |cached| SubgraphScratch::recycle(cached, n, m),
            |scratch, k, out| {
                let (nodes, ends) = &mut out[0];
                for v in k * chunk..n.min((k + 1) * chunk) {
                    scratch.stamp += 1;
                    bfs(subgraph, v, beta, scratch.stamp, &mut scratch.member_q, nodes)
                        .expect(U32_IDS);
                    ends.push(nodes.len());
                }
            },
        );
        let mut parts = parts.into_iter();
        let (mut nodes, ends) = parts.next().unwrap_or_default();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        offsets.extend(ends);
        for (more, ends) in parts {
            let base = nodes.len();
            offsets.extend(ends.iter().map(|&e| base + e));
            nodes.extend_from_slice(&more);
        }
        BallTable { offsets, nodes }
    }

    fn ball(&self, v: usize) -> &[u32] {
        &self.nodes[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Reusable scratch for subgraph-phase scoring — one arena per worker.
struct SubgraphScratch {
    stamp: u64,
    /// Marks `q`'s ball per candidate; BFS marks while building balls.
    member_q: Vec<u64>,
    edge_stamp: Vec<u64>,
    /// Memoized node voltages `z̃_iᵀ z̃_pq`, valid where `volt_stamp`
    /// equals the candidate's stamp.
    volt_stamp: Vec<u64>,
    volt: Vec<f64>,
    /// Dense scatter of z̃_pq (in permuted index space).
    zpq_dense: Vec<f64>,
    zpq_touched: Vec<usize>,
}

impl SubgraphScratch {
    fn new(n: usize, m: usize) -> Self {
        SubgraphScratch {
            stamp: 0,
            member_q: vec![0; n],
            edge_stamp: vec![0; m],
            volt_stamp: vec![0; n],
            volt: vec![0.0; n],
            zpq_dense: vec![0.0; n],
            zpq_touched: Vec::new(),
        }
    }

    /// Recycling factory (see [`TreeScratch::recycle`]): dimension match
    /// suffices — stamps stay monotone and `zpq_dense` is rezeroed via
    /// `zpq_touched` after every candidate, so a cached arena meets the
    /// same invariants as a fresh one.
    fn recycle(cached: Option<Self>, n: usize, m: usize) -> Self {
        match cached {
            Some(s) if s.member_q.len() == n && s.edge_stamp.len() == m => s,
            _ => SubgraphScratch::new(n, m),
        }
    }

    /// The voltage `z̃_iᵀ z̃_pq` of node `i` (original id) for the current
    /// candidate, computed on first use and memoized under its stamp.
    fn voltage(&mut self, zinv: &ApproxInverse, old_to_new: &[usize], i: usize) -> f64 {
        if self.volt_stamp[i] != self.stamp {
            self.volt_stamp[i] = self.stamp;
            self.volt[i] = dot_dense(zinv.column(old_to_new[i]), &self.zpq_dense);
        }
        self.volt[i]
    }
}

/// Scores one candidate against the current subgraph (the body of the
/// serial loop, shared verbatim by the serial and parallel paths).
fn subgraph_phase_score_one(
    g: &Graph,
    zinv: &ApproxInverse,
    old_to_new: &[usize],
    balls: &BallTable,
    eid: usize,
    s: &mut SubgraphScratch,
) -> f64 {
    let e = g.edge(eid);
    let (p, q, w) = (e.u, e.v, e.weight);
    s.stamp += 1;
    let stamp = s.stamp;
    // z̃_pq = z̃_p − z̃_q in permuted space.
    let zp = zinv.column(old_to_new[p]);
    let zq = zinv.column(old_to_new[q]);
    // Scatter and record touched entries for cheap clearing.
    for (&i, &v) in zp.0.iter().zip(zp.1) {
        let i = i as usize;
        if s.zpq_dense[i] == 0.0 {
            s.zpq_touched.push(i);
        }
        s.zpq_dense[i] += v;
    }
    for (&i, &v) in zq.0.iter().zip(zq.1) {
        let i = i as usize;
        if s.zpq_dense[i] == 0.0 {
            s.zpq_touched.push(i);
        }
        s.zpq_dense[i] -= v;
    }
    // R̃(p, q) = ‖z̃_pq‖² (since e_pqᵀ L_S⁻¹ e_pq = ‖L⁻¹ e_pq‖²).
    let norm_sq = |values: &[f64]| -> f64 { values.iter().map(|v| v * v).sum() };
    let r_approx = norm_sq(zp.1) - 2.0 * dot(zp, zq) + norm_sq(zq.1);
    // β-layer neighbourhoods in the subgraph, from the table.
    for &j in balls.ball(q) {
        s.member_q[j as usize] = stamp;
    }
    // Σ over graph edges (i, j), i ∈ N_S(p, β), j ∈ N_S(q, β).
    let mut sum = 0.0;
    for &i in balls.ball(p) {
        let i = i as usize;
        for &(j, cross_eid) in g.neighbors(i) {
            if s.member_q[j] != stamp || s.edge_stamp[cross_eid] == stamp {
                continue;
            }
            s.edge_stamp[cross_eid] = stamp;
            let di = s.voltage(zinv, old_to_new, i);
            let dj = s.voltage(zinv, old_to_new, j);
            let drop = di - dj;
            sum += g.edge(cross_eid).weight * drop * drop;
        }
    }
    // Clear the scatter buffer.
    for &i in &s.zpq_touched {
        s.zpq_dense[i] = 0.0;
    }
    s.zpq_touched.clear();
    w * sum / (1.0 + w * r_approx)
}

/// [`subgraph_phase_scores`] evaluated on `threads` workers.
///
/// Same evaluation order, work-stealing decomposition and determinism
/// contract as [`tree_phase_scores_threads`]: one scratch arena (stamps,
/// voltage memo, z̃ scatter buffer) per worker, bit-identical
/// index-aligned output. The β-ball table is built first, on the same
/// workers.
///
/// # Panics
///
/// Same conditions as [`subgraph_phase_scores`].
pub fn subgraph_phase_scores_threads(
    g: &Graph,
    subgraph: &Graph,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    candidates: &[usize],
    beta: usize,
    threads: usize,
) -> Vec<f64> {
    let n = g.num_nodes();
    assert_eq!(subgraph.num_nodes(), n, "subgraph must share the node set");
    assert_eq!(factor.n(), n, "factor dimension must match the graph");
    assert_eq!(zinv.n(), n, "approximate inverse dimension must match");
    if candidates.is_empty() {
        return Vec::new();
    }
    let m = g.num_edges();
    let old_to_new = factor.perm().as_old_to_new();
    let balls = BallTable::build(subgraph, beta, threads, m);
    score_in_order(
        &evaluation_order(g, candidates),
        threads,
        |cached| SubgraphScratch::recycle(cached, n, m),
        |scratch, k| subgraph_phase_score_one(g, zinv, old_to_new, &balls, candidates[k], scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracered_graph::gen::{random_connected, WeightProfile};
    use tracered_graph::laplacian::subgraph_laplacian;
    use tracered_graph::lca::tree_resistances;
    use tracered_graph::mst::{spanning_tree, TreeKind};
    use tracered_sparse::order::Ordering;
    use tracered_sparse::SpaiOptions;

    /// Cycle graph 0-1-…-(n-1)-0, tree = the path, one off-tree edge.
    fn cycle(n: usize) -> (Graph, RootedTree, usize) {
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((0, n - 1, 1.0));
        let g = Graph::from_edges(n, &edges).unwrap();
        let ids: Vec<usize> = (0..n - 1).collect();
        let tree = RootedTree::build(&g, &ids, 0).unwrap();
        (g, tree, n - 1)
    }

    #[test]
    fn cycle_closing_edge_score_matches_hand_computation() {
        // Cycle of 4: off-tree edge (0,3), R_T = 3. With β ≥ diameter the
        // sum runs over all edges; the voltage profile is v = [3,2,1,0],
        // every tree edge drops 1 and the off-tree edge drops 3:
        // sum = 3·1² + 3² = 12, score = 1·12 / (1 + 3) = 3.
        let (g, tree, off) = cycle(4);
        let scores = tree_phase_scores(&g, &tree, &[off], &[3.0], 10);
        assert!((scores[0] - 3.0).abs() < 1e-12, "got {}", scores[0]);
    }

    #[test]
    fn beta_zero_keeps_only_the_candidate_edge_term() {
        // With β = 0 the neighbourhoods are {p} and {q}: only edges
        // directly between p and q survive — here just the candidate
        // itself: score = w·(w_pq R²)/(1+wR) = 9/4.
        let (g, tree, off) = cycle(4);
        let scores = tree_phase_scores(&g, &tree, &[off], &[3.0], 0);
        assert!((scores[0] - 9.0 / 4.0).abs() < 1e-12, "got {}", scores[0]);
    }

    #[test]
    fn scores_grow_monotonically_with_beta() {
        let g = random_connected(30, 40, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 8);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
        let rs = tree_resistances(&tree, &pairs);
        let mut prev: Option<Vec<f64>> = None;
        for beta in [0usize, 1, 2, 4, 8] {
            let s = tree_phase_scores(&g, &tree, &st.off_tree_edges, &rs, beta);
            if let Some(p) = prev {
                for (a, b) in s.iter().zip(p.iter()) {
                    assert!(a + 1e-12 >= *b, "score must grow with beta: {a} < {b}");
                }
            }
            prev = Some(s);
        }
    }

    #[test]
    fn tree_and_subgraph_phases_agree_on_a_tree_subgraph() {
        // Scoring against the tree with the subgraph-phase machinery
        // (exact inverse, full beta) must match the tree-phase scores.
        let g = random_connected(18, 20, WeightProfile::Uniform { lo: 0.5, hi: 2.0 }, 15);
        let n = g.num_nodes();
        let st = spanning_tree(&g, TreeKind::MaxWeight).unwrap();
        let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
        let rs = tree_resistances(&tree, &pairs);
        let tree_scores = tree_phase_scores(&g, &tree, &st.off_tree_edges, &rs, n);
        let shifts = vec![1e-9; n];
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let sub = g.edge_subgraph(&st.tree_edges);
        let sub_scores = subgraph_phase_scores(&g, &sub, &factor, &zinv, &st.off_tree_edges, n);
        for (k, (a, b)) in tree_scores.iter().zip(sub_scores.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-4 * (1.0 + a.abs()),
                "edge {k}: tree phase {a} vs subgraph phase {b}"
            );
        }
    }

    #[test]
    fn scores_are_finite_and_nonnegative() {
        let g = random_connected(40, 80, WeightProfile::LogUniform { lo: 0.1, hi: 10.0 }, 77);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
        let rs = tree_resistances(&tree, &pairs);
        for beta in [1usize, 3, 5] {
            for s in tree_phase_scores(&g, &tree, &st.off_tree_edges, &rs, beta) {
                assert!(s.is_finite() && s >= 0.0);
            }
        }
    }

    #[test]
    fn evaluation_order_is_a_stable_permutation_over_every_component() {
        // Two components, a 6-cycle with a chord and a 4-cycle, plus an
        // isolated node; candidates share endpoints and edge 10 is
        // listed twice.
        let mut edges: Vec<(usize, usize, f64)> = (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect();
        edges.extend((6..10).map(|i| (i, 6 + (i - 5) % 4, 2.0)));
        edges.push((0, 3, 0.5));
        let g = Graph::from_edges(11, &edges).unwrap();
        let candidates = [10, 5, 7, 0, 10, 2, 9, 4];
        let order = evaluation_order(&g, &candidates);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..candidates.len()).collect::<Vec<_>>());
        // Node 0 has rank 0, so the candidates at it come first, in
        // input order. The second component's come last, the one at its
        // first-ranked node 6 before the other.
        assert_eq!(order[..4], [0, 1, 3, 4]);
        assert_eq!(order[6..], [6, 2]);
        assert!(evaluation_order(&g, &[]).is_empty());
    }

    #[test]
    fn empty_candidate_list_yields_empty_scores() {
        let (g, tree, _) = cycle(5);
        assert!(tree_phase_scores(&g, &tree, &[], &[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "one resistance per candidate")]
    fn mismatched_resistances_panic() {
        let (g, tree, off) = cycle(5);
        tree_phase_scores(&g, &tree, &[off], &[], 3);
    }
}
