//! Bit-identity oracle for the two criticality evaluators.
//!
//! The library scores candidates from flat per-call tables (preorder
//! intervals for the tree path, a β-ball table, memoized node voltages).
//! The reference evaluators below compute the same paper equations the
//! plain way — the tree path marked by climbing parents, a fresh FIFO BFS
//! per endpoint, and two dot products per cross edge against a dense
//! `z̃_pq` — with the same summation order. Every score must match under
//! `to_bits`, at one thread and at four, whatever the order of the
//! candidate list and the numbering of the nodes: the library scores
//! candidates in its own locality order and writes each score to its
//! input slot.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tracered_core::criticality::{subgraph_phase_scores_threads, tree_phase_scores_threads};
use tracered_graph::gen::{random_connected, WeightProfile};
use tracered_graph::laplacian::subgraph_laplacian;
use tracered_graph::lca::tree_resistances;
use tracered_graph::mst::{spanning_tree, TreeKind};
use tracered_graph::tree::NO_NODE;
use tracered_graph::{Graph, RootedTree};
use tracered_sparse::order::Ordering;
use tracered_sparse::{ApproxInverse, CholeskyFactor, SpaiOptions};

const THREADS: [usize; 2] = [1, 4];

/// Eq. 15 the plain way: mark the tree path by climbing both endpoints to
/// their LCA, then run one FIFO BFS per endpoint (parent first, then
/// children), dropping the voltage by `1/w` across marked edges.
fn reference_tree_scores(
    g: &Graph,
    tree: &RootedTree,
    candidates: &[usize],
    resistances: &[f64],
    beta: usize,
) -> Vec<f64> {
    let bfs = |start: usize, v0: f64, sign: f64, on_path: &[bool]| {
        let mut volt: Vec<Option<f64>> = vec![None; g.num_nodes()];
        let mut ball = vec![start];
        volt[start] = Some(v0);
        let mut queue = VecDeque::from([(start, 0usize)]);
        while let Some((x, d)) = queue.pop_front() {
            if d == beta {
                continue;
            }
            let mut nbrs = Vec::new();
            if tree.parent(x) != NO_NODE {
                nbrs.push((tree.parent(x), tree.parent_edge(x)));
            }
            nbrs.extend(tree.children(x).iter().map(|&c| (c, tree.parent_edge(c))));
            let vx = volt[x].expect("queued nodes have a voltage");
            for (y, te) in nbrs {
                if volt[y].is_some() {
                    continue;
                }
                volt[y] = Some(if on_path[te] { vx + sign / g.edge(te).weight } else { vx });
                ball.push(y);
                queue.push_back((y, d + 1));
            }
        }
        (ball, volt)
    };
    candidates
        .iter()
        .zip(resistances)
        .map(|(&eid, &r)| {
            let e = g.edge(eid);
            let mut on_path = vec![false; g.num_edges()];
            let lca = tree.lca_by_climbing(e.u, e.v);
            for mut v in [e.u, e.v] {
                while v != lca {
                    on_path[tree.parent_edge(v)] = true;
                    v = tree.parent(v);
                }
            }
            let (ball_p, volt_p) = bfs(e.u, r, -1.0, &on_path);
            let (_, volt_q) = bfs(e.v, 0.0, 1.0, &on_path);
            let volt = |v: &[Option<f64>], i: usize| v[i].expect("ball nodes have a voltage");
            let drop = |i, j| volt(&volt_p, i) - volt(&volt_q, j);
            cross_sum(g, &ball_p, |j| volt_q[j].is_some(), drop, e.weight, r)
        })
        .collect()
}

/// Eq. 20 the plain way: a fresh FIFO BFS from each endpoint in the
/// subgraph, `z̃_pq` densified, and both voltages of every cross edge
/// recomputed as dot products.
fn reference_subgraph_scores(
    g: &Graph,
    subgraph: &Graph,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    candidates: &[usize],
    beta: usize,
) -> Vec<f64> {
    let n = g.num_nodes();
    let column = |node: usize| zinv.column(factor.perm().old_to_new(node));
    let ball = |start: usize| {
        let mut seen = vec![false; n];
        let mut ball = vec![start];
        seen[start] = true;
        let mut queue = VecDeque::from([(start, 0usize)]);
        while let Some((x, d)) = queue.pop_front() {
            if d == beta {
                continue;
            }
            for &(y, _) in subgraph.neighbors(x) {
                if !seen[y] {
                    seen[y] = true;
                    ball.push(y);
                    queue.push_back((y, d + 1));
                }
            }
        }
        (ball, seen)
    };
    candidates
        .iter()
        .map(|&eid| {
            let e = g.edge(eid);
            let (zp, zq) = (column(e.u), column(e.v));
            let mut zpq = vec![0.0f64; n];
            for (&i, &v) in zp.0.iter().zip(zp.1) {
                zpq[i as usize] += v;
            }
            for (&i, &v) in zq.0.iter().zip(zq.1) {
                zpq[i as usize] -= v;
            }
            let norm_sq = |values: &[f64]| -> f64 { values.iter().map(|v| v * v).sum() };
            let mut cross = 0.0;
            let (mut a, mut b) = (0, 0);
            while a < zp.0.len() && b < zq.0.len() {
                match zp.0[a].cmp(&zq.0[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        cross += zp.1[a] * zq.1[b];
                        a += 1;
                        b += 1;
                    }
                }
            }
            let r = norm_sq(zp.1) - 2.0 * cross + norm_sq(zq.1);
            let voltage = |node: usize| -> f64 {
                let (rows, vals) = column(node);
                rows.iter().zip(vals).map(|(&i, &v)| v * zpq[i as usize]).sum()
            };
            let (ball_p, _) = ball(e.u);
            let (_, in_q) = ball(e.v);
            cross_sum(g, &ball_p, |j| in_q[j], |i, j| voltage(i) - voltage(j), e.weight, r)
        })
        .collect()
}

/// `w · Σ w_ij · drop(i, j)² / (1 + w·r)` over the graph edges from `p`'s
/// ball (in ball order, then adjacency order) into `q`'s, each edge once.
fn cross_sum(
    g: &Graph,
    ball_p: &[usize],
    in_q: impl Fn(usize) -> bool,
    drop: impl Fn(usize, usize) -> f64,
    w: f64,
    r: f64,
) -> f64 {
    let mut counted = vec![false; g.num_edges()];
    let mut sum = 0.0;
    for &i in ball_p {
        for &(j, eid) in g.neighbors(i) {
            if !in_q(j) || counted[eid] {
                continue;
            }
            counted[eid] = true;
            let d = drop(i, j);
            sum += g.edge(eid).weight * d * d;
        }
    }
    w * sum / (1.0 + w * r)
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: score count");
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: candidate {k}: {a} vs reference {b}");
    }
}

/// A random connected graph with some edges doubled (parallel edges of a
/// different weight).
fn graph_with_parallel_edges(n: usize, extra: usize, seed: u64) -> Graph {
    let base = random_connected(n, extra, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, seed);
    let mut edges: Vec<(usize, usize, f64)> =
        base.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
    let doubled: Vec<(usize, usize, f64)> =
        edges.iter().step_by(7).map(|&(u, v, w)| (v, u, 0.5 + w)).collect();
    edges.extend(doubled);
    Graph::from_edges(n, &edges).unwrap()
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// `g` with its nodes renumbered by a seeded random permutation; edge
/// ids and weights are kept.
fn relabelled(g: &Graph, seed: u64) -> Graph {
    let mut label: Vec<usize> = (0..g.num_nodes()).collect();
    shuffle(&mut label, seed);
    let edges: Vec<(usize, usize, f64)> =
        g.edges().iter().map(|e| (label[e.u], label[e.v], e.weight)).collect();
    Graph::from_edges(g.num_nodes(), &edges).unwrap()
}

/// Checks both phases on `g` with spanning tree `tree_edges` against the
/// references, for the subgraph equal to the tree and to the tree plus
/// every third off-tree edge. The candidate list is in edge-id order,
/// or shuffled with `shuffle_seed`.
fn check_graph(g: &Graph, tree_edges: &[usize], shuffle_seed: Option<u64>, what: &str) {
    let n = g.num_nodes();
    let tree = RootedTree::build(g, tree_edges, n / 2).unwrap();
    let mut in_tree = vec![false; g.num_edges()];
    for &id in tree_edges {
        in_tree[id] = true;
    }
    let mut off_tree: Vec<usize> = (0..g.num_edges()).filter(|&id| !in_tree[id]).collect();
    if let Some(seed) = shuffle_seed {
        shuffle(&mut off_tree, seed);
    }
    let pairs: Vec<(usize, usize)> =
        off_tree.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
    let rs = tree_resistances(&tree, &pairs);
    let shifts = vec![1e-3 * 2.0 * g.total_weight() / n as f64; n];
    let extra: Vec<usize> = off_tree.iter().copied().step_by(3).collect();
    for beta in [0, 1, 2, 5, n] {
        let want = reference_tree_scores(g, &tree, &off_tree, &rs, beta);
        for threads in THREADS {
            let got = tree_phase_scores_threads(g, &tree, &off_tree, &rs, beta, threads);
            assert_bits(
                &got,
                &want,
                &format!("{what}: tree phase, beta {beta}, {threads} threads"),
            );
        }
    }
    for with_extra in [false, true] {
        let mut sub_edges = tree_edges.to_vec();
        if with_extra {
            sub_edges.extend_from_slice(&extra);
        }
        let candidates: Vec<usize> =
            off_tree.iter().copied().filter(|id| !sub_edges.contains(id)).collect();
        let ls = subgraph_laplacian(g, &sub_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let sub = g.edge_subgraph(&sub_edges);
        for delta in [0.0, 0.1] {
            let zinv =
                ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(delta)).unwrap();
            for beta in [0, 1, 2, 5, n] {
                let want = reference_subgraph_scores(g, &sub, &factor, &zinv, &candidates, beta);
                for threads in THREADS {
                    let got = subgraph_phase_scores_threads(
                        g,
                        &sub,
                        &factor,
                        &zinv,
                        &candidates,
                        beta,
                        threads,
                    );
                    assert_bits(
                        &got,
                        &want,
                        &format!(
                            "{what}: subgraph phase, extra {with_extra}, delta {delta}, \
                             beta {beta}, {threads} threads"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn random_graphs_with_parallel_edges_match_the_reference() {
    for (n, extra, seed) in [(24, 30, 1), (40, 60, 2), (57, 40, 3), (33, 90, 4)] {
        let g = graph_with_parallel_edges(n, extra, seed);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        check_graph(&g, &st.tree_edges, None, &format!("random n {n} seed {seed}"));
    }
}

#[test]
fn short_cycle_where_the_balls_coincide_matches_the_reference() {
    // A 5-cycle: the tree is the path 0-1-2-3-4, the candidate (0, 4)
    // closes it, and from β = 2 on both balls hold every node.
    let edges: Vec<(usize, usize, f64)> =
        (0..5).map(|i| (i, (i + 1) % 5, 1.0 + 0.25 * i as f64)).collect();
    let g = Graph::from_edges(5, &edges).unwrap();
    check_graph(&g, &[0, 1, 2, 3], None, "5-cycle");
}

#[test]
fn long_path_where_the_balls_are_disjoint_matches_the_reference() {
    // A 64-node path with chords between far-apart nodes: for small β
    // the two balls of a chord share no node.
    let n = 64;
    let mut edges: Vec<(usize, usize, f64)> =
        (0..n - 1).map(|i| (i, i + 1, 0.5 + (i % 5) as f64)).collect();
    edges.extend([(0, n - 1, 2.0), (3, 40, 1.5), (10, 50, 0.7), (20, 21, 3.0)]);
    let g = Graph::from_edges(n, &edges).unwrap();
    let tree_edges: Vec<usize> = (0..n - 1).collect();
    check_graph(&g, &tree_edges, None, "64-path");
}

#[test]
fn shuffled_candidate_lists_match_the_reference_slot_by_slot() {
    for (n, extra, seed) in [(24, 30, 1), (40, 60, 2), (57, 40, 3), (33, 90, 4)] {
        let g = graph_with_parallel_edges(n, extra, seed);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        check_graph(&g, &st.tree_edges, Some(seed), &format!("shuffled n {n} seed {seed}"));
    }
}

#[test]
fn randomly_relabelled_graphs_match_the_reference() {
    for (n, extra, seed) in [(24, 30, 1), (40, 60, 2), (57, 40, 3), (33, 90, 4)] {
        let g = relabelled(&graph_with_parallel_edges(n, extra, seed), 100 + seed);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        check_graph(&g, &st.tree_edges, None, &format!("relabelled n {n} seed {seed}"));
        check_graph(&g, &st.tree_edges, Some(seed), &format!("relabelled, shuffled n {n}"));
    }
}
