//! Approximate minimum degree on the quotient graph.
//!
//! A port of the `cs_amd` design (Davis, *Direct Methods for Sparse
//! Linear Systems*, SIAM 2006, §7.1) of the algorithm of Amestoy, Davis &
//! Duff (SIMAX 1996), the ordering CHOLMOD applies to symmetric matrices.
//! The elimination graph is never formed. Each eliminated pivot becomes an
//! *element* standing for the clique it would have created, and every live
//! node keeps a list of the elements it belongs to ahead of its remaining
//! node neighbours. All of it lives in one array the size of the input
//! pattern plus an elbow room of a fifth of it and `2n`. The parts, in
//! order of appearance below:
//!
//! - dense nodes, with degree above `max(16, 10√n)`, are absorbed into a
//!   placeholder element and numbered last;
//! - the workspace is compacted in place when a new element does not fit;
//! - the new element absorbs every element adjacent to its pivot;
//! - approximate external degrees come from the set differences
//!   `|Le \ Lk|`, and an element whose difference is empty is absorbed
//!   into the new one (aggressive absorption);
//! - nodes left with no external degree are eliminated with the pivot
//!   (mass elimination);
//! - nodes with identical element and node lists are merged into one
//!   supernode, found by hashing those lists into buckets;
//! - the assembly tree is postordered into the final order.
//!
//! Indices are `isize` as in the reference: `-1` is "none", and [`flip`]
//! tags an index as a parent pointer or, during compaction, as the start
//! of an object.

use super::Adjacency;

/// `-i - 2`: an involution mapping every index to a value below `-1`.
fn flip(i: isize) -> isize {
    -i - 2
}

/// Returns a mark above every live entry of `w`, resetting `w` to 1 (live)
/// and the mark to 2 on the first call or when the marks would overflow.
fn wclear(mark: isize, lemax: isize, w: &mut [isize]) -> isize {
    if mark < 2 || mark.checked_add(lemax).is_none() {
        for x in w.iter_mut().filter(|x| **x != 0) {
            *x = 1;
        }
        return 2;
    }
    mark
}

/// The approximate-minimum-degree elimination order of `adj`, and how
/// many times the workspace was compacted to find it.
pub(super) fn amd(adj: &Adjacency) -> (Vec<usize>, usize) {
    let n = adj.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let ni = n as isize;
    let dense = (10.0 * (n as f64).sqrt()).max(16.0) as isize;
    // The quotient graph: object j (node or element) lists its entries in
    // ci[cp[j]..cp[j] + len[j]]; a node lists its elen[j] elements first.
    let mut cnz = adj.idx.len();
    let nzmax = cnz + cnz / 5 + 2 * n;
    let mut ci: Vec<isize> = adj.idx.iter().map(|&i| i as isize).collect();
    ci.resize(nzmax, 0);
    let mut cp: Vec<isize> = adj.ptr.iter().map(|&p| p as isize).collect();
    let mut len: Vec<isize> = (0..=n).map(|j| if j < n { cp[j + 1] - cp[j] } else { 0 }).collect();
    // Supervariable size: > 0 a live node or element, 0 absorbed, < 0 in
    // the current pivot's element.
    let mut nv = vec![1isize; n + 1];
    let mut next = vec![-1isize; n + 1];
    let mut last = vec![-1isize; n + 1];
    let mut head = vec![-1isize; n + 1];
    let mut hhead = vec![-1isize; n + 1];
    // elen: >= 0 a live node's element count, -1 a dead node, -2 an element.
    let mut elen = vec![0isize; n + 1];
    let mut degree = len.clone();
    // w: 0 a dead element, otherwise a mark of the set-difference scans.
    let mut w = vec![1isize; n + 1];
    let mut mark = wclear(0, 0, &mut w[..n]);
    // Node n is the placeholder element that absorbs the dense nodes.
    elen[n] = -2;
    cp[n] = -1;
    w[n] = 0;

    let (mut nel, mut mindeg, mut lemax, mut compactions) = (0isize, 0usize, 0isize, 0usize);
    for i in 0..n {
        let d = degree[i];
        if d == 0 {
            // An empty node is an element, and a root, from the start.
            elen[i] = -2;
            nel += 1;
            cp[i] = -1;
            w[i] = 0;
        } else if d > dense {
            nv[i] = 0;
            elen[i] = -1;
            nel += 1;
            cp[i] = flip(ni);
            nv[n] += 1;
        } else {
            let d = d as usize;
            if head[d] != -1 {
                last[head[d] as usize] = i as isize;
            }
            next[i] = head[d];
            head[d] = i as isize;
        }
    }

    while nel < ni {
        // Select a node of minimum approximate degree.
        while head[mindeg] == -1 {
            mindeg += 1;
        }
        let k = head[mindeg] as usize;
        if next[k] != -1 {
            last[next[k] as usize] = -1;
        }
        head[mindeg] = next[k];
        let elenk = elen[k];
        let mut nvk = nv[k];
        nel += nvk;

        // Compact the workspace if the new element might not fit after cnz.
        if elenk > 0 && cnz + mindeg >= nzmax {
            for j in 0..n {
                let p = cp[j];
                if p >= 0 {
                    // Tag the first entry of each live object with its id.
                    cp[j] = ci[p as usize];
                    ci[p as usize] = flip(j as isize);
                }
            }
            let (mut q, mut p) = (0usize, 0usize);
            while p < cnz {
                let j = flip(ci[p]);
                p += 1;
                if j >= 0 {
                    let j = j as usize;
                    ci[q] = cp[j];
                    cp[j] = q as isize;
                    q += 1;
                    let rest = len[j] as usize - 1;
                    ci.copy_within(p..p + rest, q);
                    (p, q) = (p + rest, q + rest);
                }
            }
            cnz = q;
            compactions += 1;
        }

        // Construct the new element Lk: the union of k's node list and of
        // every element adjacent to k, which it absorbs. It is built in
        // place when k has no elements, and after cnz otherwise.
        let mut dk = 0isize;
        nv[k] = -nvk;
        let mut p = cp[k] as usize;
        let pk1 = if elenk == 0 { p } else { cnz };
        let mut pk2 = pk1;
        for k1 in 1..=elenk + 1 {
            let (e, mut pj, ln) = if k1 > elenk {
                (k, p, len[k] - elenk)
            } else {
                let e = ci[p] as usize;
                p += 1;
                (e, cp[e] as usize, len[e])
            };
            for _ in 0..ln {
                let i = ci[pj] as usize;
                pj += 1;
                let nvi = nv[i];
                if nvi <= 0 {
                    continue; // dead, or already in Lk
                }
                dk += nvi;
                nv[i] = -nvi;
                ci[pk2] = i as isize;
                pk2 += 1;
                // Take i out of its degree list.
                if next[i] != -1 {
                    last[next[i] as usize] = last[i];
                }
                if last[i] != -1 {
                    next[last[i] as usize] = next[i];
                } else {
                    head[degree[i] as usize] = next[i];
                }
            }
            if e != k {
                cp[e] = flip(k as isize);
                w[e] = 0;
            }
        }
        if elenk != 0 {
            cnz = pk2;
        }
        degree[k] = dk;
        cp[k] = pk1 as isize;
        len[k] = (pk2 - pk1) as isize;
        elen[k] = -2;

        // Set differences: afterwards w[e] - mark = |Le \ Lk| for every
        // live element e adjacent to a node of Lk.
        mark = wclear(mark, lemax, &mut w[..n]);
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let eln = elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -nv[i];
            let wnvi = mark - nvi;
            let p0 = cp[i] as usize;
            for &e in &ci[p0..p0 + eln as usize] {
                let e = e as usize;
                if w[e] >= mark {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wnvi;
                }
            }
        }

        // Degree update, element pruning and the hash of each node of Lk.
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let p1 = cp[i] as usize;
            let p2 = p1 + elen[i] as usize;
            let mut pn = p1;
            let (mut h, mut d) = (0usize, 0isize);
            for p in p1..p2 {
                let e = ci[p] as usize;
                if w[e] != 0 {
                    let dext = w[e] - mark;
                    if dext > 0 {
                        d += dext;
                        ci[pn] = e as isize;
                        pn += 1;
                        h += e;
                    } else {
                        // Le is a subset of Lk: aggressive absorption.
                        cp[e] = flip(k as isize);
                        w[e] = 0;
                    }
                }
            }
            elen[i] = (pn - p1 + 1) as isize;
            let p3 = pn;
            let p4 = p1 + len[i] as usize;
            for p in p2..p4 {
                let j = ci[p] as usize;
                let nvj = nv[j];
                if nvj <= 0 {
                    continue; // dead, or in Lk and so covered by element k
                }
                d += nvj;
                ci[pn] = j as isize;
                pn += 1;
                h += j;
            }
            if d == 0 {
                // Nothing outside Lk: mass elimination of i with k.
                cp[i] = flip(k as isize);
                let nvi = -nv[i];
                dk -= nvi;
                nvk += nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = degree[i].min(d);
                // Put k first among i's elements.
                ci[pn] = ci[p3];
                ci[p3] = ci[p1];
                ci[p1] = k as isize;
                len[i] = (pn - p1 + 1) as isize;
                let h = h % n;
                next[i] = hhead[h];
                hhead[h] = i as isize;
                last[i] = h as isize;
            }
        }
        degree[k] = dk;
        lemax = lemax.max(dk);
        mark = wclear(mark + lemax, lemax, &mut w[..n]);

        // Indistinguishable nodes: compare the lists of nodes sharing a
        // hash bucket and absorb every duplicate into the first.
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            if nv[i] >= 0 {
                continue;
            }
            let h = last[i] as usize;
            let mut i = hhead[h];
            hhead[h] = -1;
            while i != -1 && next[i as usize] != -1 {
                let iu = i as usize;
                let (ln, eln) = (len[iu] as usize, elen[iu]);
                let pi = cp[iu] as usize;
                for &x in &ci[pi + 1..pi + ln] {
                    w[x as usize] = mark;
                }
                let mut jlast = iu;
                let mut j = next[iu];
                while j != -1 {
                    let ju = j as usize;
                    let pj = cp[ju] as usize;
                    let same = len[ju] as usize == ln
                        && elen[ju] == eln
                        && ci[pj + 1..pj + ln].iter().all(|&x| w[x as usize] == mark);
                    if same {
                        cp[ju] = flip(i);
                        nv[iu] += nv[ju];
                        nv[ju] = 0;
                        elen[ju] = -1;
                        j = next[ju];
                        next[jlast] = j;
                    } else {
                        jlast = ju;
                        j = next[ju];
                    }
                }
                i = next[iu];
                mark += 1;
            }
        }

        // Finalize Lk: restore the surviving nodes' sizes, turn their
        // degrees into external degrees and put them back in the lists.
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let nvi = -nv[i];
            if nvi <= 0 {
                continue;
            }
            nv[i] = nvi;
            let d = (degree[i] + dk - nvi).min(ni - nel - nvi);
            let du = d as usize;
            if head[du] != -1 {
                last[head[du] as usize] = i as isize;
            }
            next[i] = head[du];
            last[i] = -1;
            head[du] = i as isize;
            mindeg = mindeg.min(du);
            degree[i] = d;
            ci[p] = i as isize;
            p += 1;
        }
        nv[k] = nvk;
        len[k] = (p - pk1) as isize;
        if len[k] == 0 {
            cp[k] = -1;
            w[k] = 0;
        }
        if elenk != 0 {
            cnz = p;
        }
    }

    // Postorder the assembly tree: cp[j] is now each object's parent.
    for c in &mut cp[..n] {
        *c = flip(*c);
    }
    head.fill(-1);
    for j in (0..=n).rev() {
        if nv[j] <= 0 {
            let parent = cp[j] as usize;
            next[j] = head[parent];
            head[parent] = j as isize;
        }
    }
    for e in (0..=n).rev() {
        if nv[e] > 0 && cp[e] != -1 {
            let parent = cp[e] as usize;
            next[e] = head[parent];
            head[parent] = e as isize;
        }
    }
    let (mut post, mut stack) = (Vec::with_capacity(n + 1), Vec::new());
    for root in (0..=n).filter(|&i| cp[i] == -1) {
        // Depth-first, consuming each node's child list as it goes.
        stack.push(root);
        while let Some(&p) = stack.last() {
            let child = head[p];
            if child == -1 {
                stack.pop();
                post.push(p);
            } else {
                head[p] = next[child as usize];
                stack.push(child as usize);
            }
        }
    }
    // The placeholder element n is the last root, so it comes out last.
    debug_assert_eq!(post.last(), Some(&n));
    post.pop();
    (post, compactions)
}
