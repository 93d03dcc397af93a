//! Matrix Market import/export for graphs.
//!
//! The paper's test matrices come from the SuiteSparse collection in
//! Matrix Market format. This module lets users drop real `.mtx` files
//! into the benchmark harness: an SDD matrix is interpreted as a graph
//! (off-diagonal `a_ij ≠ 0` becomes an edge of weight `|a_ij|`) plus a
//! per-node diagonal *slack* (the amount by which each diagonal entry
//! exceeds the node's weighted degree — physical ground conductance).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::error::GraphError;
use crate::graph::Graph;

/// A graph read from a Matrix Market file, with the diagonal slack needed
/// to reconstruct the original SDD matrix as `L_G + diag(slack)`.
#[derive(Debug, Clone)]
pub struct MmGraph {
    /// The graph (off-diagonal structure).
    pub graph: Graph,
    /// Per-node diagonal slack (zero when the file stores a pure
    /// Laplacian; clamped at zero if a diagonal is slightly deficient).
    pub diag_slack: Vec<f64>,
}

/// Reads a graph from a Matrix Market `coordinate` file.
///
/// Supported qualifiers: `real` / `integer` / `pattern`, `symmetric` /
/// `general`. Off-diagonal entries of one pair sum their magnitudes in
/// file order: duplicates in a `symmetric` file are parallel edges whose
/// conductances add, while a `general` file lists `(i, j)` and `(j, i)`,
/// so its sum is divided by the pair's entry count (the mirrors average).
///
/// # Errors
///
/// Returns [`GraphError::ParseError`] on malformed content and
/// [`GraphError::Io`] on read failure.
pub fn read_graph<R: Read>(reader: R) -> Result<MmGraph, GraphError> {
    let mut lines = Lines { reader: BufReader::new(reader), buf: String::new(), lineno: 0 };

    // Header.
    let Some((_, header)) = lines.next()? else {
        return Err(GraphError::ParseError { line: 1, what: "empty file".into() });
    };
    let header_lower = header.to_lowercase();
    if !header_lower.starts_with("%%matrixmarket") {
        return Err(GraphError::ParseError {
            line: 1,
            what: "missing %%MatrixMarket header".into(),
        });
    }
    if !header_lower.contains("coordinate") {
        return Err(GraphError::ParseError {
            line: 1,
            what: "only coordinate format is supported".into(),
        });
    }
    let pattern = header_lower.contains("pattern");
    let symmetric = header_lower.contains("symmetric");
    if header_lower.contains("complex") || header_lower.contains("hermitian") {
        return Err(GraphError::ParseError {
            line: 1,
            what: "complex matrices are not supported".into(),
        });
    }

    // Size line (skipping comments).
    let (size_line, n, _m, nnz) = loop {
        let missing = lines.lineno + 1;
        let (lineno, line) = lines.next()?.ok_or_else(|| GraphError::ParseError {
            line: missing,
            what: "missing size line".into(),
        })?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(GraphError::ParseError {
                line: lineno,
                what: format!("size line must have 3 fields, found {}", parts.len()),
            });
        }
        let parse = |s: &str| -> Result<usize, GraphError> {
            s.parse().map_err(|_| GraphError::ParseError {
                line: lineno,
                what: format!("invalid integer '{s}'"),
            })
        };
        break (lineno, parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
    };

    let mut diag = vec![0.0f64; n];
    // Off-diagonal magnitudes as `(min, max, |a|)`, in file order.
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    let mut seen = 0usize;
    let expect = if pattern { 2 } else { 3 };
    while let Some((lineno, line)) = lines.next()? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let mut field = || {
            fields.next().ok_or_else(|| GraphError::ParseError {
                line: lineno,
                what: format!("entry line must have {expect} fields"),
            })
        };
        let (row, col) = (field()?, field()?);
        let value = if pattern { None } else { Some(field()?) };
        let r: usize = row.parse().map_err(|_| GraphError::ParseError {
            line: lineno,
            what: format!("invalid row index '{row}'"),
        })?;
        let c: usize = col.parse().map_err(|_| GraphError::ParseError {
            line: lineno,
            what: format!("invalid column index '{col}'"),
        })?;
        if r == 0 || c == 0 || r > n || c > n {
            return Err(GraphError::ParseError {
                line: lineno,
                what: format!("entry ({r}, {c}) out of bounds for size {n}"),
            });
        }
        let v: f64 = match value {
            None => 1.0,
            Some(s) => s.parse().map_err(|_| GraphError::ParseError {
                line: lineno,
                what: format!("invalid value '{s}'"),
            })?,
        };
        if !v.is_finite() {
            return Err(GraphError::ParseError {
                line: lineno,
                what: format!("non-finite value {v}"),
            });
        }
        let (r, c) = (r - 1, c - 1);
        if r == c {
            diag[r] += v;
        } else {
            entries.push((r.min(c), r.max(c), v.abs()));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(GraphError::ParseError {
            line: size_line,
            what: format!("expected {nnz} entries, found {seen}"),
        });
    }
    // The sort is stable, so each pair's run keeps file order and sums
    // from 0.0 as a running total over the file would.
    entries.sort_by_key(|&(u, v, _)| (u, v));
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut rest = entries.as_slice();
    while let Some(&(u, v, _)) = rest.first() {
        let count = rest.iter().take_while(|e| (e.0, e.1) == (u, v)).count();
        let sum = rest[..count].iter().fold(0.0, |sum, e| sum + e.2);
        // Symmetric files store each edge once, so duplicates are
        // genuine parallel edges whose conductances add. General files
        // mirror every off-diagonal entry, so the pair averages back to
        // the single edge weight.
        let w = if symmetric { sum } else { sum / count as f64 };
        if w > 0.0 {
            edges.push((u, v, w));
        }
        rest = &rest[count..];
    }
    let graph = Graph::from_edges(n, &edges).map_err(|e| GraphError::ParseError {
        line: size_line,
        what: format!("invalid graph: {e}"),
    })?;
    // Diagonal slack = diagonal − weighted degree (clamped at 0).
    let deg = graph.weighted_degrees();
    let diag_slack: Vec<f64> = diag
        .iter()
        .zip(deg.iter())
        .map(|(&d, &wd)| if d == 0.0 { 0.0 } else { (d - wd).max(0.0) })
        .collect();
    Ok(MmGraph { graph, diag_slack })
}

/// The lines of a Matrix Market file, read one at a time into one reused
/// buffer.
struct Lines<R> {
    reader: BufReader<R>,
    buf: String,
    /// Number of lines read so far: the one-based number of the line in
    /// `buf`.
    lineno: usize,
}

impl<R: Read> Lines<R> {
    /// The next line's number and text (with its line ending), or `None`
    /// at end of file.
    fn next(&mut self) -> Result<Option<(usize, &str)>, GraphError> {
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        Ok(Some((self.lineno, &self.buf)))
    }
}

/// Reads a graph from a Matrix Market file on disk.
///
/// # Errors
///
/// See [`read_graph`].
pub fn read_graph_path<P: AsRef<Path>>(path: P) -> Result<MmGraph, GraphError> {
    let f = std::fs::File::open(path)?;
    read_graph(f)
}

/// Writes a graph as the Matrix Market file of its Laplacian
/// `L_G + diag(slack)` (coordinate, real, symmetric; lower triangle).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure and
/// [`GraphError::NodeOutOfBounds`] if `slack` has the wrong length.
pub fn write_laplacian<W: Write>(mut w: W, g: &Graph, slack: &[f64]) -> Result<(), GraphError> {
    if slack.len() != g.num_nodes() {
        return Err(GraphError::NodeOutOfBounds { node: slack.len(), num_nodes: g.num_nodes() });
    }
    let n = g.num_nodes();
    let nnz = n + g.num_edges();
    writeln!(w, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(w, "% written by tracered-graph")?;
    writeln!(w, "{n} {n} {nnz}")?;
    let deg = g.weighted_degrees();
    for i in 0..n {
        writeln!(w, "{} {} {:.17e}", i + 1, i + 1, deg[i] + slack[i])?;
    }
    for e in g.edges() {
        // Lower triangle: row > column.
        writeln!(w, "{} {} {:.17e}", e.v + 1, e.u + 1, -e.weight)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_symmetric_laplacian() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    3 3 5\n\
                    1 1 2.5\n\
                    2 2 3.0\n\
                    3 3 1.0\n\
                    2 1 -1.5\n\
                    3 2 -1.0\n";
        let mm = read_graph(text.as_bytes()).unwrap();
        assert_eq!(mm.graph.num_nodes(), 3);
        assert_eq!(mm.graph.num_edges(), 2);
        let e0 = mm.graph.edge(0);
        assert_eq!((e0.u, e0.v), (0, 1));
        assert!((e0.weight - 1.5).abs() < 1e-12);
        // Slack: node 0 has diag 2.5, degree 1.5 → slack 1.
        assert!((mm.diag_slack[0] - 1.0).abs() < 1e-12);
        assert!((mm.diag_slack[1] - 0.5).abs() < 1e-12);
        assert!((mm.diag_slack[2] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn reads_pattern_matrix() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 1\n";
        let mm = read_graph(text.as_bytes()).unwrap();
        assert_eq!(mm.graph.num_edges(), 2);
        assert!(mm.graph.edges().iter().all(|e| e.weight == 1.0));
    }

    #[test]
    fn reads_general_with_mirrored_entries() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 2\n\
                    1 2 -2.0\n\
                    2 1 -2.0\n";
        let mm = read_graph(text.as_bytes()).unwrap();
        assert_eq!(mm.graph.num_edges(), 1);
        assert!((mm.graph.edge(0).weight - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_graph("".as_bytes()).is_err());
        assert!(read_graph("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(read_graph("%%MatrixMarket matrix array real general\n".as_bytes()).is_err());
        let bad_count = "%%MatrixMarket matrix coordinate real symmetric\n2 2 5\n1 1 1.0\n";
        assert!(read_graph(bad_count.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 1 1.0\n";
        assert!(read_graph(oob.as_bytes()).is_err());
    }

    #[test]
    fn roundtrip_write_read() {
        let g =
            crate::gen::grid2d(3, 3, crate::gen::WeightProfile::Uniform { lo: 0.5, hi: 2.0 }, 1);
        let slack: Vec<f64> = (0..9).map(|i| i as f64 * 0.1).collect();
        let mut buf = Vec::new();
        write_laplacian(&mut buf, &g, &slack).unwrap();
        let mm = read_graph(buf.as_slice()).unwrap();
        assert_eq!(mm.graph.num_nodes(), 9);
        assert_eq!(mm.graph.num_edges(), g.num_edges());
        for (a, b) in mm.diag_slack.iter().zip(slack.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Edge weights survive.
        let mut orig: Vec<(usize, usize, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let mut back: Vec<(usize, usize, f64)> =
            mm.graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        back.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (o, b) in orig.iter().zip(back.iter()) {
            assert_eq!(o.0, b.0);
            assert_eq!(o.1, b.1);
            assert!((o.2 - b.2).abs() < 1e-12);
        }
    }

    /// The edges of `text` as `(u, v, weight)` in edge-id order.
    fn edges_of(text: &str) -> Vec<(usize, usize, f64)> {
        let mm = read_graph(text.as_bytes()).unwrap();
        mm.graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect()
    }

    #[test]
    fn duplicate_entries_sum_in_file_order() {
        // 1e16 + 1 rounds back to 1e16, so the sum shows its order.
        let head = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n";
        let big_first = format!("{head}2 1 -1e16\n1 2 -1\n2 1 -1\n");
        assert_eq!(edges_of(&big_first), [(0, 1, 1e16)]);
        let big_last = format!("{head}2 1 -1\n1 2 -1\n2 1 -1e16\n");
        assert_eq!(edges_of(&big_last), [(0, 1, 1e16 + 2.0)]);
    }

    #[test]
    fn mirrored_general_entries_average() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 4\n\
                    1 2 -1.0\n\
                    3 2 -0.5\n\
                    2 1 -3.0\n\
                    2 3 -0.25\n";
        assert_eq!(edges_of(text), [(0, 1, 2.0), (1, 2, 0.375)]);
    }

    #[test]
    fn crlf_line_endings_and_interleaved_comments_are_accepted() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\r\n\
                    % header comment\r\n\
                    3 3 3\r\n\
                    1 1 4.0\r\n\
                    % between entries\r\n\
                    \r\n\
                    2 1 -1.5\r\n\
                    %\r\n\
                    3 1 -2.5";
        let mm = read_graph(text.as_bytes()).unwrap();
        let edges: Vec<_> = mm.graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        assert_eq!(edges, [(0, 1, 1.5), (0, 2, 2.5)]);
        assert_eq!(mm.diag_slack, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn general_pattern_file_reads_with_unit_weights() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    3 3 4\n\
                    1 2\n\
                    2 1\n\
                    3 2\n\
                    2 3\n";
        assert_eq!(edges_of(text), [(0, 1, 1.0), (1, 2, 1.0)]);
    }

    #[test]
    fn entries_out_of_order_come_back_sorted() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    4 4 4\n\
                    4 3 -1.0\n\
                    2 1 -2.0\n\
                    4 1 -3.0\n\
                    3 2 -4.0\n";
        assert_eq!(edges_of(text), [(0, 1, 2.0), (0, 3, 3.0), (1, 2, 4.0), (2, 3, 1.0)]);
    }

    #[test]
    fn zero_valued_offdiagonals_are_dropped() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 1.0\n\
                    2 1 0.0\n";
        let mm = read_graph(text.as_bytes()).unwrap();
        assert_eq!(mm.graph.num_edges(), 0);
    }
}
