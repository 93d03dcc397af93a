//! Sparse vectors as parallel `(index, value)` slices: the dot-product
//! kernels the trace-reduction scoring runs on columns of
//! [`crate::ApproxInverse`], and a dense-workspace accumulator that
//! harvests pruned columns straight into such storage.

/// Sparse–sparse dot product (merge join on indices) of two vectors
/// given as `(indices, values)` slices with strictly increasing indices.
///
/// # Example
///
/// ```
/// use tracered_sparse::sparsevec::dot;
///
/// let a: (&[u32], &[f64]) = (&[0, 2], &[1.0, 3.0]);
/// let b: (&[u32], &[f64]) = (&[2, 3], &[2.0, 5.0]);
/// assert_eq!(dot(a, b), 6.0);
/// ```
pub fn dot(a: (&[u32], &[f64]), b: (&[u32], &[f64])) -> f64 {
    let ((ai, av), (bi, bv)) = (a, b);
    let (mut i, mut j) = (0, 0);
    let mut acc = 0.0;
    while i < ai.len() && j < bi.len() {
        match ai[i].cmp(&bi[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += av[i] * bv[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Dot product of a sparse `(indices, values)` vector against a dense
/// one, summed in index order.
///
/// # Panics
///
/// Panics if an index is out of bounds for `dense`.
pub fn dot_dense(a: (&[u32], &[f64]), dense: &[f64]) -> f64 {
    a.0.iter().zip(a.1).map(|(&i, &v)| v * dense[i as usize]).sum()
}

/// A dense workspace with a touched-index list, enabling O(nnz) sparse
/// accumulation without clearing the whole buffer between uses.
///
/// This is the classic SPA (sparse accumulator) pattern from sparse matrix
/// codes: `add` scatters into a dense buffer while recording first-touched
/// indices; [`Workspace::gather_into`] appends the result to a column
/// store and resets only the touched positions.
#[derive(Debug, Clone)]
pub struct Workspace {
    dense: Vec<f64>,
    touched: Vec<usize>,
    flags: Vec<bool>,
}

impl Workspace {
    /// Creates a workspace of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Workspace { dense: vec![0.0; dim], touched: Vec::new(), flags: vec![false; dim] }
    }

    /// Dimension of the workspace.
    pub fn dim(&self) -> usize {
        self.dense.len()
    }

    /// Adds `value` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn add(&mut self, index: usize, value: f64) {
        if !self.flags[index] {
            self.flags[index] = true;
            self.touched.push(index);
        }
        self.dense[index] += value;
    }

    /// Current value at `index` (0.0 if untouched).
    pub fn get(&self, index: usize) -> f64 {
        self.dense[index]
    }

    /// Number of touched positions.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Largest accumulated value (0.0 when nothing was touched).
    pub fn max_value(&self) -> f64 {
        self.touched.iter().map(|&i| self.dense[i]).fold(0.0, f64::max)
    }

    /// Appends all touched entries with `|value| > threshold` to
    /// `indices`/`values` in increasing index order, then clears the
    /// workspace for reuse.
    ///
    /// # Panics
    ///
    /// Panics if a harvested index exceeds `u32::MAX`.
    pub fn gather_into(&mut self, threshold: f64, indices: &mut Vec<u32>, values: &mut Vec<f64>) {
        self.touched.sort_unstable();
        for &i in &self.touched {
            let v = self.dense[i];
            if v.abs() > threshold {
                indices.push(u32::try_from(i).expect("workspace index fits in u32"));
                values.push(v);
            }
            self.dense[i] = 0.0;
            self.flags[i] = false;
        }
        self.touched.clear();
    }

    /// Clears the workspace without harvesting.
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.dense[i] = 0.0;
            self.flags[i] = false;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_merge_join() {
        let a: (&[u32], &[f64]) = (&[0, 2, 5], &[1.0, 2.0, 3.0]);
        let b: (&[u32], &[f64]) = (&[2, 3, 5], &[4.0, 9.0, -1.0]);
        assert_eq!(dot(a, b), 8.0 - 3.0);
        assert_eq!(dot(a, (&[], &[])), 0.0);
    }

    #[test]
    fn dense_roundtrip() {
        let a: (&[u32], &[f64]) = (&[1, 3], &[5.0, -2.0]);
        let mut dense = vec![0.0; 4];
        for (&i, &v) in a.0.iter().zip(a.1) {
            dense[i as usize] = v;
        }
        assert_eq!(dense, vec![0.0, 5.0, 0.0, -2.0]);
        assert_eq!(dot_dense(a, &[1.0, 1.0, 1.0, 1.0]), 3.0);
        assert_eq!(dot_dense(a, &dense), dot(a, a));
    }

    #[test]
    fn workspace_accumulates_and_clears() {
        let mut w = Workspace::new(5);
        w.add(3, 1.0);
        w.add(1, 2.0);
        w.add(3, 0.5);
        assert_eq!(w.touched_len(), 2);
        assert_eq!(w.max_value(), 2.0);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        w.gather_into(0.0, &mut idx, &mut val);
        assert_eq!(idx, [1, 3]);
        assert_eq!(val, [2.0, 1.5]);
        // Reusable after clear; a second gather appends.
        assert_eq!(w.touched_len(), 0);
        w.add(0, 7.0);
        w.gather_into(0.0, &mut idx, &mut val);
        assert_eq!(idx, [1, 3, 0]);
    }

    #[test]
    fn workspace_threshold_prunes() {
        let mut w = Workspace::new(4);
        w.add(0, 1.0);
        w.add(1, 0.001);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        w.gather_into(0.01, &mut idx, &mut val);
        assert_eq!(idx, [0]);
        // Pruned position must still be reset.
        w.add(1, 0.0);
        assert_eq!(w.get(1), 0.0);
    }
}
