//! Permutations of `0..n`, used to express fill-reducing orderings.

use crate::error::SparseError;

/// A permutation of `0..n`.
///
/// The convention follows CSparse: `perm[k] = i` means that row/column `i`
/// of the original matrix becomes row/column `k` of the permuted matrix
/// (`perm` maps *new* positions to *old* indices).
///
/// # Example
///
/// ```
/// use tracered_sparse::Permutation;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let p = Permutation::from_vec(vec![2, 0, 1])?;
/// assert_eq!(p.new_to_old(0), 2);
/// assert_eq!(p.old_to_new(2), 0);
/// assert_eq!(p.inverse().new_to_old(2), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<usize>,
    old_to_new: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        Permutation { new_to_old: v.clone(), old_to_new: v }
    }

    /// Builds a permutation from a new-to-old map.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if `new_to_old` is not a
    /// bijection on `0..n`.
    pub fn from_vec(new_to_old: Vec<usize>) -> Result<Self, SparseError> {
        let n = new_to_old.len();
        let mut old_to_new = vec![usize::MAX; n];
        for (newi, &oldi) in new_to_old.iter().enumerate() {
            if oldi >= n || old_to_new[oldi] != usize::MAX {
                return Err(SparseError::InvalidPermutation);
            }
            old_to_new[oldi] = newi;
        }
        Ok(Permutation { new_to_old, old_to_new })
    }

    /// Number of elements being permuted.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Returns `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// Original index of the element at new position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn new_to_old(&self, k: usize) -> usize {
        self.new_to_old[k]
    }

    /// New position of the element with original index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn old_to_new(&self, i: usize) -> usize {
        self.old_to_new[i]
    }

    /// The old-to-new map as a slice.
    pub fn as_old_to_new(&self) -> &[usize] {
        &self.old_to_new
    }

    /// Returns the inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { new_to_old: self.old_to_new.clone(), old_to_new: self.new_to_old.clone() }
    }

    /// Applies the permutation to a dense vector: `out[k] = v[new_to_old(k)]`.
    ///
    /// In other words, `out` is `v` expressed in the *new* index space.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.len()`.
    pub fn apply(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len(), "vector length must match permutation size");
        self.new_to_old.iter().map(|&i| v[i]).collect()
    }

    /// Applies the inverse permutation to a dense vector:
    /// `out[new_to_old(k)] = v[k]`, mapping a vector from the new index
    /// space back to the original one.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.len()`.
    pub fn apply_inverse(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len(), "vector length must match permutation size");
        let mut out = vec![0.0; v.len()];
        for (k, &i) in self.new_to_old.iter().enumerate() {
            out[i] = v[k];
        }
        out
    }

    /// Composes two permutations: applying `self` after `other`.
    ///
    /// The result maps new position `k` to `other.new_to_old(self.new_to_old(k))`.
    ///
    /// # Panics
    ///
    /// Panics if the permutations have different lengths.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "permutation lengths must match");
        let new_to_old: Vec<usize> =
            (0..self.len()).map(|k| other.new_to_old(self.new_to_old(k))).collect();
        Permutation::from_vec(new_to_old).expect("composition of bijections is a bijection")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(p.new_to_old(i), i);
            assert_eq!(p.old_to_new(i), i);
        }
    }

    #[test]
    fn from_vec_rejects_non_bijection() {
        assert_eq!(Permutation::from_vec(vec![0, 0, 1]), Err(SparseError::InvalidPermutation));
        assert_eq!(Permutation::from_vec(vec![0, 3]), Err(SparseError::InvalidPermutation));
    }

    #[test]
    fn apply_and_inverse_roundtrip() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        let v = vec![10.0, 11.0, 12.0, 13.0];
        let w = p.apply(&v);
        assert_eq!(w, vec![12.0, 10.0, 13.0, 11.0]);
        assert_eq!(p.apply_inverse(&w), v);
    }

    #[test]
    fn inverse_is_involution() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn compose_with_inverse_is_identity() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let id = p.compose(&p.inverse());
        assert_eq!(id, Permutation::identity(4));
    }
}
