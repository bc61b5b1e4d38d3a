//! Symmetric pairwise matrices (latency, bandwidth) indexed by node.

use nlrm_topology::NodeId;
use serde::{Deserialize, Serialize};

/// A symmetric `n × n` matrix with a default diagonal, stored densely.
///
/// Writing `(u, v)` also writes `(v, u)`: P2P latency and bandwidth are
/// treated as symmetric, as in the paper's measurement scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy> SymMatrix<T> {
    /// An `n × n` matrix filled with `fill`.
    pub fn new(n: usize, fill: T) -> Self {
        SymMatrix {
            n,
            data: vec![fill; n * n],
        }
    }

    /// An `n × n` matrix from its cells in row-major order: `data[u·n + v]`
    /// is cell `(u, v)`. The caller guarantees symmetry (`data[u·n + v] ==
    /// data[v·n + u]`); it is not checked here, since builders that write
    /// whole rows at once would pay an O(n²) pass for it.
    ///
    /// # Panics
    ///
    /// If `data` does not hold exactly `n²` cells.
    pub fn from_row_major(n: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), n * n, "a {n}×{n} matrix needs {} cells", n * n);
        SymMatrix { n, data }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Value at `(u, v)`.
    pub fn get(&self, u: NodeId, v: NodeId) -> T {
        self.data[u.index() * self.n + v.index()]
    }

    /// Set `(u, v)` and `(v, u)`.
    pub fn set(&mut self, u: NodeId, v: NodeId, value: T) {
        self.data[u.index() * self.n + v.index()] = value;
        self.data[v.index() * self.n + u.index()] = value;
    }

    /// Iterate over the strict upper triangle `(u < v)`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, T)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n).map(move |v| {
                (
                    NodeId(u as u32),
                    NodeId(v as u32),
                    self.data[u * self.n + v],
                )
            })
        })
    }

    /// Row `u` as a slice (length `n`).
    pub fn row(&self, u: NodeId) -> &[T] {
        &self.data[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Overwrite row `u` *and* the mirrored column.
    pub fn set_row(&mut self, u: NodeId, row: &[T]) {
        assert_eq!(row.len(), self.n);
        for (v, &val) in row.iter().enumerate() {
            self.data[u.index() * self.n + v] = val;
            self.data[v * self.n + u.index()] = val;
        }
    }
}

impl SymMatrix<f64> {
    /// Mean over the strict upper triangle (pairwise average, as used for a
    /// group's network load). Returns 0 for matrices smaller than 2×2.
    pub fn pair_mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (_, _, v) in self.pairs() {
            sum += v;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_symmetric() {
        let mut m = SymMatrix::new(4, 0.0);
        m.set(NodeId(1), NodeId(3), 7.5);
        assert_eq!(m.get(NodeId(3), NodeId(1)), 7.5);
        assert_eq!(m.get(NodeId(1), NodeId(3)), 7.5);
    }

    #[test]
    fn from_row_major_matches_cell_by_cell_sets() {
        let f = |u: u32, v: u32| (u.min(v) * 10 + u.max(v)) as f64;
        let data = (0..4).flat_map(|u| (0..4).map(move |v| f(u, v))).collect();
        let built = SymMatrix::from_row_major(4, data);
        let mut set = SymMatrix::new(4, 0.0);
        for u in 0..4 {
            for v in u..4 {
                set.set(NodeId(u), NodeId(v), f(u, v));
            }
        }
        assert_eq!(built, set);
        assert_eq!(built.get(NodeId(3), NodeId(1)), 13.0);
        assert_eq!(built.row(NodeId(1)), &[1.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "a 3×3 matrix needs 9 cells")]
    fn from_row_major_rejects_a_short_buffer() {
        SymMatrix::from_row_major(3, vec![0.0; 8]);
    }

    #[test]
    fn pairs_covers_upper_triangle() {
        let m = SymMatrix::new(4, 1.0);
        assert_eq!(m.pairs().count(), 6); // C(4,2)
    }

    #[test]
    fn pair_mean_averages() {
        let mut m = SymMatrix::new(3, 0.0);
        m.set(NodeId(0), NodeId(1), 1.0);
        m.set(NodeId(0), NodeId(2), 2.0);
        m.set(NodeId(1), NodeId(2), 3.0);
        assert!((m.pair_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn set_row_mirrors() {
        let mut m = SymMatrix::new(3, 0.0);
        m.set_row(NodeId(1), &[4.0, 0.0, 6.0]);
        assert_eq!(m.get(NodeId(0), NodeId(1)), 4.0);
        assert_eq!(m.get(NodeId(2), NodeId(1)), 6.0);
    }

    #[test]
    fn empty_matrix_pair_mean_is_zero() {
        let m: SymMatrix<f64> = SymMatrix::new(1, 0.0);
        assert_eq!(m.pair_mean(), 0.0);
    }
}
