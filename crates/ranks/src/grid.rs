//! The `r × c` virtual processor grid.

/// A two-dimensional processor grid, row-major rank numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessGrid {
    pub rows: usize,
    pub cols: usize,
}

impl ProcessGrid {
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        ProcessGrid { rows, cols }
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }

    /// Grid coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.size());
        (rank / self.cols, rank % self.cols)
    }

    /// Rank at grid coordinates.
    pub fn rank(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coordinate_roundtrip() {
        let g = ProcessGrid::new(2, 4);
        assert_eq!(g.size(), 8);
        for rank in 0..8 {
            let (r, c) = g.coords(rank);
            assert_eq!(g.rank(r, c), rank);
        }
        assert_eq!(g.coords(5), (1, 1));
    }
}
