//! Two-dimensional contexts for nested-loop DThreads.
//!
//! DDM contexts are flat integers, but many decompositions are naturally
//! two-dimensional (tiles of a matrix, bands × columns). [`Context2d`]
//! defines a fixed row-major packing between an `(i, j)` iteration space
//! and the flat [`Context`] the TSU schedules — the convention TFlux's
//! successor systems (e.g. DDM-VM) bake into their context words.

use crate::ids::Context;

/// A row-major 2-D iteration space `rows × cols` packed into flat contexts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Context2d {
    /// Number of rows (outer dimension).
    pub rows: u32,
    /// Number of columns (inner dimension).
    pub cols: u32,
}

impl Context2d {
    /// A `rows × cols` space.
    pub fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        assert!(
            (rows as u64)
                .checked_mul(cols as u64)
                .is_some_and(|n| n <= u32::MAX as u64),
            "iteration space exceeds the 32-bit context range"
        );
        Context2d { rows, cols }
    }

    /// The DThread arity covering the space.
    pub fn arity(&self) -> u32 {
        self.rows * self.cols
    }

    /// Pack `(i, j)` into a flat context.
    #[inline]
    pub fn pack(&self, i: u32, j: u32) -> Context {
        debug_assert!(i < self.rows && j < self.cols);
        Context(i * self.cols + j)
    }

    /// Unpack a flat context into `(i, j)`.
    #[inline]
    pub fn unpack(&self, c: Context) -> (u32, u32) {
        debug_assert!(c.0 < self.arity());
        (c.0 / self.cols, c.0 % self.cols)
    }

    /// The context of the same `(i, j)` position in another space with the
    /// same shape but transposed dimensions — the mapping a row-phase →
    /// column-phase arc needs (e.g. FFT's transpose between phases).
    #[inline]
    pub fn transpose(&self, c: Context) -> Context {
        let (i, j) = self.unpack(c);
        Context(j * self.rows + i)
    }

    /// Iterate over all `(i, j)` pairs in context order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.arity()).map(|c| self.unpack(Context(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let s = Context2d::new(5, 7);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(s.unpack(s.pack(i, j)), (i, j));
            }
        }
        assert_eq!(s.arity(), 35);
    }

    #[test]
    fn row_major_ordering() {
        let s = Context2d::new(3, 4);
        assert_eq!(s.pack(0, 0), Context(0));
        assert_eq!(s.pack(0, 3), Context(3));
        assert_eq!(s.pack(1, 0), Context(4));
        assert_eq!(s.pack(2, 3), Context(11));
    }

    #[test]
    fn transpose_is_involutive_through_the_flipped_space() {
        let s = Context2d::new(3, 4);
        let t = Context2d::new(4, 3);
        for c in 0..s.arity() {
            let c = Context(c);
            let (i, j) = s.unpack(c);
            let tc = s.transpose(c);
            assert_eq!(t.unpack(tc), (j, i));
            assert_eq!(t.transpose(tc), c);
        }
    }

    #[test]
    fn iter_covers_everything_once() {
        let s = Context2d::new(4, 4);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 16);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        Context2d::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "32-bit context range")]
    fn oversized_space_rejected() {
        Context2d::new(1 << 20, 1 << 20);
    }
}
