//! Shared global arrays.
//!
//! Stands in for GA's distributed shared memory: every simulated process
//! sees the same dense array. Values are stored as `f64` bit patterns in
//! `AtomicU64`s and accessed with relaxed loads and stores, which compile
//! to plain memory operations. Ranks never write the same element
//! concurrently: the executor gives each element of a kernel's
//! destination exactly one owner rank and separates phases with barriers,
//! so no read-modify-write needs to be atomic.

use crate::section::{strides, zip_runs, Section};
use std::sync::atomic::{AtomicU64, Ordering};

/// A dense, shared, multi-dimensional `f64` array.
///
/// ```
/// use tce_ga::GlobalArray;
///
/// let a = GlobalArray::zeros(&[2, 3]);
/// a.set(&[1, 2], 1.5);
/// assert_eq!(a.get(&[1, 2]), 1.5);
/// assert_eq!(a.get_flat(5), 1.5);
/// ```
pub struct GlobalArray {
    dims: Vec<u64>,
    strides: Vec<u64>,
    data: Vec<AtomicU64>,
}

impl GlobalArray {
    /// A zero-initialized array of the given shape (rank 0 = scalar with
    /// one element).
    pub fn zeros(dims: &[u64]) -> Self {
        let len = dims.iter().product::<u64>().max(1) as usize;
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU64::new(0f64.to_bits()));
        GlobalArray {
            dims: dims.to_vec(),
            strides: strides(dims),
            data,
        }
    }

    /// Array shape.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has zero elements (never — scalars hold one).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat offset of a multi-index.
    #[inline]
    pub fn offset(&self, idx: &[u64]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0u64;
        for (k, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[k], "index {i} out of dim {}", self.dims[k]);
            off += i * self.strides[k];
        }
        off as usize
    }

    /// Reads an element by flat offset.
    #[inline]
    pub fn get_flat(&self, off: usize) -> f64 {
        f64::from_bits(self.data[off].load(Ordering::Relaxed))
    }

    /// Writes an element by flat offset.
    #[inline]
    pub fn set_flat(&self, off: usize, v: f64) {
        self.data[off].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads an element by multi-index.
    pub fn get(&self, idx: &[u64]) -> f64 {
        self.get_flat(self.offset(idx))
    }

    /// Writes an element by multi-index.
    pub fn set(&self, idx: &[u64], v: f64) {
        self.set_flat(self.offset(idx), v)
    }

    /// Zeroes a flat range (used by cooperative per-rank zeroing).
    pub fn zero_range(&self, start: usize, end: usize) {
        let zero = 0f64.to_bits();
        for cell in &self.data[start..end] {
            cell.store(zero, Ordering::Relaxed);
        }
    }

    /// Copies section `src_sec` of `src` into section `sec` of this array,
    /// run by run with no intermediate buffer.
    ///
    /// # Panics
    ///
    /// If the sections' extents differ or either one exceeds its array.
    pub fn copy_section(&self, sec: &Section, src: &GlobalArray, src_sec: &Section) {
        zip_runs(&self.dims, sec, &src.dims, src_sec, |dst, from, len| {
            for k in 0..len {
                self.set_flat(dst + k, src.get_flat(from + k));
            }
        });
    }

    /// Zeroes a section of this array.
    ///
    /// # Panics
    ///
    /// If the section exceeds the array.
    pub fn zero_section(&self, sec: &Section) {
        zip_runs(&self.dims, sec, &self.dims, sec, |off, _, len| {
            self.zero_range(off, off + len)
        });
    }

    /// Snapshot of the whole array as a plain vector.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.data.len()).map(|k| self.get_flat(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_row_major() {
        let a = GlobalArray::zeros(&[2, 3]);
        a.set(&[1, 2], 7.0);
        assert_eq!(a.get_flat(5), 7.0);
        assert_eq!(a.get(&[1, 2]), 7.0);
        assert_eq!(a.offset(&[0, 2]), 2);
    }

    #[test]
    fn scalars_hold_one_element() {
        let a = GlobalArray::zeros(&[]);
        assert_eq!(a.len(), 1);
        a.set(&[], 2.5);
        assert_eq!(a.get(&[]), 2.5);
        let b = GlobalArray::zeros(&[]);
        b.copy_section(&Section::full(&[]), &a, &Section::full(&[]));
        assert_eq!(b.get(&[]), 2.5);
    }

    #[test]
    fn section_copy_between_shapes() {
        let src = GlobalArray::zeros(&[3, 4, 5]);
        for k in 0..src.len() {
            src.set_flat(k, k as f64);
        }
        let sec = Section::new(vec![1, 1, 2], vec![3, 3, 5]);
        let dst = GlobalArray::zeros(&[2, 2, 4]);
        let dst_sec = Section::new(vec![0, 0, 1], vec![2, 2, 4]);
        dst.copy_section(&dst_sec, &src, &sec);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..3 {
                    assert_eq!(dst.get(&[i, j, k + 1]), src.get(&[i + 1, j + 1, k + 2]));
                }
            }
        }
        // elements outside the destination section are untouched
        assert_eq!(dst.get(&[0, 0, 0]), 0.0);
        dst.zero_section(&dst_sec);
        assert_eq!(dst.to_vec(), vec![0.0; dst.len()]);
    }

    #[test]
    fn section_roundtrip() {
        let a = GlobalArray::zeros(&[3, 4]);
        let sec = Section::new(vec![1, 1], vec![3, 3]);
        let (buf, whole) = (GlobalArray::zeros(&[2, 2]), Section::full(&[2, 2]));
        for k in 0..4 {
            buf.set_flat(k, k as f64 + 1.0);
        }
        a.copy_section(&sec, &buf, &whole);
        let out = GlobalArray::zeros(&[2, 2]);
        out.copy_section(&whole, &a, &sec);
        assert_eq!(out.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((a.get(&[1, 1]), a.get(&[2, 2])), (1.0, 4.0));
        // elements outside the section untouched
        assert_eq!(a.get(&[0, 0]), 0.0);
        assert_eq!(a.get(&[1, 3]), 0.0);
    }

    #[test]
    fn zeroing() {
        let a = GlobalArray::zeros(&[5]);
        for k in 0..5 {
            a.set(&[k], 1.0);
        }
        a.zero_range(1, 3);
        assert_eq!(a.to_vec(), vec![1.0, 0.0, 0.0, 1.0, 1.0]);
        a.zero_section(&Section::full(&[5]));
        assert_eq!(a.to_vec(), vec![0.0; 5]);
    }
}
