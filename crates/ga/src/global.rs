//! Shared global arrays with lock-free accumulation.
//!
//! Stands in for GA's distributed shared memory: every simulated process
//! sees the same dense array and may accumulate into it concurrently.
//! Values are stored as `f64` bit patterns in `AtomicU64`s; `add` uses a
//! compare-exchange loop, so concurrent accumulation from ranks working on
//! overlapping regions stays correct without locks.

use crate::section::{section_runs, strides, Section};
use std::sync::atomic::{AtomicU64, Ordering};

/// A dense, shared, multi-dimensional `f64` array.
///
/// ```
/// use tce_ga::GlobalArray;
///
/// let a = GlobalArray::zeros(&[2, 3]);
/// a.add(&[1, 2], 1.5);
/// a.add(&[1, 2], 0.5);
/// assert_eq!(a.get(&[1, 2]), 2.0);
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

    /// Atomically accumulates into an element by flat offset.
    #[inline]
    pub fn add_flat(&self, off: usize, v: f64) {
        let add = |cur: u64| Some((f64::from_bits(cur) + v).to_bits());
        let _ = self.data[off].fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Reads an element by multi-index.
    pub fn get(&self, idx: &[u64]) -> f64 {
        self.get_flat(self.offset(idx))
    }

    /// Writes an element by multi-index.
    pub fn set(&self, idx: &[u64], v: f64) {
        self.set_flat(self.offset(idx), v)
    }

    /// Atomically accumulates into an element by multi-index.
    pub fn add(&self, idx: &[u64], v: f64) {
        self.add_flat(self.offset(idx), v)
    }

    /// Zeroes a flat range (used by cooperative per-rank zeroing).
    pub fn zero_range(&self, start: usize, end: usize) {
        let zero = 0f64.to_bits();
        for cell in &self.data[start..end] {
            cell.store(zero, Ordering::Relaxed);
        }
    }

    /// Zeroes the whole array.
    pub fn zero(&self) {
        self.zero_range(0, self.data.len());
    }

    /// Copies a section of this array into a flat destination vector
    /// (row-major order of the section).
    pub fn read_section(&self, sec: &Section, dst: &mut [f64]) {
        debug_assert_eq!(dst.len() as u64, sec.len());
        let mut pos = 0usize;
        for (off, len) in section_runs(&self.dims, sec) {
            for k in 0..len as usize {
                dst[pos + k] = self.get_flat(off as usize + k);
            }
            pos += len as usize;
        }
    }

    /// Writes flat data into a section of this array.
    pub fn write_section(&self, sec: &Section, src: &[f64]) {
        debug_assert_eq!(src.len() as u64, sec.len());
        let mut pos = 0usize;
        for (off, len) in section_runs(&self.dims, sec) {
            for k in 0..len as usize {
                self.set_flat(off as usize + k, src[pos + k]);
            }
            pos += len as usize;
        }
    }

    /// Snapshot of the whole array as a plain vector.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.data.len()).map(|k| self.get_flat(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        a.add(&[], 2.5);
        a.add(&[], 0.5);
        assert_eq!(a.get(&[]), 3.0);
    }

    #[test]
    fn atomic_accumulation_from_threads() {
        let a = Arc::new(GlobalArray::zeros(&[4]));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for k in 0..1000u64 {
                        a.add(&[k % 4], 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for k in 0..4 {
            assert_eq!(a.get(&[k]), 2000.0);
        }
    }

    #[test]
    fn section_roundtrip() {
        let a = GlobalArray::zeros(&[3, 4]);
        let sec = Section::new(vec![1, 1], vec![3, 3]);
        a.write_section(&sec, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![0.0; 4];
        a.read_section(&sec, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
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
        a.zero();
        assert_eq!(a.to_vec(), vec![0.0; 5]);
    }
}
