//! Property tests for the section walker behind global-array transfers.

use proptest::prelude::*;
use tce_ga::{strides, GlobalArray, Section};

fn arb_dims() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..7, 0..4)
}

fn arb_section(dims: Vec<u64>) -> impl Strategy<Value = (Vec<u64>, Section)> {
    let ranges: Vec<_> = dims
        .iter()
        .map(|&d| (0..d).prop_flat_map(move |lo| (Just(lo), lo..=d)))
        .collect();
    (Just(dims), ranges).prop_map(|(dims, bounds)| {
        let lo: Vec<u64> = bounds.iter().map(|(l, _)| *l).collect();
        let hi: Vec<u64> = bounds.iter().map(|(_, h)| *h).collect();
        (dims, Section::new(lo, hi))
    })
}

/// True if flat offset `off` of an array with `dims` decodes to a
/// multi-index inside `sec`.
fn inside(dims: &[u64], sec: &Section, off: u64) -> bool {
    let mut rem = off;
    strides(dims).iter().enumerate().all(|(k, &s)| {
        let v = rem / s;
        rem %= s;
        v >= sec.lo[k] && v < sec.hi[k]
    })
}

proptest! {
    /// A section copy between two arrays of one shape writes exactly the
    /// section's elements, each from the same position of the source.
    #[test]
    fn runs_cover_section_exactly(
        (dims, sec) in arb_dims().prop_flat_map(arb_section)
    ) {
        let src = GlobalArray::zeros(&dims);
        for k in 0..src.len() {
            src.set_flat(k, k as f64 + 1.0);
        }
        let dst = GlobalArray::zeros(&dims);
        dst.copy_section(&sec, &src, &sec);
        for k in 0..dst.len() {
            let want = if inside(&dims, &sec, k as u64) { src.get_flat(k) } else { 0.0 };
            prop_assert_eq!(dst.get_flat(k), want, "offset {}", k);
        }
    }

    /// Copying a section out to a compact buffer and back round-trips.
    #[test]
    fn global_array_section_roundtrip(
        (dims, sec) in arb_dims().prop_flat_map(arb_section),
        seed in 0u64..1000
    ) {
        prop_assume!(!sec.is_empty());
        let extents: Vec<u64> = sec.lo.iter().zip(&sec.hi).map(|(l, h)| h - l).collect();
        let whole = Section::full(&extents);
        let data = GlobalArray::zeros(&extents);
        for k in 0..data.len() {
            data.set_flat(k, (seed + k as u64) as f64);
        }
        let a = GlobalArray::zeros(&dims);
        a.copy_section(&sec, &data, &whole);
        let out = GlobalArray::zeros(&extents);
        out.copy_section(&whole, &a, &sec);
        prop_assert_eq!(out.to_vec(), data.to_vec());
    }

    /// Zeroing a section clears exactly its elements.
    #[test]
    fn writes_stay_inside_the_section(
        (dims, sec) in arb_dims().prop_flat_map(arb_section)
    ) {
        let a = GlobalArray::zeros(&dims);
        for k in 0..a.len() {
            a.set_flat(k, 1.0);
        }
        a.zero_section(&sec);
        for k in 0..a.len() {
            let zeroed = a.get_flat(k) == 0.0;
            prop_assert_eq!(zeroed, inside(&dims, &sec, k as u64), "offset {}", k);
        }
    }
}
