//! Rectangular sections of row-major arrays.

/// A rectangular section `[lo, hi)` of a multi-dimensional array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Inclusive lower corner, one entry per dimension.
    pub lo: Vec<u64>,
    /// Exclusive upper corner.
    pub hi: Vec<u64>,
}

impl Section {
    /// Creates a section; panics if `lo`/`hi` lengths differ or any
    /// `lo > hi`.
    pub fn new(lo: Vec<u64>, hi: Vec<u64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner ranks differ");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "inverted section {lo:?}..{hi:?}"
        );
        Section { lo, hi }
    }

    /// The whole array.
    pub fn full(dims: &[u64]) -> Self {
        Section {
            lo: vec![0; dims.len()],
            hi: dims.to_vec(),
        }
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> Vec<u64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }

    /// Number of elements in the section.
    pub fn len(&self) -> u64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// True if both sections have the same rank and per-dimension extents.
    pub fn same_extents(&self, other: &Section) -> bool {
        self.lo.len() == other.lo.len()
            && (0..self.lo.len()).all(|k| self.hi[k] - self.lo[k] == other.hi[k] - other.lo[k])
    }

    /// True if the section is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Row-major strides of an array shape.
pub fn strides(dims: &[u64]) -> Vec<u64> {
    let mut s = vec![1u64; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        s[k] = s[k + 1] * dims[k + 1];
    }
    s
}

/// Number of elements in a section of an array with the given dims.
pub fn section_len(sec: &Section) -> u64 {
    sec.len()
}

/// Decomposes a section of a row-major array into contiguous
/// `(flat_offset, run_len)` runs, in ascending offset order.
///
/// The innermost dimension is contiguous, so each run covers the full
/// innermost extent of the section; scalars (rank 0) yield one run of
/// length 1.
pub fn section_runs(dims: &[u64], sec: &Section) -> Vec<(u64, u64)> {
    assert_eq!(dims.len(), sec.lo.len(), "section rank mismatch");
    for (d, (l, h)) in dims.iter().zip(sec.lo.iter().zip(&sec.hi)) {
        assert!(h <= d, "section [{l}, {h}) exceeds dim {d}");
        let _ = l;
    }
    if sec.is_empty() {
        return Vec::new();
    }
    let st = strides(dims);
    let rank = dims.len();
    // j = smallest index such that dims[j..] are fully covered
    let mut j = rank;
    while j > 0 && sec.lo[j - 1] == 0 && sec.hi[j - 1] == dims[j - 1] {
        j -= 1;
    }
    if j == 0 {
        // the whole array (also covers rank-0 scalars)
        return vec![(0, dims.iter().product::<u64>().max(1))];
    }
    // dim j-1 is the outermost dimension folded into each contiguous run
    let run_len: u64 = (sec.hi[j - 1] - sec.lo[j - 1]) * dims[j..].iter().product::<u64>();
    let base = sec.lo[j - 1] * st[j - 1];

    // odometer over dims [0, j-1) within the section bounds
    let outer = j - 1;
    let mut counter: Vec<u64> = sec.lo[..outer].to_vec();
    let mut runs = Vec::new();
    loop {
        let offset: u64 = base
            + counter
                .iter()
                .enumerate()
                .map(|(k, &c)| c * st[k])
                .sum::<u64>();
        runs.push((offset, run_len));
        // advance the odometer
        let mut k = outer;
        loop {
            if k == 0 {
                return runs;
            }
            k -= 1;
            counter[k] += 1;
            if counter[k] < sec.hi[k] {
                break;
            }
            counter[k] = sec.lo[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[7]), vec![1]);
        assert!(strides(&[]).is_empty());
    }

    #[test]
    fn full_section_is_one_run() {
        let dims = [4, 5];
        let runs = section_runs(&dims, &Section::full(&dims));
        assert_eq!(runs, vec![(0, 20)]);
    }

    #[test]
    fn inner_slab_is_one_run_per_row() {
        let dims = [4, 6];
        let sec = Section::new(vec![1, 2], vec![3, 5]);
        let runs = section_runs(&dims, &sec);
        assert_eq!(runs, vec![(8, 3), (14, 3)]);
        assert_eq!(sec.len(), 6);
    }

    #[test]
    fn trailing_full_dims_fold_into_runs() {
        let dims = [3, 4, 5];
        // rows 1..3, full trailing dims
        let sec = Section::new(vec![1, 0, 0], vec![3, 4, 5]);
        let runs = section_runs(&dims, &sec);
        assert_eq!(runs, vec![(20, 40)]);
    }

    #[test]
    fn middle_partial_dims_iterate() {
        let dims = [2, 3, 4];
        let sec = Section::new(vec![0, 1, 0], vec![2, 3, 4]);
        let runs = section_runs(&dims, &sec);
        // for each of the 2 outer rows: dims 1..3 of extent 2, full inner
        assert_eq!(runs, vec![(4, 8), (16, 8)]);
    }

    #[test]
    fn scalar_section() {
        let runs = section_runs(&[], &Section::new(vec![], vec![]));
        assert_eq!(runs, vec![(0, 1)]);
    }

    #[test]
    fn empty_section_yields_nothing() {
        let dims = [3, 3];
        let sec = Section::new(vec![1, 1], vec![1, 3]);
        assert!(sec.is_empty());
        assert!(section_runs(&dims, &sec).is_empty());
    }

    #[test]
    fn runs_cover_section_exactly() {
        let dims = [3, 4, 5];
        let sec = Section::new(vec![1, 1, 2], vec![3, 3, 5]);
        let runs = section_runs(&dims, &sec);
        let total: u64 = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, sec.len());
        // all runs disjoint and ascending
        for w in runs.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds dim")]
    fn oversized_section_panics() {
        section_runs(&[2, 2], &Section::new(vec![0, 0], vec![2, 3]));
    }
}
