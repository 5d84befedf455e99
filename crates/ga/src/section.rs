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

/// Walks two sections of equal extents — `a` of a row-major array of
/// shape `da`, `b` of one of shape `db` — in lockstep: calls
/// `f(a_offset, b_offset, len)` once per contiguous run, in ascending
/// offset order. Trailing dimensions that both sections cover whole fold
/// into one run; a scalar (rank 0) is one run of length 1.
///
/// # Panics
///
/// If a section's rank is not its array's, a section exceeds its
/// array's bounds, or the two extents differ.
pub(crate) fn zip_runs(
    da: &[u64],
    a: &Section,
    db: &[u64],
    b: &Section,
    mut f: impl FnMut(usize, usize, usize),
) {
    for (dims, s) in [(da, a), (db, b)] {
        assert_eq!(s.lo.len(), dims.len(), "section rank mismatch");
        for ((l, h), d) in s.lo.iter().zip(&s.hi).zip(dims) {
            assert!(h <= d, "section [{l}, {h}) exceeds dim {d}");
        }
    }
    assert!(a.same_extents(b), "section extents differ");
    if a.is_empty() {
        return;
    }
    let Some(mut outer) = da.len().checked_sub(1) else {
        return f(0, 0, 1);
    };
    // a run spans dimension `outer` and every later one, all of which
    // both sections cover whole; the odometer steps the dims before it
    let whole = |dims: &[u64], s: &Section, k: usize| s.lo[k] == 0 && s.hi[k] == dims[k];
    while outer > 0 && whole(da, a, outer) && whole(db, b, outer) {
        outer -= 1;
    }
    // counters, then the strides of `a` and of `b`, of the stepped dims
    let mut scratch = vec![0u64; 3 * outer];
    let (ctr, st) = scratch.split_at_mut(outer);
    let (sa, sb) = st.split_at_mut(outer);
    let (mut oa, mut ob, mut len) = (0u64, 0u64, 0u64);
    let (mut pa, mut pb) = (1u64, 1u64);
    for k in (0..da.len()).rev() {
        oa += a.lo[k] * pa;
        ob += b.lo[k] * pb;
        if k == outer {
            len = (a.hi[k] - a.lo[k]) * pa;
        } else if k < outer {
            (sa[k], sb[k]) = (pa, pb);
        }
        pa *= da[k];
        pb *= db[k];
    }
    loop {
        f(oa as usize, ob as usize, len as usize);
        let mut k = outer;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            ctr[k] += 1;
            oa += sa[k];
            ob += sb[k];
            if ctr[k] < a.hi[k] - a.lo[k] {
                break;
            }
            oa -= ctr[k] * sa[k];
            ob -= ctr[k] * sb[k];
            ctr[k] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GlobalArray;

    /// The runs of `a` walked against `b`.
    fn lockstep(da: &[u64], a: &Section, db: &[u64], b: &Section) -> Vec<(u64, u64, u64)> {
        let mut runs = Vec::new();
        zip_runs(da, a, db, b, |x, y, len| {
            runs.push((x as u64, y as u64, len as u64))
        });
        runs
    }

    /// The runs of `sec` walked against itself.
    fn runs_of(dims: &[u64], sec: &Section) -> Vec<(u64, u64)> {
        let runs = lockstep(dims, sec, dims, sec);
        runs.into_iter().map(|(off, _, len)| (off, len)).collect()
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[7]), vec![1]);
        assert!(strides(&[]).is_empty());
    }

    #[test]
    fn full_section_is_one_run() {
        let dims = [4, 5];
        let runs = runs_of(&dims, &Section::full(&dims));
        assert_eq!(runs, vec![(0, 20)]);
    }

    #[test]
    fn inner_slab_is_one_run_per_row() {
        let dims = [4, 6];
        let sec = Section::new(vec![1, 2], vec![3, 5]);
        let runs = runs_of(&dims, &sec);
        assert_eq!(runs, vec![(8, 3), (14, 3)]);
        assert_eq!(sec.len(), 6);
    }

    #[test]
    fn trailing_full_dims_fold_into_runs() {
        let dims = [3, 4, 5];
        // rows 1..3, full trailing dims
        let sec = Section::new(vec![1, 0, 0], vec![3, 4, 5]);
        let runs = runs_of(&dims, &sec);
        assert_eq!(runs, vec![(20, 40)]);
    }

    #[test]
    fn middle_partial_dims_iterate() {
        let dims = [2, 3, 4];
        let sec = Section::new(vec![0, 1, 0], vec![2, 3, 4]);
        let runs = runs_of(&dims, &sec);
        // for each of the 2 outer rows: dims 1..3 of extent 2, full inner
        assert_eq!(runs, vec![(4, 8), (16, 8)]);
    }

    #[test]
    fn only_dims_both_sides_cover_whole_fold() {
        // rows 1..3 of a [4, 3] array against the whole of a [2, 3] one:
        // both cover the inner dimension whole, so each pair is one run
        let whole = Section::full(&[2, 3]);
        let rows = Section::new(vec![1, 0], vec![3, 3]);
        assert_eq!(lockstep(&[2, 3], &whole, &[4, 3], &rows), vec![(0, 3, 6)]);
        // a [2, 4] array's first three columns cover no dimension whole
        let cols = Section::new(vec![0, 0], vec![2, 3]);
        let runs = lockstep(&[2, 3], &whole, &[2, 4], &cols);
        assert_eq!(runs, vec![(0, 0, 3), (3, 4, 3)]);
    }

    #[test]
    fn scalar_section() {
        let runs = runs_of(&[], &Section::new(vec![], vec![]));
        assert_eq!(runs, vec![(0, 1)]);
    }

    #[test]
    fn empty_section_yields_nothing() {
        let dims = [3, 3];
        let sec = Section::new(vec![1, 1], vec![1, 3]);
        assert!(sec.is_empty());
        assert!(runs_of(&dims, &sec).is_empty());
    }

    #[test]
    fn runs_cover_section_exactly() {
        let dims = [3, 4, 5];
        let sec = Section::new(vec![1, 1, 2], vec![3, 3, 5]);
        let runs = runs_of(&dims, &sec);
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
        // columns 2..4 of a [2, 3] array: column 3 does not exist, and a
        // walker that did not check would write element (1, 0) instead
        let dst = GlobalArray::zeros(&[2, 3]);
        let src = GlobalArray::zeros(&[1, 2]);
        let sec = Section::new(vec![0, 2], vec![1, 4]);
        dst.copy_section(&sec, &src, &Section::full(&[1, 2]));
    }
}
