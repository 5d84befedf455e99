//! The benchmark's only source of randomness: a splitmix64 stream seeded
//! from `--seed`. The program under test never sees the stream, only the
//! request sequences drawn from it.

/// splitmix64 (Steele, Lea, Flood): one 64-bit state word, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// A decorrelated child stream, e.g. one per client thread.
    pub fn fork(&self, lane: u64) -> Self {
        let mut child = SplitMix64(self.0 ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-50 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `0..n` in a fresh seeded order: one pass over a workload's classes.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // reference values of splitmix64 seeded with 1234567
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..32).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        SplitMix64::new(8).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u32>>());
    }

    #[test]
    fn forks_differ_from_each_other_and_the_parent() {
        let root = SplitMix64::new(2004);
        let (mut a, mut b, mut p) = (root.fork(0), root.fork(1), root.clone());
        let (x, y, z) = (a.next_u64(), b.next_u64(), p.next_u64());
        assert!(x != y && x != z && y != z);
    }
}
