//! Out-of-core matrix transposition — the block-size study behind the
//! paper's minimum-I/O-block constraints.
//!
//! Sec. 4.2 cites Krishnamoorthy et al.'s tech report \[37\]: arrays are
//! stored on disk in *blocked* fashion — each tile contiguous, the tile
//! being the unit of I/O — and "the incremental improvement obtained in
//! the ratio of transfer time to seek time was observed to become
//! negligible ... beyond a block size", which yields the 2 MB read / 1 MB
//! write minima of the synthesis constraints. This crate reproduces that
//! study on the simulated disk:
//!
//! * [`BlockedLayout`] — the on-disk layout: an `n×n` matrix stored as
//!   `⌈n/b⌉²` tiles, each in its own contiguous `b²`-element slot.
//! * [`transpose_out_of_core`] — read one tile (one I/O op), transpose in
//!   memory, write it to the mirrored tile of the destination (one op);
//!   only one tile is in flight at a time. The caller owns the blocked
//!   source and destination; the disk charges each transfer.
//! * [`block_size_sweep`] — simulated transposition time across block
//!   sizes, regenerating the seek-share knee that justifies the constants
//!   in [`tce_disksim::DiskProfile::itanium2_osc`].

#![warn(missing_docs)]

use tce_disksim::{DiskError, DiskProfile, SimDisk};

/// Blocked on-disk layout of an `n×n` matrix with tile edge `b`.
///
/// Tiles are stored in row-major tile order; every tile occupies a full
/// `b²`-element slot (edge tiles leave slot padding unused), so tile
/// `(tr, tc)` starts at `(tr·T + tc)·b²` with `T = ⌈n/b⌉`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedLayout {
    /// Matrix order.
    pub n: u64,
    /// Tile edge.
    pub b: u64,
}

impl BlockedLayout {
    /// Creates a layout; panics on degenerate sizes.
    pub fn new(n: u64, b: u64) -> Self {
        assert!(n >= 1 && b >= 1, "degenerate layout");
        BlockedLayout { n, b }
    }

    /// Tiles per side, `⌈n/b⌉`.
    pub fn tiles_per_side(&self) -> u64 {
        self.n.div_ceil(self.b)
    }

    /// Total file length in elements (with slot padding).
    pub fn file_len(&self) -> u64 {
        let t = self.tiles_per_side();
        t * t * self.b * self.b
    }

    /// Element offset of tile `(tr, tc)`'s slot.
    pub fn tile_offset(&self, tr: u64, tc: u64) -> u64 {
        (tr * self.tiles_per_side() + tc) * self.b * self.b
    }

    /// Actual extent of tile row `tr` (edge tiles are smaller).
    pub fn tile_rows(&self, tr: u64) -> u64 {
        self.b.min(self.n - tr * self.b)
    }

    /// Actual extent of tile column `tc`.
    pub fn tile_cols(&self, tc: u64) -> u64 {
        self.b.min(self.n - tc * self.b)
    }

    /// Flat offset of element `(r, c)` under this layout.
    pub fn element_offset(&self, r: u64, c: u64) -> u64 {
        assert!(r < self.n && c < self.n, "element out of range");
        let (tr, tc) = (r / self.b, c / self.b);
        let (ir, ic) = (r % self.b, c % self.b);
        self.tile_offset(tr, tc) + ir * self.tile_cols(tc) + ic
    }
}

/// Result of one out-of-core transposition run.
#[derive(Clone, Debug, PartialEq)]
pub struct TransposeReport {
    /// Matrix order (the matrix is `n × n`).
    pub n: u64,
    /// Tile edge used (`b × b` tiles).
    pub block: u64,
    /// Total I/O operations issued (2 per tile: one read, one write).
    pub ops: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Simulated seconds.
    pub time_s: f64,
    /// Fraction of the time spent in seeks.
    pub seek_share: f64,
}

impl TransposeReport {
    /// Effective bandwidth of the run, bytes per simulated second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.bytes as f64 / self.time_s
    }
}

/// Transposes the blocked `n×n` matrix `src` into `dst` (same layout),
/// tile by tile: per tile one contiguous read, an in-memory transpose,
/// one contiguous write at the mirrored position. `disk` charges each
/// read as `charge_read("src", len)` and each write as
/// `charge_write("dst", len)`.
///
/// `data` holds the blocked source and destination, each
/// [`BlockedLayout::file_len`] elements long; `None` is a dry run that
/// charges the same transfers and moves no data.
///
/// ```
/// use tce_disksim::{DiskProfile, SimDisk};
/// use tce_trans::{transpose_out_of_core, BlockedLayout};
///
/// let layout = BlockedLayout::new(8, 4);
/// let disk = SimDisk::new(DiskProfile::unconstrained_test());
/// let a: Vec<f64> = (0..layout.file_len()).map(|k| k as f64).collect();
/// let mut at = vec![0.0; a.len()];
/// let report = transpose_out_of_core(&disk, layout, Some((&a, &mut at))).unwrap();
/// assert_eq!(report.ops, 2 * 4); // four tiles, one read + one write each
/// let at_01 = at[layout.element_offset(0, 1) as usize];
/// assert_eq!(at_01, a[layout.element_offset(1, 0) as usize]);
/// ```
pub fn transpose_out_of_core(
    disk: &SimDisk,
    layout: BlockedLayout,
    mut data: Option<(&[f64], &mut [f64])>,
) -> Result<TransposeReport, DiskError> {
    if let Some((src, dst)) = &data {
        let len = layout.file_len() as usize;
        assert!(
            src.len() == len && dst.len() == len,
            "blocked matrices must hold {len} elements"
        );
    }
    let before = disk.stats();
    let tiles = layout.tiles_per_side();
    for tr in 0..tiles {
        for tc in 0..tiles {
            let rows = layout.tile_rows(tr);
            let cols = layout.tile_cols(tc);
            disk.charge_read("src", rows * cols)?;
            if let Some((src, dst)) = &mut data {
                // transpose rows×cols → cols×rows
                let from = &src[layout.tile_offset(tr, tc) as usize..];
                let to = &mut dst[layout.tile_offset(tc, tr) as usize..];
                for r in 0..rows {
                    for c in 0..cols {
                        to[(c * rows + r) as usize] = from[(r * cols + c) as usize];
                    }
                }
            }
            disk.charge_write("dst", rows * cols)?;
        }
    }

    let after = disk.stats();
    let ops = after.total_ops() - before.total_ops();
    let bytes = after.total_bytes() - before.total_bytes();
    let time_s = after.total_time_s() - before.total_time_s();
    let seek_share = (ops as f64 * disk.profile().seek_s) / time_s;
    Ok(TransposeReport {
        n: layout.n,
        block: layout.b,
        ops,
        bytes,
        time_s,
        seek_share,
    })
}

/// One row of the block-size study.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Tile edge in elements.
    pub block_elems: u64,
    /// Tile payload in bytes (`b²·8` — the transfer unit).
    pub block_bytes: u64,
    /// Simulated seconds for the whole transposition.
    pub time_s: f64,
    /// Seek share of the time.
    pub seek_share: f64,
    /// Effective bandwidth relative to the disk's raw read bandwidth.
    pub bandwidth_fraction: f64,
}

/// Sweeps tile sizes for an `n×n` dry transposition and reports where the
/// seek share stops mattering — \[37\]'s experiment on the simulated disk.
pub fn block_size_sweep(profile: &DiskProfile, n: u64, blocks: &[u64]) -> Vec<SweepRow> {
    blocks
        .iter()
        .map(|&b| {
            let disk = SimDisk::new(profile.clone());
            let rep = transpose_out_of_core(&disk, BlockedLayout::new(n, b), None)
                .expect("a fault-free disk cannot fail");
            SweepRow {
                block_elems: b,
                block_bytes: b * b * 8,
                time_s: rep.time_s,
                seek_share: rep.seek_share,
                bandwidth_fraction: rep.effective_bandwidth()
                    / profile.read_bw.max(profile.write_bw),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskProfile {
            seek_s: 0.005,
            read_bw: 1000.0 * 8.0, // 1000 elements/s
            write_bw: 1000.0 * 8.0,
            min_read_block: 0,
            min_write_block: 0,
        })
    }

    fn dry(n: u64, b: u64) -> TransposeReport {
        transpose_out_of_core(&disk(), BlockedLayout::new(n, b), None).unwrap()
    }

    /// The blocked matrix whose *logical* element (r, c) = r·n + c.
    fn logical(layout: BlockedLayout) -> Vec<f64> {
        let n = layout.n;
        let mut flat = vec![0.0f64; layout.file_len() as usize];
        for r in 0..n {
            for c in 0..n {
                flat[layout.element_offset(r, c) as usize] = (r * n + c) as f64;
            }
        }
        flat
    }

    #[test]
    fn layout_offsets_are_consistent() {
        let l = BlockedLayout::new(10, 4);
        assert_eq!(l.tiles_per_side(), 3);
        assert_eq!(l.file_len(), 9 * 16);
        assert_eq!(l.tile_rows(2), 2); // edge tile
                                       // distinct elements map to distinct offsets
        let mut seen = std::collections::HashSet::new();
        for r in 0..10 {
            for c in 0..10 {
                assert!(seen.insert(l.element_offset(r, c)));
            }
        }
    }

    #[test]
    fn transposes_correctly() {
        for (n, b) in [(10u64, 4u64), (12, 4), (7, 3), (9, 9), (8, 1)] {
            let layout = BlockedLayout::new(n, b);
            let a = logical(layout);
            let mut at = vec![0.0; a.len()];
            transpose_out_of_core(&disk(), layout, Some((&a, &mut at))).unwrap();
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(
                        at[layout.element_offset(r, c) as usize],
                        (c * n + r) as f64,
                        "n={n} b={b} At[{r},{c}]"
                    );
                }
            }
        }
    }

    #[test]
    fn two_ops_per_tile() {
        let rep = dry(16, 4);
        assert_eq!(rep.ops, 2 * 16); // 4x4 tiles, read + write each
        assert_eq!(rep.bytes, 2 * 16 * 16 * 8);
    }

    #[test]
    fn smaller_blocks_cost_more_seeks() {
        let small = dry(32, 2);
        let large = dry(32, 16);
        assert!(small.ops > large.ops);
        assert!(small.time_s > large.time_s);
        assert!(small.seek_share > large.seek_share);
        // same payload either way
        assert_eq!(small.bytes, large.bytes);
    }

    #[test]
    fn sweep_reproduces_the_2mb_knee() {
        // the paper's constants: ≥2 MB read blocks make seek negligible
        // on the Table 1 system
        let profile = DiskProfile::itanium2_osc();
        let n = 1 << 14; // 16384² doubles = 2 GB matrix
        let rows = block_size_sweep(&profile, n, &[32, 128, 512, 2048, 16384]);
        for w in rows.windows(2) {
            assert!(w[1].seek_share <= w[0].seek_share + 1e-12);
            assert!(w[1].time_s <= w[0].time_s + 1e-9);
        }
        // 32² doubles = 8 KB blocks: seek-bound
        assert!(rows[0].seek_share > 0.9, "{:?}", rows[0]);
        // 512² doubles = 2 MB blocks: the paper's knee — seek ≤ ~20%
        let knee = rows.iter().find(|r| r.block_elems == 512).unwrap();
        assert!(knee.seek_share < 0.2, "{knee:?}");
        // 2048² = 32 MB: fully transfer-dominated
        let big = rows.iter().find(|r| r.block_elems == 2048).unwrap();
        assert!(big.seek_share < 0.02, "{big:?}");
        assert!(big.bandwidth_fraction > 0.4, "{big:?}");
    }

    #[test]
    fn block_sweep_is_pinned() {
        // the `tables -- blocksweep` rows: (block, bits of time_s,
        // seek_share, bandwidth_fraction); seek shares 98.0% … 0.0%
        #[rustfmt::skip]
        const PINNED: [(u64, u64, u64, u64); 9] = [
            (32, 0x40b2ce57b7de0bc1, 0x3fef5d128873e1e3, 0x3f8fae2c942ca61c),
            (64, 0x4093ed98378909c0, 0x3fed98fc27f9e087, 0x3fade5852af73ab8),
            (128, 0x40786a9a36349d03, 0x3fe828282828273a, 0x3fc8669f8311493e),
            (256, 0x40652f5118716a14, 0x3fdbd780b92142f4, 0x3fdc1f7f70029134),
            (512, 0x405c8bb086e6eb3d, 0x3fc4a997e1f20bc2, 0x3fe4df0605d80be2),
            (1024, 0x405916f41c67f150, 0x3fa78236a6647230, 0x3fe7bf00e6223a74),
            (2048, 0x405839c501c832d5, 0x3f8858d9dbdfe7fd, 0x3fe897cf2153f217),
            (4096, 0x405802793b20433e, 0x3f6890ec9185b533, 0x3fe8d072d6397b8e),
            (16384, 0x4057f1318d0bc85c, 0x3f28a2a78841ec2f, 0x3fe8e25ba6140b05),
        ];
        let blocks = PINNED.map(|p| p.0);
        let rows = block_size_sweep(&DiskProfile::itanium2_osc(), 1 << 14, &blocks);
        for (row, &(block, time, seek, bw)) in rows.iter().zip(&PINNED) {
            let got = (
                row.block_elems,
                row.time_s.to_bits(),
                row.seek_share.to_bits(),
                row.bandwidth_fraction.to_bits(),
            );
            assert_eq!(got, (block, time, seek, bw), "{row:?}");
        }
    }

    #[test]
    fn dry_and_full_agree_on_accounting() {
        let layout = BlockedLayout::new(12, 4);
        let a = logical(layout);
        let mut at = vec![0.0; a.len()];
        let full = transpose_out_of_core(&disk(), layout, Some((&a, &mut at))).unwrap();
        let dry = dry(12, 4);
        assert_eq!(full, dry);
    }
}
