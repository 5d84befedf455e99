//! The uniform-sampling baseline (Sec. 5, approach 1).
//!
//! The prior out-of-core extension of the memory-to-cache algorithm
//! (ref. \[10\] extended in \[38\]): the tile-size space is sampled log-uniformly
//! along each dimension and scanned by brute force; for each sampled tile
//! vector a *greedy* placement pushes I/O statements inward (shrinking
//! buffers) until the memory limit is met. Orders of magnitude slower
//! than the DCS formulation — that gap is Table 2.

use crate::dcs::{assemble_result, SynthesisConfig, SynthesisError, SynthesisResult};
use std::time::Instant;
use tce_cost::{CostExpr, TileAssignment};
use tce_ir::{Index, Program, RangeMap};
use tce_tile::{
    enumerate_placements, tile_program, IntermediateChoice, PlacementSelection, SynthesisSpace,
};

/// Options for the uniform-sampling baseline.
#[derive(Clone, Debug)]
pub struct BaselineOptions {
    /// Shared synthesis configuration (memory limit, disk profile, block
    /// constraints).
    pub config: SynthesisConfig,
    /// Cap on the ladder length per index (`None` = the full power-of-two
    /// ladder). `tables --fast` and the tests use a small cap to stay
    /// quick; the full `tables` run uses the whole ladder like the paper.
    pub samples_per_index: Option<usize>,
}

impl BaselineOptions {
    /// Full-ladder baseline with the given config.
    pub fn new(config: SynthesisConfig) -> Self {
        BaselineOptions {
            config,
            samples_per_index: None,
        }
    }
}

/// The log-uniform tile ladder for one index: powers of two up to the
/// range, plus the full range itself.
fn ladder(n: u64, cap: Option<usize>) -> Vec<u64> {
    let mut vals = Vec::new();
    let mut v = 1u64;
    while v < n {
        vals.push(v);
        v *= 2;
    }
    vals.push(n);
    if let Some(cap) = cap {
        if cap >= 2 && vals.len() > cap {
            // evenly subsample, always keeping 1 and N
            let mut picked = Vec::with_capacity(cap);
            for k in 0..cap {
                let pos = k * (vals.len() - 1) / (cap - 1);
                picked.push(vals[pos]);
            }
            picked.dedup();
            return picked;
        }
    }
    vals
}

/// Pre-evaluated candidate costs so the inner scan is allocation-free.
struct Costs {
    read_io: Vec<Vec<CostExpr>>,
    read_mem: Vec<Vec<CostExpr>>,
    write_io: Vec<Vec<CostExpr>>,
    write_mem: Vec<Vec<CostExpr>>,
    inter_mem_in: Vec<CostExpr>,
    inter_io: Vec<Vec<Vec<CostExpr>>>, // [inter][write][read]
    inter_mem: Vec<Vec<Vec<CostExpr>>>,
}

impl Costs {
    fn new(space: &SynthesisSpace) -> Self {
        let per_set =
            |sets: &[tce_tile::CandidateSet]| -> (Vec<Vec<CostExpr>>, Vec<Vec<CostExpr>>) {
                let io = sets
                    .iter()
                    .map(|s| s.candidates.iter().map(|c| c.total_io()).collect())
                    .collect();
                let mem = sets
                    .iter()
                    .map(|s| s.candidates.iter().map(|c| c.memory()).collect())
                    .collect();
                (io, mem)
            };
        let (read_io, read_mem) = per_set(&space.reads);
        let (write_io, write_mem) = per_set(&space.writes);
        let inter_mem_in = space
            .intermediates
            .iter()
            .map(|o| o.in_memory.bytes_expr())
            .collect();
        let inter_io = space
            .intermediates
            .iter()
            .map(|o| {
                o.write
                    .candidates
                    .iter()
                    .map(|w| {
                        o.read
                            .candidates
                            .iter()
                            .map(|r| w.total_io().add(&r.total_io()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let inter_mem = space
            .intermediates
            .iter()
            .map(|o| {
                o.write
                    .candidates
                    .iter()
                    .map(|w| {
                        o.read
                            .candidates
                            .iter()
                            .map(|r| w.memory().add(&r.memory()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Costs {
            read_io,
            read_mem,
            write_io,
            write_mem,
            inter_mem_in,
            inter_io,
            inter_mem,
        }
    }
}

/// Greedy placement for a fixed tile vector: start with every I/O at its
/// outermost (cheapest) position and all intermediates in memory; while
/// the memory limit is exceeded, move the placement holding the largest
/// buffer one step inward (or spill the largest in-memory intermediate).
/// Returns `None` if the limit cannot be met.
fn greedy_place(
    space: &SynthesisSpace,
    costs: &Costs,
    ranges: &RangeMap,
    tiles: &TileAssignment,
    mem_limit: f64,
    sel: &mut PlacementSelection,
) -> bool {
    // outermost = last candidate (enumeration is innermost-first)
    for (k, set) in space.reads.iter().enumerate() {
        sel.reads[k] = set.candidates.len() - 1;
    }
    for (k, set) in space.writes.iter().enumerate() {
        sel.writes[k] = set.candidates.len() - 1;
    }
    for choice in sel.intermediates.iter_mut() {
        *choice = IntermediateChoice::InMemory;
    }

    loop {
        // memory of the current selection, tracking the largest movable
        // buffer on the way
        let mut total = 0.0;
        // (kind, set index, buffer bytes): kind 0=read, 1=write, 2=inter
        let mut largest: Option<(u8, usize, f64)> = None;
        let mut consider = |kind: u8, k: usize, bytes: f64, movable: bool| {
            if movable && largest.is_none_or(|(_, _, b)| bytes > b) {
                largest = Some((kind, k, bytes));
            }
        };
        for (k, &c) in sel.reads.iter().enumerate() {
            let bytes = costs.read_mem[k][c].eval(ranges, tiles);
            total += bytes;
            consider(0, k, bytes, c > 0);
        }
        for (k, &c) in sel.writes.iter().enumerate() {
            let bytes = costs.write_mem[k][c].eval(ranges, tiles);
            total += bytes;
            consider(1, k, bytes, c > 0);
        }
        for (k, choice) in sel.intermediates.iter().enumerate() {
            match choice {
                IntermediateChoice::InMemory => {
                    let bytes = costs.inter_mem_in[k].eval(ranges, tiles);
                    total += bytes;
                    consider(2, k, bytes, space.intermediates[k].spillable());
                }
                IntermediateChoice::OnDisk { write, read } => {
                    let bytes = costs.inter_mem[k][*write][*read].eval(ranges, tiles);
                    total += bytes;
                    consider(2, k, bytes, *write > 0 || *read > 0);
                }
            }
        }
        if total <= mem_limit {
            return true;
        }
        let Some((kind, k, _)) = largest else {
            return false; // nothing left to shrink
        };
        match kind {
            0 => sel.reads[k] -= 1,
            1 => sel.writes[k] -= 1,
            _ => {
                sel.intermediates[k] = match sel.intermediates[k] {
                    IntermediateChoice::InMemory => IntermediateChoice::OnDisk {
                        write: space.intermediates[k].write.candidates.len() - 1,
                        read: space.intermediates[k].read.candidates.len() - 1,
                    },
                    IntermediateChoice::OnDisk { write, read } => {
                        // shrink the larger of the two buffers
                        let wb = costs.inter_mem[k][write][0].eval(ranges, tiles);
                        let rb = costs.inter_mem[k][0][read].eval(ranges, tiles);
                        if write > 0 && (read == 0 || wb >= rb) {
                            IntermediateChoice::OnDisk {
                                write: write - 1,
                                read,
                            }
                        } else {
                            IntermediateChoice::OnDisk {
                                write,
                                read: read - 1,
                            }
                        }
                    }
                };
            }
        }
    }
}

fn io_of(
    costs: &Costs,
    sel: &PlacementSelection,
    ranges: &RangeMap,
    tiles: &TileAssignment,
) -> f64 {
    let mut total = 0.0;
    for (k, &c) in sel.reads.iter().enumerate() {
        total += costs.read_io[k][c].eval(ranges, tiles);
    }
    for (k, &c) in sel.writes.iter().enumerate() {
        total += costs.write_io[k][c].eval(ranges, tiles);
    }
    for (k, choice) in sel.intermediates.iter().enumerate() {
        if let IntermediateChoice::OnDisk { write, read } = choice {
            total += costs.inter_io[k][*write][*read].eval(ranges, tiles);
        }
    }
    total
}

/// The minimum block requirement for one buffer, capped at the full array
/// size (small arrays move in a single whole-array operation).
fn capped_block(shape: &tce_cost::BufferShape, ranges: &RangeMap, min_block: f64) -> f64 {
    let full: f64 = shape
        .dims()
        .iter()
        .map(|(i, _)| ranges.extent(i) as f64)
        .product::<f64>()
        * tce_ir::ELEMENT_BYTES as f64;
    min_block.min(full)
}

/// True if every selected disk buffer meets the minimum block sizes.
fn blocks_ok(
    space: &SynthesisSpace,
    costs: &Costs,
    sel: &PlacementSelection,
    ranges: &RangeMap,
    tiles: &TileAssignment,
    min_read: f64,
    min_write: f64,
) -> bool {
    for (k, &c) in sel.reads.iter().enumerate() {
        let need = capped_block(&space.reads[k].candidates[0].buffer, ranges, min_read);
        if costs.read_mem[k][c].eval(ranges, tiles) < need {
            return false;
        }
    }
    for (k, &c) in sel.writes.iter().enumerate() {
        let need = capped_block(&space.writes[k].candidates[0].buffer, ranges, min_write);
        if costs.write_mem[k][c].eval(ranges, tiles) < need {
            return false;
        }
    }
    for (k, choice) in sel.intermediates.iter().enumerate() {
        if let IntermediateChoice::OnDisk { write, read } = choice {
            let w = &space.intermediates[k].write.candidates[*write];
            let r = &space.intermediates[k].read.candidates[*read];
            let need_w = capped_block(&space.intermediates[k].in_memory, ranges, min_write);
            let need_r = capped_block(&space.intermediates[k].in_memory, ranges, min_read);
            if w.memory().eval(ranges, tiles) < need_w || r.memory().eval(ranges, tiles) < need_r {
                return false;
            }
        }
    }
    true
}

/// Runs the uniform-sampling pipeline: full log ladder per index,
/// Cartesian scan, greedy placement per point.
pub fn synthesize_uniform_sampling(
    program: &Program,
    opts: &BaselineOptions,
) -> Result<SynthesisResult, SynthesisError> {
    let started = Instant::now();
    let config = &opts.config;
    let tiled = tile_program(program);
    let space = enumerate_placements(&tiled, config.mem_limit)?;
    let costs = Costs::new(&space);
    let ranges = program.ranges().clone();

    let indices: Vec<Index> = ranges.indices().cloned().collect();
    let ladders: Vec<Vec<u64>> = indices
        .iter()
        .map(|i| ladder(ranges.extent(i), opts.samples_per_index))
        .collect();

    let (min_read, min_write) = if config.enforce_min_blocks {
        (
            config.profile.min_read_block as f64,
            config.profile.min_write_block as f64,
        )
    } else {
        (0.0, 0.0)
    };

    let mut best: Option<(f64, TileAssignment, PlacementSelection)> = None;
    let mut evals = 0u64;
    let mut pos = vec![0usize; indices.len()];
    let mut tiles = TileAssignment::new();
    let mut sel = space.default_selection();
    loop {
        for (k, i) in indices.iter().enumerate() {
            tiles.set(i.clone(), ladders[k][pos[k]]);
        }
        evals += 1;
        if greedy_place(
            &space,
            &costs,
            &ranges,
            &tiles,
            config.mem_limit as f64,
            &mut sel,
        ) && blocks_ok(&space, &costs, &sel, &ranges, &tiles, min_read, min_write)
        {
            let io = io_of(&costs, &sel, &ranges, &tiles);
            if best.as_ref().is_none_or(|(b, _, _)| io < *b) {
                best = Some((io, tiles.clone(), sel.clone()));
            }
        }
        // odometer
        let mut k = indices.len();
        let done = loop {
            if k == 0 {
                break true;
            }
            k -= 1;
            pos[k] += 1;
            if pos[k] < ladders[k].len() {
                break false;
            }
            pos[k] = 0;
        };
        if done {
            break;
        }
    }

    let (_, tiles, selection) = best.ok_or(SynthesisError::Infeasible)?;
    Ok(assemble_result(
        tiled,
        space,
        tiles,
        selection,
        &config.profile,
        evals,
        started,
        None,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcs::synthesize_dcs;
    use tce_ir::fixtures::two_index_fused;

    #[test]
    fn ladder_shape() {
        assert_eq!(ladder(8, None), vec![1, 2, 4, 8]);
        assert_eq!(ladder(10, None), vec![1, 2, 4, 8, 10]);
        assert_eq!(ladder(1, None), vec![1]);
        let capped = ladder(1 << 12, Some(4));
        assert!(capped.len() <= 4);
        assert_eq!(*capped.first().unwrap(), 1);
        assert_eq!(*capped.last().unwrap(), 1 << 12);
    }

    #[test]
    fn baseline_finds_feasible_solution() {
        let p = two_index_fused(64, 48);
        let opts = BaselineOptions::new(SynthesisConfig::test_scale(64 * 1024));
        let r = synthesize_uniform_sampling(&p, &opts).expect("baseline");
        assert!(r.memory_bytes <= 64.0 * 1024.0 + 1e-6);
        assert!(r.io_bytes > 0.0);
        assert!(r.solver_evals > 0);
    }

    #[test]
    fn dcs_never_worse_than_baseline() {
        // DCS searches the exact space the baseline samples, so its cost
        // must be ≤ the baseline's (both feasible).
        let p = two_index_fused(96, 64);
        let config = SynthesisConfig::test_scale(48 * 1024);
        let dcs = synthesize_dcs(&p, &config).expect("dcs");
        let base =
            synthesize_uniform_sampling(&p, &BaselineOptions::new(config)).expect("baseline");
        assert!(
            dcs.io_bytes <= base.io_bytes * 1.0001,
            "dcs {} vs baseline {}",
            dcs.io_bytes,
            base.io_bytes
        );
    }

    #[test]
    fn baseline_respects_tiny_memory() {
        let p = two_index_fused(64, 48);
        let opts = BaselineOptions::new(SynthesisConfig::test_scale(4 * 1024));
        let r = synthesize_uniform_sampling(&p, &opts).expect("baseline");
        assert!(r.memory_bytes <= 4.0 * 1024.0 + 1e-6);
    }

    #[test]
    fn greedy_spills_intermediate_when_needed() {
        // memory limit below the in-memory T at any tile size where the
        // other buffers already eat the budget: use a small limit and
        // check the baseline still succeeds (possibly by spilling)
        let p = two_index_fused(128, 128);
        let opts = BaselineOptions::new(SynthesisConfig::test_scale(2 * 1024));
        let r = synthesize_uniform_sampling(&p, &opts).expect("baseline");
        assert!(r.memory_bytes <= 2.0 * 1024.0 + 1e-6);
    }
}
