//! The concrete-plan interpreter.

use crate::resilience::{plan_fingerprint, Checkpoint, CheckpointSite, ResilienceReport};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tce_codegen::{BufId, BufRef, ComputeOp, ConcretePlan, Op};
use tce_cost::DimExtent;
use tce_disksim::lock::lock;
use tce_disksim::{DiskProfile, FaultPlan, IoStats};
use tce_ga::{
    chunk, run_parallel, DraError, DraRuntime, GlobalArray, ProcCtx, RetryPolicy, Section,
    SectionSrc,
};
use tce_ir::{ArrayKind, Index};

/// How a plan is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Real data: materialized disk arrays, kernels executed, outputs
    /// available for verification. Use at test scale.
    Full,
    /// Accounting only: identical loop structure and DRA transfers, no
    /// data movement or computation. Use at paper scale.
    DryRun,
}

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Full or dry-run.
    pub mode: ExecMode,
    /// Number of simulated processes (each with a local disk).
    pub nproc: usize,
    /// Disk performance model.
    pub profile: DiskProfile,
    /// Generator for synthetic input-tensor values `(array name, flat
    /// element index) → value`. Must match the generator handed to the
    /// dense reference when verifying.
    pub input_gen: fn(&str, u64) -> f64,
    /// Deterministic per-disk fault schedules. Applied after input
    /// loading, so operation thresholds count execution-phase I/O only.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for transient disk faults (`None` = fail fast).
    pub retry: Option<RetryPolicy>,
    /// Capture a [`Checkpoint`] at every tile boundary (full mode only).
    pub checkpoint: bool,
    /// Testing hook: stop with [`ExecError::Halted`] once this many
    /// checkpoints have been captured — a deterministic "kill" at a tile
    /// boundary. Implies checkpointing.
    pub halt_after_checkpoints: Option<u64>,
    /// Restore this snapshot and resume at its site instead of starting
    /// from the beginning (full mode only).
    pub resume_from: Option<Arc<Checkpoint>>,
    /// Second-level (cache) tiling of the in-memory kernels: the band's
    /// element loops are blocked into chunks of this many iterations, the
    /// memory-to-cache blocking of the TCE's earlier locality work
    /// (refs. \[9, 10\] of the paper). `None` runs the plain loops.
    pub cache_block: Option<u64>,
}

/// Default synthetic input values: deterministic, bounded, array-specific.
pub fn default_input_gen(name: &str, k: u64) -> f64 {
    let h = name
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
    let x = h.wrapping_add(k.wrapping_mul(2654435761));
    ((x % 1000) as f64 / 500.0) - 1.0
}

impl ExecOptions {
    /// Sequential full execution with the test disk profile.
    pub fn full_test() -> Self {
        ExecOptions {
            mode: ExecMode::Full,
            nproc: 1,
            profile: DiskProfile::unconstrained_test(),
            input_gen: default_input_gen,
            fault_plan: None,
            retry: None,
            checkpoint: false,
            halt_after_checkpoints: None,
            resume_from: None,
            cache_block: None,
        }
    }

    /// Sequential dry run with the paper's disk profile.
    pub fn dry_run() -> Self {
        ExecOptions {
            mode: ExecMode::DryRun,
            nproc: 1,
            profile: DiskProfile::itanium2_osc(),
            input_gen: default_input_gen,
            fault_plan: None,
            retry: None,
            checkpoint: false,
            halt_after_checkpoints: None,
            resume_from: None,
            cache_block: None,
        }
    }

    /// Same options on `n` simulated processes.
    pub fn with_nproc(mut self, n: usize) -> Self {
        self.nproc = n;
        self
    }

    /// Same options with a fault plan installed.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Same options with a retry policy installed.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Same options with tile-boundary checkpointing on.
    pub fn with_checkpoints(mut self) -> Self {
        self.checkpoint = true;
        self
    }
}

/// Execution result: exact I/O accounting plus (in full mode) the final
/// output arrays.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Per-rank disk accounting.
    pub per_rank: Vec<IoStats>,
    /// Aggregate accounting.
    pub total: IoStats,
    /// Simulated elapsed I/O seconds (disks work concurrently: the
    /// maximum per-disk time).
    pub elapsed_io_s: f64,
    /// Multiply-add operations executed (full mode).
    pub flops: u64,
    /// Final contents of output arrays by name (full mode only).
    pub outputs: HashMap<String, Vec<f64>>,
    /// Fault/retry/checkpoint accounting for this run.
    pub resilience: ResilienceReport,
}

/// Execution failure.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// A DRA transfer failed; the structured cause is preserved so
    /// callers can tell injected faults from plan bugs.
    Dra(DraError),
    /// A tiling-loop window was missing for an index (plan bug).
    MissingWindow(String),
    /// The plan references buffers or shapes inconsistently (plan bug,
    /// caught up front instead of panicking mid-run).
    BadPlan(String),
    /// The execution options are inconsistent (e.g. checkpointing a dry
    /// run, or resuming from a checkpoint of a different plan).
    BadOptions(String),
    /// The run stopped deterministically after capturing the requested
    /// number of checkpoints (`halt_after_checkpoints` testing hook).
    Halted {
        /// Checkpoints captured before halting.
        checkpoints: u64,
    },
    /// Another rank failed and aborted the process group.
    Aborted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Dra(e) => write!(f, "DRA failure: {e}"),
            ExecError::MissingWindow(i) => write!(f, "no tile window for index `{i}`"),
            ExecError::BadPlan(m) => write!(f, "malformed plan: {m}"),
            ExecError::BadOptions(m) => write!(f, "bad options: {m}"),
            ExecError::Halted { checkpoints } => {
                write!(f, "halted after {checkpoints} checkpoint(s)")
            }
            ExecError::Aborted => f.write_str("aborted: another rank failed"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DraError> for ExecError {
    fn from(e: DraError) -> Self {
        ExecError::Dra(e)
    }
}

impl ExecError {
    /// True if the failure traces back to an injected disk fault.
    pub fn is_injected_fault(&self) -> bool {
        matches!(self, ExecError::Dra(e) if e.is_injected_fault())
    }

    /// True if the failure is a permanent injected fault (the disk stays
    /// dead until replaced).
    pub fn is_permanent_fault(&self) -> bool {
        matches!(self, ExecError::Dra(e) if e.is_permanent_fault())
    }
}

/// Result of a resilient execution: either a completed report or a typed
/// failure carrying the most recent checkpoint (if any was captured), so
/// the caller can resume.
#[derive(Clone, Debug)]
pub enum ExecOutcome {
    /// The plan ran to completion.
    Complete(ExecReport),
    /// The run stopped early.
    Failed {
        /// Root cause (a real failure outranks `Halted`, which outranks a
        /// secondary `Aborted`).
        error: ExecError,
        /// Most recent checkpoint captured before the failure.
        checkpoint: Option<Arc<Checkpoint>>,
        /// Rank whose local operation failed, when attributable.
        failed_rank: Option<usize>,
        /// Aggregate disk accounting at the moment of failure (includes
        /// overhead that a resumed run will discard along with the
        /// uncommitted work).
        stats: IoStats,
    },
}

/// True if the op subtree performs any disk I/O (used to prune empty loop
/// nests in dry runs).
fn contains_io(ops: &[Op]) -> bool {
    ops.iter().any(|op| match op {
        Op::ReadBlock { .. } | Op::WriteBlock { .. } | Op::ZeroFillPass { .. } => true,
        Op::TilingLoop { body, .. } => contains_io(body),
        Op::ZeroBuffer { .. } | Op::Compute(_) => false,
    })
}

/// Cross-rank checkpoint coordination: rank 0 publishes snapshots here;
/// every rank reads the count to agree on a deterministic halt.
struct CkptShared {
    latest: Mutex<Option<Arc<Checkpoint>>>,
    count: AtomicU64,
    halt_after: Option<u64>,
    fingerprint: u64,
}

impl CkptShared {
    fn latest(&self) -> Option<Arc<Checkpoint>> {
        lock(&self.latest).clone()
    }
}

struct Interp<'a> {
    plan: &'a ConcretePlan,
    dra: &'a DraRuntime,
    buffers: &'a [GlobalArray],
    mode: ExecMode,
    rank: usize,
    nproc: usize,
    ctx: &'a ProcCtx<'a>,
    flops: &'a AtomicU64,
    cache_block: Option<u64>,
    windows: HashMap<Index, (u64, u64)>,
    /// Site to resume from (`START` for a fresh run).
    start: CheckpointSite,
    /// Checkpoint coordination; `None` when checkpointing is off.
    ckpt: Option<&'a CkptShared>,
}

impl Interp<'_> {
    /// Collective barrier (full parallel mode only); surfaces aborts
    /// raised by failing ranks.
    fn sync(&self) -> Result<(), ExecError> {
        if self.mode == ExecMode::Full && self.nproc > 1 && !self.ctx.barrier_or_abort() {
            return Err(ExecError::Aborted);
        }
        Ok(())
    }

    /// Propagates a rank-local failure: abort the group so peers waiting
    /// at barriers unwind instead of deadlocking.
    fn fail<T>(&self, e: impl Into<ExecError>) -> Result<T, ExecError> {
        if self.mode == ExecMode::Full && self.nproc > 1 {
            self.ctx.abort();
        }
        Err(e.into())
    }

    fn window(&self, i: &Index) -> Result<(u64, u64), ExecError> {
        self.windows
            .get(i)
            .copied()
            .ok_or_else(|| ExecError::MissingWindow(i.name().to_string()))
    }

    /// The DRA section and matching buffer section for the current tile
    /// state of `buffer`.
    fn sections(&self, buffer: BufId) -> Result<(Section, Section), ExecError> {
        let decl = self.plan.buffer(buffer);
        let ranges = self.plan.program.ranges();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut blo = Vec::new();
        let mut bhi = Vec::new();
        for (idx, extent) in decl.shape.dims() {
            let n = ranges.extent(idx);
            match extent {
                DimExtent::Full => {
                    lo.push(0);
                    hi.push(n);
                    blo.push(0);
                    bhi.push(n);
                }
                DimExtent::Tile => {
                    let (base, len) = self.window(idx)?;
                    lo.push(base);
                    hi.push(base + len);
                    blo.push(0);
                    bhi.push(len);
                }
                DimExtent::One => {
                    // excluded by placement enumeration; tolerate by
                    // treating as a unit slab at the window base
                    let (base, _) = self.window(idx)?;
                    lo.push(base);
                    hi.push(base + 1);
                    blo.push(0);
                    bhi.push(1);
                }
            }
        }
        Ok((Section::new(lo, hi), Section::new(blo, bhi)))
    }

    /// Collectively captures a checkpoint at `site`: all ranks
    /// synchronize, rank 0 snapshots disks + buffers + accounting, all
    /// ranks synchronize again and agree on whether to halt. No-op when
    /// checkpointing is off.
    fn capture(&mut self, site: CheckpointSite) -> Result<(), ExecError> {
        let Some(ck) = self.ckpt else {
            return Ok(());
        };
        self.sync()?;
        if self.rank == 0 {
            let mut disk = Vec::with_capacity(self.plan.disk_arrays.len());
            for &aid in &self.plan.disk_arrays {
                let name = self.plan.program.array(aid).name();
                match self.dra.snapshot(name) {
                    Ok(data) => disk.push((name.to_string(), data)),
                    Err(e) => return self.fail(e),
                }
            }
            let snap = Checkpoint {
                plan_fingerprint: ck.fingerprint,
                site,
                disk,
                buffers: self.buffers.iter().map(GlobalArray::to_vec).collect(),
                per_rank: self.dra.stats_per_disk(),
                flops: self.flops.load(Ordering::SeqCst),
            };
            *lock(&ck.latest) = Some(Arc::new(snap));
            ck.count.fetch_add(1, Ordering::SeqCst);
        }
        self.sync()?;
        // every rank reads the same count between the two barriers, so
        // the halt decision is collective: all ranks stop or none does
        let n = ck.count.load(Ordering::SeqCst);
        if ck.halt_after.is_some_and(|h| n >= h) {
            return Err(ExecError::Halted { checkpoints: n });
        }
        Ok(())
    }

    /// Runs the plan's top-level ops, skipping work completed before the
    /// resume site and capturing checkpoints at each boundary.
    fn run_top(&mut self) -> Result<(), ExecError> {
        let start = self.start;
        let last = self.plan.ops.len();
        for (idx, op) in self.plan.ops.iter().enumerate() {
            if idx < start.top_op {
                continue;
            }
            match op {
                Op::TilingLoop { index, body } => {
                    if self.mode == ExecMode::DryRun && !contains_io(body) {
                        continue;
                    }
                    let n = self.plan.program.ranges().extent(index);
                    let t = self.plan.tiles.get(index).min(n).max(1);
                    let mut iter = if idx == start.top_op { start.iters } else { 0 };
                    let mut base = iter.saturating_mul(t);
                    while base < n {
                        let len = t.min(n - base);
                        self.windows.insert(index.clone(), (base, len));
                        self.run_ops(body)?;
                        base += t;
                        iter += 1;
                        if base < n {
                            self.capture(CheckpointSite {
                                top_op: idx,
                                iters: iter,
                            })?;
                        }
                    }
                    self.windows.remove(index);
                }
                _ => self.run_ops(std::slice::from_ref(op))?,
            }
            if idx + 1 < last {
                self.capture(CheckpointSite {
                    top_op: idx + 1,
                    iters: 0,
                })?;
            }
        }
        Ok(())
    }

    fn run_ops(&mut self, ops: &[Op]) -> Result<(), ExecError> {
        for op in ops {
            match op {
                Op::TilingLoop { index, body } => {
                    if self.mode == ExecMode::DryRun && !contains_io(body) {
                        continue;
                    }
                    let n = self.plan.program.ranges().extent(index);
                    let t = self.plan.tiles.get(index).min(n).max(1);
                    let mut base = 0;
                    while base < n {
                        let len = t.min(n - base);
                        self.windows.insert(index.clone(), (base, len));
                        self.run_ops(body)?;
                        base += t;
                    }
                    self.windows.remove(index);
                }
                Op::ReadBlock { array, buffer } => {
                    let (sec, bufsec) = self.sections(*buffer)?;
                    let name = self.plan.program.array(*array).name();
                    self.sync()?;
                    let dst = (self.mode == ExecMode::Full)
                        .then(|| (&self.buffers[buffer.as_usize()], &bufsec));
                    if let Err(e) = self.dra.read_section(self.rank, name, &sec, dst) {
                        return self.fail(e);
                    }
                    self.sync()?;
                }
                Op::WriteBlock { array, buffer } => {
                    let (sec, bufsec) = self.sections(*buffer)?;
                    let name = self.plan.program.array(*array).name();
                    self.sync()?;
                    let src = if self.mode == ExecMode::Full {
                        SectionSrc::From(&self.buffers[buffer.as_usize()], bufsec)
                    } else {
                        SectionSrc::Dry
                    };
                    if let Err(e) = self.dra.write_section(self.rank, name, &sec, src) {
                        return self.fail(e);
                    }
                    self.sync()?;
                }
                Op::ZeroBuffer { buffer } => {
                    if self.mode == ExecMode::Full {
                        self.sync()?;
                        let buf = &self.buffers[buffer.as_usize()];
                        let (s, e) = chunk(buf.len() as u64, self.rank, self.nproc);
                        buf.zero_range(s as usize, e as usize);
                        self.sync()?;
                    }
                }
                Op::ZeroFillPass { array, buffer } => {
                    self.zero_fill(*array, *buffer)?;
                }
                Op::Compute(c) => {
                    if self.mode == ExecMode::Full {
                        self.sync()?;
                        self.kernel(c)?;
                        self.sync()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes zeros over the whole disk array in buffer-shaped blocks.
    fn zero_fill(&mut self, array: tce_ir::ArrayId, buffer: BufId) -> Result<(), ExecError> {
        let decl = self.plan.buffer(buffer);
        let ranges = self.plan.program.ranges();
        let name = self.plan.program.array(array).name();
        // per-dimension (extent, step): Tile dims iterate the tile grid,
        // Full dims are covered in one step
        let dims: Vec<(u64, u64)> = decl
            .shape
            .dims()
            .iter()
            .map(|(idx, extent)| {
                let n = ranges.extent(idx);
                match extent {
                    DimExtent::Full => (n, n),
                    DimExtent::Tile => (n, self.plan.tiles.get(idx).min(n).max(1)),
                    DimExtent::One => (n, 1),
                }
            })
            .collect();
        let rank_count = dims.len();
        let mut base = vec![0u64; rank_count];
        loop {
            let lo: Vec<u64> = base.clone();
            let hi: Vec<u64> = base
                .iter()
                .zip(&dims)
                .map(|(&b, &(n, step))| (b + step).min(n))
                .collect();
            let sec = Section::new(lo, hi);
            self.sync()?;
            let src = if self.mode == ExecMode::Full {
                SectionSrc::Zeros
            } else {
                SectionSrc::Dry
            };
            if let Err(e) = self.dra.write_section(self.rank, name, &sec, src) {
                return self.fail(e);
            }
            self.sync()?;
            // advance the block odometer
            let mut k = rank_count;
            loop {
                if k == 0 {
                    return Ok(());
                }
                k -= 1;
                base[k] += dims[k].1;
                if base[k] < dims[k].0 {
                    break;
                }
                base[k] = 0;
            }
        }
    }

    /// Executes one per-tile contraction kernel, partitioning the
    /// outermost intra-tile loop across ranks.
    fn kernel(&self, c: &ComputeOp) -> Result<(), ExecError> {
        // element ranges of the band
        let mut ranges_v: Vec<(Index, u64, u64)> = Vec::with_capacity(c.band.len());
        for (k, idx) in c.band.iter().enumerate() {
            let (base, len) = self.window(idx)?;
            let (lo, hi) = if k == 0 {
                // partition the outermost loop across ranks
                let (s, e) = chunk(len, self.rank, self.nproc);
                (base + s, base + e)
            } else {
                (base, base + len)
            };
            ranges_v.push((idx.clone(), lo, hi));
        }

        // per-operand: stride and base for each band index
        let operand = |r: &tce_codegen::BufRef| -> OperandMap {
            let buf = &self.buffers[r.buffer.buffer_usize()];
            let decl = self.plan.buffer(r.buffer);
            let dims = buf.dims().to_vec();
            let strides = tce_ga::strides(&dims);
            let mut per_band = vec![(0u64, 0u64); c.band.len()]; // (stride, base)
            for (dim_k, sub) in r.subscripts.iter().enumerate() {
                if let Some(band_k) = c.band.iter().position(|b| b == sub) {
                    let base = match decl.shape.dims()[dim_k].1 {
                        DimExtent::Full => 0,
                        DimExtent::Tile | DimExtent::One => {
                            self.windows.get(sub).map(|w| w.0).unwrap_or(0)
                        }
                    };
                    per_band[band_k] = (strides[dim_k], base);
                }
            }
            OperandMap {
                buffer: r.buffer,
                per_band,
            }
        };
        let dst = operand(&c.dst);
        let lhs = operand(&c.lhs);
        let rhs = operand(&c.rhs);

        let mut flops = 0u64;
        match self.cache_block {
            None => {
                self.kernel_loop(&ranges_v, 0, 0, 0, 0, &dst, &lhs, &rhs, &mut flops);
            }
            Some(cb) => {
                // second-level blocking: walk the band in cache-sized
                // chunks; only the iteration order changes, so the
                // accumulated results are identical
                let cb = cb.max(1);
                let mut sub: Vec<(Index, u64, u64)> = ranges_v.clone();
                let mut base: Vec<u64> = ranges_v.iter().map(|(_, lo, _)| *lo).collect();
                'grid: loop {
                    for (k, (_, lo, hi)) in ranges_v.iter().enumerate() {
                        let _ = lo;
                        sub[k].1 = base[k];
                        sub[k].2 = (base[k] + cb).min(*hi);
                    }
                    self.kernel_loop(&sub, 0, 0, 0, 0, &dst, &lhs, &rhs, &mut flops);
                    // advance the block odometer
                    let mut k = ranges_v.len();
                    loop {
                        if k == 0 {
                            break 'grid;
                        }
                        k -= 1;
                        base[k] += cb;
                        if base[k] < ranges_v[k].2 {
                            break;
                        }
                        base[k] = ranges_v[k].1;
                    }
                }
            }
        }
        self.flops.fetch_add(flops, Ordering::Relaxed);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn kernel_loop(
        &self,
        ranges_v: &[(Index, u64, u64)],
        depth: usize,
        dst_off: u64,
        lhs_off: u64,
        rhs_off: u64,
        dst: &OperandMap,
        lhs: &OperandMap,
        rhs: &OperandMap,
        flops: &mut u64,
    ) {
        if depth == ranges_v.len() {
            let l = self.buffers[lhs.buffer.buffer_usize()].get_flat(lhs_off as usize);
            let r = self.buffers[rhs.buffer.buffer_usize()].get_flat(rhs_off as usize);
            self.buffers[dst.buffer.buffer_usize()].add_flat(dst_off as usize, l * r);
            *flops += 2;
            return;
        }
        let (_, lo, hi) = &ranges_v[depth];
        let (ds, db) = dst.per_band[depth];
        let (ls, lb) = lhs.per_band[depth];
        let (rs, rb) = rhs.per_band[depth];
        let innermost = depth + 1 == ranges_v.len();
        if innermost && ds == 0 {
            // contraction over the innermost index: accumulate locally,
            // one atomic add at the end
            let mut acc = 0.0;
            let lbuf = &self.buffers[lhs.buffer.buffer_usize()];
            let rbuf = &self.buffers[rhs.buffer.buffer_usize()];
            for v in *lo..*hi {
                let lo_off = lhs_off + (v - lb) * ls;
                let ro_off = rhs_off + (v - rb) * rs;
                acc += lbuf.get_flat(lo_off as usize) * rbuf.get_flat(ro_off as usize);
            }
            self.buffers[dst.buffer.buffer_usize()].add_flat(dst_off as usize, acc);
            *flops += 2 * (hi - lo);
            return;
        }
        for v in *lo..*hi {
            self.kernel_loop(
                ranges_v,
                depth + 1,
                dst_off + (v - db) * ds,
                lhs_off + (v - lb) * ls,
                rhs_off + (v - rb) * rs,
                dst,
                lhs,
                rhs,
                flops,
            );
        }
    }
}

struct OperandMap {
    buffer: BufId,
    /// `(stride, window base)` per band index; stride 0 when the operand
    /// does not carry the index.
    per_band: Vec<(u64, u64)>,
}

trait BufIdExt {
    fn buffer_usize(&self) -> usize;
}

impl BufIdExt for BufId {
    fn buffer_usize(&self) -> usize {
        self.as_usize()
    }
}

/// Rejects plans whose buffer references would index out of range in the
/// interpreter — turning would-be panics on the execution hot path into a
/// typed error before any work starts. After this pass every
/// `buffers[id]` and `subscripts[k]` access in the interpreter is total.
fn validate_plan(plan: &ConcretePlan) -> Result<(), ExecError> {
    fn check_buf(plan: &ConcretePlan, id: BufId) -> Result<(), ExecError> {
        if id.as_usize() >= plan.buffers.len() {
            return Err(ExecError::BadPlan(format!(
                "buffer b{} out of range ({} declared)",
                id.as_usize(),
                plan.buffers.len()
            )));
        }
        Ok(())
    }
    fn check_ref(plan: &ConcretePlan, r: &BufRef) -> Result<(), ExecError> {
        check_buf(plan, r.buffer)?;
        let rank = plan.buffer(r.buffer).shape.dims().len();
        if r.subscripts.len() != rank {
            return Err(ExecError::BadPlan(format!(
                "buffer b{} has rank {rank} but is subscripted with {} indices",
                r.buffer.as_usize(),
                r.subscripts.len()
            )));
        }
        Ok(())
    }
    fn check_ops(plan: &ConcretePlan, ops: &[Op]) -> Result<(), ExecError> {
        for op in ops {
            match op {
                Op::TilingLoop { body, .. } => check_ops(plan, body)?,
                Op::ReadBlock { buffer, .. }
                | Op::WriteBlock { buffer, .. }
                | Op::ZeroBuffer { buffer }
                | Op::ZeroFillPass { buffer, .. } => check_buf(plan, *buffer)?,
                Op::Compute(c) => {
                    for r in [&c.dst, &c.lhs, &c.rhs] {
                        check_ref(plan, r)?;
                    }
                }
            }
        }
        Ok(())
    }
    check_ops(plan, &plan.ops)
}

/// Executes a plan and returns the accounting (and outputs in full mode).
/// Fault-free shorthand for [`execute_resilient`]: a failed run reports
/// only its root-cause error, dropping any checkpoint.
pub fn execute(plan: &ConcretePlan, opts: &ExecOptions) -> Result<ExecReport, ExecError> {
    match execute_resilient(plan, opts) {
        ExecOutcome::Complete(report) => Ok(report),
        ExecOutcome::Failed { error, .. } => Err(error),
    }
}

/// Executes a plan under the full resilience machinery: fault schedules,
/// retry, tile-boundary checkpointing, and resume. A failed run carries
/// the latest checkpoint so the caller can restart from it.
pub fn execute_resilient(plan: &ConcretePlan, opts: &ExecOptions) -> ExecOutcome {
    fn fail(error: ExecError) -> ExecOutcome {
        ExecOutcome::Failed {
            error,
            checkpoint: None,
            failed_rank: None,
            stats: IoStats::default(),
        }
    }
    let materialize = opts.mode == ExecMode::Full;
    if !materialize
        && (opts.checkpoint || opts.halt_after_checkpoints.is_some() || opts.resume_from.is_some())
    {
        return fail(ExecError::BadOptions(
            "checkpoint/resume requires full mode".to_string(),
        ));
    }
    if let Err(e) = validate_plan(plan) {
        return fail(e);
    }
    let fingerprint = plan_fingerprint(plan, opts.nproc);
    if let Some(ck) = &opts.resume_from {
        if ck.plan_fingerprint != fingerprint {
            return fail(ExecError::BadOptions(
                "resume checkpoint belongs to a different plan or process count".to_string(),
            ));
        }
    }

    let dra = {
        let mut d = DraRuntime::new(opts.nproc, opts.profile.clone());
        if let Some(policy) = &opts.retry {
            d.set_retry(policy.clone());
        }
        d
    };
    let ranges = plan.program.ranges();

    for &aid in &plan.disk_arrays {
        let decl = plan.program.array(aid);
        let dims: Vec<u64> = decl.dims().iter().map(|d| ranges.extent(d)).collect();
        dra.create(decl.name(), &dims, materialize);
    }

    // shared in-memory buffers (global arrays). Dry runs never touch
    // buffer contents — the paper-size plans would otherwise allocate
    // gigabytes — so they get 1-element placeholders.
    let buffers: Vec<GlobalArray> = plan
        .buffers
        .iter()
        .map(|b| {
            if materialize {
                let dims = b.shape.extents(ranges, &plan.tiles);
                GlobalArray::zeros(&dims)
            } else {
                GlobalArray::zeros(&[])
            }
        })
        .collect();

    // populate state: either restore the checkpoint or load fresh inputs.
    // Either path uses `fill`/`set_flat`, which charge no I/O, and runs
    // before the fault plan is armed — fault thresholds and probabilistic
    // draws see execution-phase operations only.
    let flops;
    let start = if let Some(ck) = &opts.resume_from {
        for (name, data) in &ck.disk {
            let len_ok = dra
                .dims(name)
                .map(|d| d.iter().fold(1u64, |a, &x| a.saturating_mul(x)).max(1) as usize)
                .map(|n| n == data.len());
            if len_ok != Ok(true) {
                return fail(ExecError::BadOptions(format!(
                    "checkpoint contents for `{name}` do not match the plan's array shape"
                )));
            }
            if let Err(e) = dra.fill(name, |k| data[k as usize]) {
                return fail(e.into());
            }
        }
        if ck.buffers.len() != buffers.len()
            || ck
                .buffers
                .iter()
                .zip(&buffers)
                .any(|(d, b)| d.len() != b.len())
        {
            return fail(ExecError::BadOptions(
                "checkpoint buffer contents do not match the plan's buffer shapes".to_string(),
            ));
        }
        for (buf, data) in buffers.iter().zip(&ck.buffers) {
            for (k, v) in data.iter().enumerate() {
                buf.set_flat(k, *v);
            }
        }
        dra.restore_stats(&ck.per_rank);
        flops = AtomicU64::new(ck.flops);
        ck.site
    } else {
        for &aid in &plan.disk_arrays {
            let decl = plan.program.array(aid);
            if materialize && decl.kind() == ArrayKind::Input {
                let gen = opts.input_gen;
                let name = decl.name().to_string();
                if let Err(e) = dra.fill(decl.name(), |k| gen(&name, k)) {
                    return fail(e.into());
                }
            }
        }
        flops = AtomicU64::new(0);
        CheckpointSite::START
    };
    if let Some(fp) = &opts.fault_plan {
        dra.apply_fault_plan(fp);
    }

    let ckpt =
        (materialize && (opts.checkpoint || opts.halt_after_checkpoints.is_some())).then(|| {
            CkptShared {
                latest: Mutex::new(None),
                count: AtomicU64::new(0),
                halt_after: opts.halt_after_checkpoints,
                fingerprint,
            }
        });

    let results = run_parallel(opts.nproc, |ctx| {
        let mut interp = Interp {
            plan,
            dra: &dra,
            buffers: &buffers,
            mode: opts.mode,
            rank: ctx.rank,
            nproc: ctx.nproc,
            ctx,
            flops: &flops,
            cache_block: opts.cache_block,
            windows: HashMap::new(),
            start,
            ckpt: ckpt.as_ref(),
        };
        interp.run_top()
    });

    // classify per-rank results: a real failure outranks the symmetric
    // Halted stop, which outranks a secondary abort
    let mut halted = None;
    let mut aborted = false;
    let mut failure: Option<(usize, ExecError)> = None;
    for (rank, r) in results.iter().enumerate() {
        match r {
            Ok(()) => {}
            Err(ExecError::Aborted) => aborted = true,
            Err(ExecError::Halted { checkpoints }) => halted = Some(*checkpoints),
            Err(e) => {
                if failure.is_none() {
                    failure = Some((rank, e.clone()));
                }
            }
        }
    }
    let checkpoint = ckpt.as_ref().and_then(CkptShared::latest);
    if let Some((rank, error)) = failure {
        return ExecOutcome::Failed {
            error,
            checkpoint,
            failed_rank: Some(rank),
            stats: dra.total_stats(),
        };
    }
    if let Some(checkpoints) = halted {
        return ExecOutcome::Failed {
            error: ExecError::Halted { checkpoints },
            checkpoint,
            failed_rank: None,
            stats: dra.total_stats(),
        };
    }
    if aborted {
        return ExecOutcome::Failed {
            error: ExecError::Aborted,
            checkpoint,
            failed_rank: None,
            stats: dra.total_stats(),
        };
    }

    let mut outputs = HashMap::new();
    if materialize {
        for &aid in &plan.disk_arrays {
            let decl = plan.program.array(aid);
            if decl.kind() == ArrayKind::Output {
                match dra.snapshot(decl.name()) {
                    Ok(data) => {
                        outputs.insert(decl.name().to_string(), data);
                    }
                    Err(e) => {
                        return ExecOutcome::Failed {
                            error: e.into(),
                            checkpoint,
                            failed_rank: None,
                            stats: dra.total_stats(),
                        }
                    }
                }
            }
        }
    }

    let total = dra.total_stats();
    let resilience = ResilienceReport {
        faults_injected: total.faulted_ops,
        retries: total.retried_ops,
        fault_time_s: total.fault_time_s,
        backoff_time_s: total.backoff_time_s,
        checkpoints: ckpt.as_ref().map_or(0, |c| c.count.load(Ordering::SeqCst)),
        resumed_from: opts.resume_from.as_ref().map(|c| c.site),
        resume_legs: 0,
    };
    ExecOutcome::Complete(ExecReport {
        per_rank: dra.stats_per_disk(),
        total,
        elapsed_io_s: dra.elapsed_io_time_s(),
        flops: flops.into_inner(),
        outputs,
        resilience,
    })
}

/// Runs a plan to completion across failures: checkpointing is forced on,
/// and every failure that left a checkpoint behind restarts execution
/// from it (up to `max_legs` total legs). A permanent disk fault clears
/// that rank's deterministic fault schedule for subsequent legs —
/// simulating replacement of the failed disk — while probabilistic fault
/// processes stay armed. Gives up with the leg's root-cause error when no
/// checkpoint exists, when a resume leg makes no progress, or when the
/// leg budget is exhausted.
pub fn run_to_completion(
    plan: &ConcretePlan,
    opts: &ExecOptions,
    max_legs: u32,
) -> Result<ExecReport, ExecError> {
    let mut opts = opts.clone();
    opts.checkpoint = true;
    let mut legs: u32 = 0;
    let mut last_site: Option<CheckpointSite> = None;
    // fault/retry overhead observed in failed legs past their last
    // checkpoint: the I/O timeline discards it with the uncommitted work,
    // but the resilience report still owes the user those events
    let mut lost = IoStats::default();
    loop {
        legs += 1;
        match execute_resilient(plan, &opts) {
            ExecOutcome::Complete(mut report) => {
                report.resilience.resume_legs = legs - 1;
                report.resilience.faults_injected += lost.faulted_ops;
                report.resilience.retries += lost.retried_ops;
                report.resilience.fault_time_s += lost.fault_time_s;
                report.resilience.backoff_time_s += lost.backoff_time_s;
                return Ok(report);
            }
            ExecOutcome::Failed {
                error,
                checkpoint,
                failed_rank,
                stats,
            } => {
                if legs >= max_legs {
                    return Err(error);
                }
                let Some(ck) = checkpoint else {
                    return Err(error);
                };
                // a resume leg must advance past its own starting site,
                // or the same failure would recur forever
                if last_site.is_some_and(|s| ck.site <= s) {
                    return Err(error);
                }
                if error.is_permanent_fault() {
                    if let (Some(rank), Some(fp)) = (failed_rank, opts.fault_plan.as_mut()) {
                        fp.clear_deterministic(rank);
                    }
                }
                let committed = ck.per_rank.iter().fold(IoStats::default(), |mut acc, s| {
                    acc.merge(s);
                    acc
                });
                lost.faulted_ops += stats.faulted_ops.saturating_sub(committed.faulted_ops);
                lost.retried_ops += stats.retried_ops.saturating_sub(committed.retried_ops);
                lost.fault_time_s += (stats.fault_time_s - committed.fault_time_s).max(0.0);
                lost.backoff_time_s += (stats.backoff_time_s - committed.backoff_time_s).max(0.0);
                last_site = Some(ck.site);
                opts.resume_from = Some(ck);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dense_reference;
    use tce_cost::TileAssignment;
    use tce_ir::fixtures::two_index_fused;
    use tce_tile::{enumerate_placements, tile_program, IntermediateChoice};

    fn build_plan(n: u64, v: u64, tiles: &TileAssignment, spill_t: bool) -> ConcretePlan {
        let p = two_index_fused(n, v);
        let tiled = tile_program(&p);
        let space = enumerate_placements(&tiled, 1 << 30).expect("space");
        let mut sel = space.default_selection();
        if spill_t {
            sel.intermediates[0] = IntermediateChoice::OnDisk { write: 0, read: 0 };
        }
        tce_codegen::generate_plan(&tiled, &space, &sel, tiles)
    }

    fn verify(plan: &ConcretePlan, report: &ExecReport) {
        let want = dense_reference(&plan.program, default_input_gen);
        for (name, got) in &report.outputs {
            let w = &want[name];
            assert_eq!(got.len(), w.len());
            for (k, (g, e)) in got.iter().zip(w).enumerate() {
                assert!(
                    (g - e).abs() < 1e-6 * (1.0 + e.abs()),
                    "{name}[{k}]: got {g}, want {e}"
                );
            }
        }
    }

    #[test]
    fn full_exec_matches_reference_even_tiles() {
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 3)
            .with("n", 3);
        let plan = build_plan(8, 6, &tiles, false);
        let report = execute(&plan, &ExecOptions::full_test()).expect("exec");
        assert!(report.flops > 0);
        verify(&plan, &report);
    }

    #[test]
    fn full_exec_matches_reference_partial_tiles() {
        // tile sizes that do not divide the ranges
        let tiles = TileAssignment::new()
            .with("i", 5)
            .with("j", 3)
            .with("m", 4)
            .with("n", 5);
        let plan = build_plan(8, 7, &tiles, false);
        let report = execute(&plan, &ExecOptions::full_test()).expect("exec");
        verify(&plan, &report);
    }

    #[test]
    fn full_exec_with_spilled_intermediate() {
        let tiles = TileAssignment::new()
            .with("i", 3)
            .with("j", 4)
            .with("m", 3)
            .with("n", 2);
        let plan = build_plan(7, 6, &tiles, true);
        let report = execute(&plan, &ExecOptions::full_test()).expect("exec");
        verify(&plan, &report);
        // T traffic must appear
        let (tid, _) = plan.program.array_by_name("T").unwrap();
        assert!(plan.on_disk(tid));
    }

    #[test]
    fn parallel_exec_matches_sequential() {
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 4)
            .with("n", 4);
        let plan = build_plan(8, 8, &tiles, false);
        let seq = execute(&plan, &ExecOptions::full_test()).expect("seq");
        let par = execute(&plan, &ExecOptions::full_test().with_nproc(4)).expect("par");
        verify(&plan, &par);
        assert_eq!(seq.outputs["B"].len(), par.outputs["B"].len());
        for (a, b) in seq.outputs["B"].iter().zip(&par.outputs["B"]) {
            assert!((a - b).abs() < 1e-9);
        }
        // parallel spreads the same bytes over more disks
        assert_eq!(seq.total.total_bytes(), par.total.total_bytes());
        assert!(par.elapsed_io_s < seq.elapsed_io_s);
    }

    #[test]
    fn transient_faults_are_absorbed_bit_identically() {
        use tce_ga::RetryPolicy;
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 3)
            .with("n", 3);
        let plan = build_plan(8, 6, &tiles, false);
        let clean = execute(&plan, &ExecOptions::full_test()).expect("clean");
        let opts = ExecOptions::full_test()
            .with_faults(FaultPlan::transient_after(0, 2, 3))
            .with_retry(RetryPolicy::with_attempts(5));
        let faulty = execute(&plan, &opts).expect("faults absorbed");
        assert_eq!(faulty.resilience.faults_injected, 3);
        assert_eq!(faulty.resilience.retries, 3);
        assert!(faulty.resilience.backoff_time_s > 0.0);
        for (name, got) in &faulty.outputs {
            for (a, b) in got.iter().zip(&clean.outputs[name]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // clean I/O accounting is unchanged; only overhead differs
        assert_eq!(faulty.total.read_bytes, clean.total.read_bytes);
        assert_eq!(faulty.total.write_bytes, clean.total.write_bytes);
        assert!((faulty.total.clean_time_s() - clean.total.clean_time_s()).abs() < 1e-12);
    }

    #[test]
    fn halt_then_resume_matches_uninterrupted_run() {
        let tiles = TileAssignment::new()
            .with("i", 3)
            .with("j", 4)
            .with("m", 3)
            .with("n", 2);
        let plan = build_plan(7, 6, &tiles, true);
        let clean = execute(&plan, &ExecOptions::full_test()).expect("clean");

        let mut halt_opts = ExecOptions::full_test();
        halt_opts.halt_after_checkpoints = Some(2);
        let ExecOutcome::Failed {
            error,
            checkpoint,
            failed_rank,
            ..
        } = execute_resilient(&plan, &halt_opts)
        else {
            panic!("run must halt");
        };
        assert!(
            matches!(error, ExecError::Halted { checkpoints: 2 }),
            "{error}"
        );
        assert_eq!(failed_rank, None);
        let ck = checkpoint.expect("halt leaves a checkpoint");

        let mut resume_opts = ExecOptions::full_test();
        resume_opts.resume_from = Some(ck.clone());
        let resumed = execute(&plan, &resume_opts).expect("resume");
        assert_eq!(resumed.resilience.resumed_from, Some(ck.site));
        for (name, got) in &resumed.outputs {
            for (a, b) in got.iter().zip(&clean.outputs[name]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(resumed.flops, clean.flops);
        assert_eq!(resumed.total.read_bytes, clean.total.read_bytes);
        assert_eq!(resumed.total.write_ops, clean.total.write_ops);
        assert_eq!(
            resumed.total.clean_time_s().to_bits(),
            clean.total.clean_time_s().to_bits()
        );
    }

    #[test]
    fn permanent_fault_recovers_via_run_to_completion() {
        let tiles = TileAssignment::new()
            .with("i", 3)
            .with("j", 4)
            .with("m", 3)
            .with("n", 2);
        let plan = build_plan(7, 6, &tiles, true);
        // sequential: bit-identical recovery after the dead disk is
        // replaced on restart
        let clean = execute(&plan, &ExecOptions::full_test()).expect("clean");
        let opts = ExecOptions::full_test().with_faults(FaultPlan::permanent_after(0, 9));
        let report = run_to_completion(&plan, &opts, 4).expect("recovers");
        assert!(report.resilience.resume_legs >= 1);
        assert!(report.resilience.faults_injected >= 1);
        for (name, got) in &report.outputs {
            for (a, b) in got.iter().zip(&clean.outputs[name]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(report.flops, clean.flops);
        assert_eq!(
            report.total.clean_time_s().to_bits(),
            clean.total.clean_time_s().to_bits()
        );

        // parallel: rank 1's disk dies mid-plan; cross-rank atomic
        // accumulation is order-sensitive, so verify against the dense
        // reference instead of bit-comparing
        let opts = ExecOptions::full_test()
            .with_nproc(2)
            .with_faults(FaultPlan::permanent_after(1, 6));
        let report = run_to_completion(&plan, &opts, 4).expect("recovers");
        assert!(report.resilience.resume_legs >= 1);
        verify(&plan, &report);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints_and_dry_runs() {
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 3)
            .with("n", 3);
        let plan = build_plan(8, 6, &tiles, false);
        let mut halt_opts = ExecOptions::full_test();
        halt_opts.halt_after_checkpoints = Some(1);
        let ExecOutcome::Failed { checkpoint, .. } = execute_resilient(&plan, &halt_opts) else {
            panic!("run must halt");
        };
        let ck = checkpoint.expect("checkpoint");

        // same checkpoint, different plan → typed rejection
        let other = build_plan(8, 6, &tiles, true);
        let mut resume_opts = ExecOptions::full_test();
        resume_opts.resume_from = Some(ck);
        let err = execute(&other, &resume_opts).expect_err("must reject");
        assert!(matches!(err, ExecError::BadOptions(_)), "{err}");

        // checkpointing a dry run is a typed error, not a silent no-op
        let mut dry = ExecOptions::dry_run();
        dry.checkpoint = true;
        let err = execute(&plan, &dry).expect_err("must reject");
        assert!(matches!(err, ExecError::BadOptions(_)), "{err}");
    }

    #[test]
    fn dry_run_matches_full_accounting() {
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 3)
            .with("n", 3);
        let plan = build_plan(8, 6, &tiles, false);
        let full = execute(&plan, &ExecOptions::full_test()).expect("full");
        let mut dry_opts = ExecOptions::full_test();
        dry_opts.mode = ExecMode::DryRun;
        let dry = execute(&plan, &dry_opts).expect("dry");
        assert_eq!(full.total.read_bytes, dry.total.read_bytes);
        assert_eq!(full.total.write_bytes, dry.total.write_bytes);
        assert_eq!(full.total.read_ops, dry.total.read_ops);
        assert_eq!(full.total.write_ops, dry.total.write_ops);
        assert_eq!(dry.flops, 0);
        assert!(dry.outputs.is_empty());
    }
}
