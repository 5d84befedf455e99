//! The concrete-plan interpreter.

use crate::dry::dry_walk;
use crate::lower::{lower, zero_fill_blocks, Bound, Kernel, LOp, Lowered, Operand, Transfer};
use crate::resilience::{Checkpoint, CheckpointSite, ResilienceReport};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tce_codegen::ConcretePlan;
use tce_disksim::lock::lock;
use tce_disksim::{DiskProfile, FaultPlan, IoStats};
use tce_ga::{
    chunk, run_parallel, ArrayHandle, DraError, DraRuntime, GlobalArray, ProcCtx, RetryPolicy,
    Section, SectionSrc,
};
use tce_ir::ArrayKind;

/// How a plan is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Real data: materialized disk arrays, kernels executed, outputs
    /// available for verification. Use at test scale.
    Full,
    /// Accounting only: the same transfers charged to the same disks in
    /// the same order, with no data movement or computation. Use at
    /// paper scale.
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

/// Cross-rank checkpoint coordination: rank 0 publishes snapshots here.
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

/// One rank's interpreter state of a full run over the shared lowered
/// plan. (A dry run is an accounting walk of its own, [`dry_walk`].)
struct Interp<'a> {
    plan: &'a ConcretePlan,
    low: &'a Lowered,
    dra: &'a DraRuntime,
    /// The DRA handle of each entry of `plan.disk_arrays`, in order.
    handles: &'a [ArrayHandle],
    buffers: &'a [GlobalArray],
    /// This rank's process.
    ctx: &'a ProcCtx<'a>,
    flops: &'a AtomicU64,
    /// The current window `(base, len)` of each slot. Lowering has
    /// checked that every slot an op reads is opened by an enclosing
    /// loop.
    windows: Vec<(u64, u64)>,
    /// True once this rank has run an op since its last barrier. Every
    /// rank runs the same ops in the same order, so all ranks agree on
    /// it and skip the same barriers.
    worked: bool,
    /// Scratch sections of the current transfer: array side, buffer side.
    sec: Section,
    buf_sec: Section,
    /// Scratch of the current kernel.
    nest: Nest,
    /// Site to resume from (`START` for a fresh run).
    start: CheckpointSite,
    /// Checkpoint coordination; `None` when checkpointing is off.
    ckpt: Option<&'a CkptShared>,
    /// Checkpoints this run has captured (the same count on every rank).
    captures: u64,
}

impl Interp<'_> {
    /// The barrier at an op boundary (parallel full mode only), skipped
    /// when this rank ran nothing since its last one; surfaces aborts
    /// raised by failing ranks.
    fn sync(&mut self) -> Result<(), ExecError> {
        if self.worked && self.ctx.nproc > 1 && !self.ctx.barrier_or_abort() {
            return Err(ExecError::Aborted);
        }
        self.worked = false;
        Ok(())
    }

    /// Propagates a rank-local failure: abort the group so peers waiting
    /// at barriers unwind instead of deadlocking.
    fn fail<T>(&self, e: impl Into<ExecError>) -> Result<T, ExecError> {
        if self.ctx.nproc > 1 {
            self.ctx.abort();
        }
        Err(e.into())
    }

    /// Books a collective transfer.
    fn transferred(&mut self, r: Result<(), DraError>) -> Result<(), ExecError> {
        self.worked = true;
        r.or_else(|e| self.fail(e))
    }

    /// Fills the scratch sections with the current tile state of `t`.
    fn sections(&mut self, t: &Transfer) {
        let (sec, buf) = (&mut self.sec, &mut self.buf_sec);
        for s in [&mut *sec, &mut *buf] {
            s.lo.clear();
            s.hi.clear();
        }
        for bound in &t.dims {
            let (lo, len) = match *bound {
                Bound::Full(n) => (0, n),
                Bound::Tile(slot) => self.windows[slot],
                Bound::One(slot) => (self.windows[slot].0, 1),
            };
            sec.lo.push(lo);
            sec.hi.push(lo + len);
            buf.lo.push(0);
            buf.hi.push(len);
        }
    }

    /// Collectively captures a checkpoint at `site`: all ranks
    /// synchronize and rank 0 snapshots disks + buffers + accounting;
    /// the next op boundary's barrier keeps the other ranks off the state
    /// until the snapshot is done. No-op when checkpointing is off.
    fn capture(&mut self, site: CheckpointSite) -> Result<(), ExecError> {
        let Some(ck) = self.ckpt else {
            return Ok(());
        };
        self.sync()?;
        if self.ctx.rank == 0 {
            let mut disk = Vec::with_capacity(self.plan.disk_arrays.len());
            for (&aid, &h) in self.plan.disk_arrays.iter().zip(self.handles) {
                let name = self.plan.program.array(aid).name();
                match self.dra.snapshot(h) {
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
        self.worked = true;
        // every rank counts the same captures, so the halt decision is
        // collective: all ranks stop or none does
        self.captures += 1;
        if ck.halt_after.is_some_and(|h| self.captures >= h) {
            return Err(ExecError::Halted {
                checkpoints: self.captures,
            });
        }
        Ok(())
    }

    /// Runs the plan's top-level ops, skipping work completed before the
    /// resume site and capturing checkpoints at each boundary.
    fn run_top(&mut self) -> Result<(), ExecError> {
        let low = self.low;
        let start = self.start;
        let last = self.plan.ops.len();
        for (idx, op) in &low.top {
            let idx = *idx;
            if idx < start.top_op {
                continue;
            }
            match op {
                LOp::Loop {
                    slot,
                    n,
                    tile,
                    body,
                } => {
                    let mut iter = if idx == start.top_op { start.iters } else { 0 };
                    let mut base = iter.saturating_mul(*tile);
                    while base < *n {
                        self.windows[*slot] = (base, (*tile).min(n - base));
                        self.run_ops(body)?;
                        base += tile;
                        iter += 1;
                        if base < *n {
                            self.capture(CheckpointSite {
                                top_op: idx,
                                iters: iter,
                            })?;
                        }
                    }
                }
                _ => self.run_op(op)?,
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

    fn run_ops(&mut self, ops: &[LOp]) -> Result<(), ExecError> {
        ops.iter().try_for_each(|op| self.run_op(op))
    }

    fn run_op(&mut self, op: &LOp) -> Result<(), ExecError> {
        match op {
            LOp::Loop {
                slot,
                n,
                tile,
                body,
            } => {
                let mut base = 0;
                while base < *n {
                    self.windows[*slot] = (base, (*tile).min(n - base));
                    self.run_ops(body)?;
                    base += tile;
                }
            }
            LOp::Read(t) => {
                self.sections(t);
                self.sync()?;
                let dst = (&self.buffers[t.buffer], &self.buf_sec);
                let r = self
                    .dra
                    .read_section(self.ctx.rank, t.array, &self.sec, dst);
                self.transferred(r)?;
            }
            LOp::Write(t) => {
                self.sections(t);
                self.sync()?;
                let src = SectionSrc::From(&self.buffers[t.buffer], &self.buf_sec);
                let r = self
                    .dra
                    .write_section(self.ctx.rank, t.array, &self.sec, src);
                self.transferred(r)?;
            }
            LOp::ZeroBuffer(b) => {
                self.sync()?;
                let buf = &self.buffers[*b];
                let (s, e) = chunk(buf.len() as u64, self.ctx.rank, self.ctx.nproc);
                buf.zero_range(s as usize, e as usize);
                self.worked = true;
            }
            LOp::ZeroFill { array, steps } => self.zero_fill(*array, steps)?,
            LOp::Compute(k) => {
                self.sync()?;
                self.kernel(k);
                self.worked = true;
            }
        }
        Ok(())
    }

    /// Writes zeros over the whole disk array in blocks of `steps`: Tile
    /// dims iterate the tile grid, Full dims are covered in one step.
    fn zero_fill(&mut self, array: ArrayHandle, steps: &[(u64, u64)]) -> Result<(), ExecError> {
        zero_fill_blocks(steps, |lo| {
            let sec = &mut self.sec;
            sec.lo.clear();
            sec.lo.extend_from_slice(lo);
            sec.hi.clear();
            sec.hi.extend(
                lo.iter()
                    .zip(steps)
                    .map(|(&b, &(n, step))| (b + step).min(n)),
            );
            self.sync()?;
            let r = self
                .dra
                .write_section(self.ctx.rank, array, &self.sec, SectionSrc::Zeros);
            self.transferred(r)
        })
    }

    /// Runs this rank's share of one per-tile contraction kernel: the
    /// elements of its chunk of the split band index. That index is
    /// carried by dst, so every dst element has one owner, which updates
    /// it in the sequential order: outputs do not depend on `nproc`.
    fn kernel(&mut self, k: &Kernel) {
        let nest = &mut self.nest;
        nest.band.clear();
        for (pos, &slot) in k.band.iter().enumerate() {
            let (base, len) = self.windows[slot];
            let (s, e) = if k.split == Some(pos) {
                chunk(len, self.ctx.rank, self.ctx.nproc)
            } else {
                (0, len)
            };
            nest.band.push((base, base + s, base + e));
        }
        if (k.split.is_none() && self.ctx.rank != 0)
            || nest.band.iter().any(|&(_, lo, hi)| lo >= hi)
        {
            return;
        }
        let flops = nest.run(k, self.buffers);
        self.flops.fetch_add(flops, Ordering::Relaxed);
    }
}

/// The loop nest of one kernel call, reused across calls.
///
/// The loops run in band order with changes that keep every dst element's
/// sequence of updates, so results are bit-identical to the plain nest:
/// single-iteration outer loops are skipped; when dst carries the
/// innermost index, the dst-carried loop with the most iterations becomes
/// the innermost one; when it does not (the innermost loop sums into an
/// accumulator), the longest dst-carried loop runs inside it as a lane of
/// accumulators, each summing its own element in the original order.
#[derive(Default)]
struct Nest {
    /// `(window base, lo, hi)` per band position.
    band: Vec<(u64, u64, u64)>,
    /// Outer loop positions, outermost first, and their odometer.
    outer: Vec<usize>,
    odometer: Vec<u64>,
    /// Accumulators of the lane.
    accs: Vec<f64>,
}

impl Nest {
    fn span(&self, p: usize) -> u64 {
        self.band[p].2 - self.band[p].1
    }

    /// The position of `ps` with the most iterations, if one has more
    /// than one (ties go to the inner position).
    fn longest(&self, ps: impl Iterator<Item = usize>) -> Option<usize> {
        ps.filter(|&p| self.span(p) > 1)
            .max_by_key(|&p| (self.span(p), p))
    }

    /// `dst += lhs * rhs` over the band box; returns the flop count.
    fn run(&mut self, k: &Kernel, buffers: &[GlobalArray]) -> u64 {
        let (dst, lhs, rhs) = (
            &buffers[k.dst.buffer],
            &buffers[k.lhs.buffer],
            &buffers[k.rhs.buffer],
        );
        let carried = |p: &usize| k.dst.strides[*p].0 != 0;
        let Some(last) = self.band.len().checked_sub(1) else {
            // an empty band: one multiply-add
            dst.set_flat(0, dst.get_flat(0) + lhs.get_flat(0) * rhs.get_flat(0));
            return 2;
        };
        let (inner, lane) = if carried(&last) {
            let inner = self.longest((0..=last).filter(carried)).unwrap_or(last);
            (inner, None)
        } else {
            (last, self.longest((0..last).filter(carried)))
        };
        self.outer.clear();
        for p in 0..self.band.len() {
            if p != inner && Some(p) != lane && self.span(p) > 1 {
                self.outer.push(p);
            }
        }
        self.odometer.clear();
        self.odometer.resize(self.outer.len(), 0);

        let offset = |op: &Operand| -> usize {
            self.band
                .iter()
                .zip(&op.strides)
                .map(|(&(base, lo, _), &(stride, windowed))| {
                    (lo - if windowed { base } else { 0 }) * stride
                })
                .sum::<u64>() as usize
        };
        let (mut d, mut l, mut r) = (offset(&k.dst), offset(&k.lhs), offset(&k.rhs));
        let strides = |p: usize| {
            let s = |op: &Operand| op.strides[p].0 as usize;
            (s(&k.dst), s(&k.lhs), s(&k.rhs))
        };
        let len = self.span(inner) as usize;
        let (ds, ls, rs) = strides(inner);
        let lanes = lane.map_or(1, |q| self.span(q) as usize);
        let (dq, lq, rq) = lane.map_or((0, 0, 0), strides);
        let block_flops = 2 * (len * lanes) as u64;
        let mut flops = 0;
        loop {
            if ds != 0 {
                for v in 0..len {
                    let prod = lhs.get_flat(l + v * ls) * rhs.get_flat(r + v * rs);
                    dst.set_flat(d + v * ds, dst.get_flat(d + v * ds) + prod);
                }
            } else if lane.is_none() {
                let mut acc = 0.0;
                for v in 0..len {
                    acc += lhs.get_flat(l + v * ls) * rhs.get_flat(r + v * rs);
                }
                dst.set_flat(d, dst.get_flat(d) + acc);
            } else {
                self.accs.clear();
                self.accs.resize(lanes, 0.0);
                for v in 0..len {
                    let (lv, rv) = (l + v * ls, r + v * rs);
                    for (e, acc) in self.accs.iter_mut().enumerate() {
                        *acc += lhs.get_flat(lv + e * lq) * rhs.get_flat(rv + e * rq);
                    }
                }
                for (e, acc) in self.accs.iter().enumerate() {
                    dst.set_flat(d + e * dq, dst.get_flat(d + e * dq) + acc);
                }
            }
            flops += block_flops;
            // advance the odometer over the outer positions
            let mut j = self.outer.len();
            loop {
                if j == 0 {
                    return flops;
                }
                j -= 1;
                let p = self.outer[j];
                let (dp, lp, rp) = strides(p);
                self.odometer[j] += 1;
                d += dp;
                l += lp;
                r += rp;
                let span = self.span(p);
                if self.odometer[j] < span {
                    break;
                }
                let span = span as usize;
                d -= span * dp;
                l -= span * lp;
                r -= span * rp;
                self.odometer[j] = 0;
            }
        }
    }
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
    if opts.nproc == 0 {
        return fail(ExecError::BadOptions(
            "nproc must be at least 1".to_string(),
        ));
    }

    let mut dra = DraRuntime::new(opts.nproc, opts.profile.clone());
    if let Some(policy) = &opts.retry {
        dra.set_retry(policy.clone());
    }
    let ranges = plan.program.ranges();
    let handles: Vec<ArrayHandle> = plan
        .disk_arrays
        .iter()
        .map(|&aid| {
            let decl = plan.program.array(aid);
            let dims: Vec<u64> = decl.dims().iter().map(|d| ranges.extent(d)).collect();
            dra.create(decl.name(), &dims, materialize)
        })
        .collect();

    // the checkpoint fingerprint is hashed only when a checkpoint is
    // captured or checked
    let checkpointing = opts.checkpoint || opts.halt_after_checkpoints.is_some();
    let wants_fingerprint = checkpointing || opts.resume_from.is_some();
    let low = match lower(
        plan,
        !materialize,
        &handles,
        wants_fingerprint.then_some(opts.nproc),
    ) {
        Ok(low) => low,
        Err(e) => return fail(e),
    };
    if let Some(ck) = &opts.resume_from {
        if Some(ck.plan_fingerprint) != low.fingerprint {
            return fail(ExecError::BadOptions(
                "resume checkpoint belongs to a different plan or process count".to_string(),
            ));
        }
    }

    // shared in-memory buffers (global arrays). Dry runs never touch
    // buffers — the paper-size plans would otherwise allocate gigabytes.
    let buffers: Vec<GlobalArray> = if materialize {
        (plan.buffers.iter())
            .map(|b| GlobalArray::zeros(&b.shape.extents(ranges, &plan.tiles)))
            .collect()
    } else {
        Vec::new()
    };

    // populate state: either restore the checkpoint or load fresh inputs.
    // Either path uses `fill`/`set_flat`, which charge no I/O, and runs
    // before the fault plan is armed — fault thresholds and probabilistic
    // draws see execution-phase operations only.
    let flops;
    let start = if let Some(ck) = &opts.resume_from {
        for (name, data) in &ck.disk {
            let h = dra.handle(name).ok().filter(|&h| {
                dra.dims(h).is_ok_and(|d| {
                    d.iter().fold(1u64, |a, &x| a.saturating_mul(x)).max(1) as usize == data.len()
                })
            });
            let Some(h) = h else {
                return fail(ExecError::BadOptions(format!(
                    "checkpoint contents for `{name}` do not match the plan's array shape"
                )));
            };
            if let Err(e) = dra.fill(h, |k| data[k as usize]) {
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
        for (&aid, &h) in plan.disk_arrays.iter().zip(&handles) {
            let decl = plan.program.array(aid);
            if materialize && decl.kind() == ArrayKind::Input {
                let gen = opts.input_gen;
                if let Err(e) = dra.fill(h, |k| gen(decl.name(), k)) {
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

    let ckpt = low
        .fingerprint
        .filter(|_| checkpointing)
        .map(|fingerprint| CkptShared {
            latest: Mutex::new(None),
            count: AtomicU64::new(0),
            halt_after: opts.halt_after_checkpoints,
            fingerprint,
        });

    let results = if materialize {
        run_parallel(opts.nproc, |ctx| {
            Interp {
                plan,
                low: &low,
                dra: &dra,
                handles: &handles,
                buffers: &buffers,
                ctx,
                flops: &flops,
                windows: vec![(0, 0); low.slots],
                worked: false,
                sec: Section::new(Vec::new(), Vec::new()),
                buf_sec: Section::new(Vec::new(), Vec::new()),
                nest: Nest::default(),
                start,
                ckpt: ckpt.as_ref(),
                captures: 0,
            }
            .run_top()
        })
    } else {
        dry_walk(&low, &mut dra)
    };

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
        for (&aid, &h) in plan.disk_arrays.iter().zip(&handles) {
            let decl = plan.program.array(aid);
            if decl.kind() == ArrayKind::Output {
                match dra.snapshot(h) {
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
    use tce_codegen::{BufId, Op};
    use tce_cost::{BufferShape, DimExtent, TileAssignment};
    use tce_disksim::DiskFaults;
    use tce_ir::fixtures::two_index_fused;
    use tce_ir::Program;
    use tce_tile::{enumerate_placements, tile_program, IntermediateChoice};

    /// A fixed-tile plan with no solver; `spill` puts the first
    /// intermediate on disk.
    fn plan_of(p: &Program, tiles: &TileAssignment, spill: bool) -> ConcretePlan {
        let tiled = tile_program(p);
        let space = enumerate_placements(&tiled, 1 << 30).expect("space");
        let mut sel = space.default_selection();
        if spill {
            sel.intermediates[0] = IntermediateChoice::OnDisk { write: 0, read: 0 };
        }
        tce_codegen::generate_plan(&tiled, &space, &sel, tiles)
    }

    fn build_plan(n: u64, v: u64, tiles: &TileAssignment, spill_t: bool) -> ConcretePlan {
        plan_of(&two_index_fused(n, v), tiles, spill_t)
    }

    /// FNV-1a fold of every output element's bits, in output-name order.
    fn output_fold(report: &ExecReport) -> u64 {
        let mut names: Vec<&String> = report.outputs.keys().collect();
        names.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for name in names {
            for v in &report.outputs[name] {
                h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The plans of the pinned-accounting tests: a two-index plan with a
    /// spilled intermediate and a zero-fill pass (11 502 transfers per
    /// rank) and an in-memory four-index plan (7 024), both with tiles
    /// that leave partial edge tiles.
    fn pinned_plans() -> [ConcretePlan; 2] {
        let two = TileAssignment::new()
            .with("i", 3)
            .with("j", 5)
            .with("m", 4)
            .with("n", 2);
        let four = TileAssignment::new()
            .with("p", 3)
            .with("q", 2)
            .with("r", 4)
            .with("s", 2)
            .with("a", 3)
            .with("b", 2)
            .with("c", 3)
            .with("d", 4);
        [
            build_plan(40, 36, &two, true),
            plan_of(&tce_ir::fixtures::four_index_fused(12, 10), &four, false),
        ]
    }

    /// The pinned accounting of one disk: read and write ops and bytes,
    /// the bits of its four time fields, faulted and retried ops.
    fn disk_pins(s: &IoStats) -> [u64; 10] {
        [
            s.read_ops,
            s.write_ops,
            s.read_bytes,
            s.write_bytes,
            s.read_time_s.to_bits(),
            s.write_time_s.to_bits(),
            s.fault_time_s.to_bits(),
            s.backoff_time_s.to_bits(),
            s.faulted_ops,
            s.retried_ops,
        ]
    }

    /// Dry-run accounting of the pinned plans, computed before the
    /// executor lowered plans and split kernels by owner: `(plan, nproc,
    /// disk_pins)` of each rank, in rank order.
    #[rustfmt::skip]
    const PINNED_RANKS: [(usize, usize, [u64; 10]); 12] = [
        (0, 1, [8820, 2682, 755712, 167040, 0x4053d9289c6488c6, 0x4038247e40f36a8c, 0, 0, 0, 0]),
        (0, 2, [8820, 2682, 385920, 83520, 0x4053d8bf8e6dd95b, 0x403823e91c6123af, 0, 0, 0, 0]),
        (0, 2, [8820, 2682, 369792, 83520, 0x4053d8baf97bcff4, 0x403823e91c6123af, 0, 0, 0, 0]),
        (0, 3, [8820, 2682, 270000, 62208, 0x4053d89e9fe2359f, 0x403823c30dc03903, 0, 0, 0, 0]),
        (0, 3, [8820, 2682, 252576, 62208, 0x4053d899acaf0379, 0x403823c30dc03903, 0, 0, 0, 0]),
        (0, 3, [8802, 2664, 233136, 42624, 0x4053ce35f19e1166, 0x4037fa274012b80c, 0, 0, 0, 0]),
        (1, 1, [6784, 240, 925632, 80000, 0x404e8938ef6e04de, 0x40014c24efe8981e, 0, 0, 0, 0]),
        (1, 2, [6784, 240, 462880, 40000, 0x404e8832020c471b, 0x400149e98231bcbf, 0, 0, 0, 0]),
        (1, 2, [6784, 240, 462752, 40000, 0x404e8831ef6e05f1, 0x400149e98231bcbf, 0, 0, 0, 0]),
        (1, 3, [6784, 240, 327104, 26720, 0x404e87e4dccfc4a2, 0x4001492bcb564f0d, 0, 0, 0, 0]),
        (1, 3, [6784, 240, 303104, 26680, 0x404e87d739e70f8e, 0x4001492b390d2a7a, 0, 0, 0, 0]),
        (1, 3, [6784, 240, 295424, 26600, 0x404e87d2dccfc84e, 0x4001492a147ae155, 0, 0, 0, 0]),
    ];

    /// `(plan, nproc, elapsed_io_s bits)` of the same runs.
    const PINNED_ELAPSED: [(usize, usize, u64); 6] = [
        (0, 1, 0x4059e2482ca16369),
        (0, 2, 0x4059e1b9d5862247),
        (0, 3, 0x4059e18f635243e0),
        (1, 1, 0x404f9dfb3e6c8e60),
        (1, 2, 0x404f9cd09a2f62e7),
        (1, 3, 0x404f9c7799852993),
    ];

    #[test]
    fn dry_run_accounting_is_pinned() {
        let plans = pinned_plans();
        for &(k, nproc, elapsed) in &PINNED_ELAPSED {
            let r = execute(&plans[k], &ExecOptions::dry_run().with_nproc(nproc)).expect("dry");
            let got: Vec<[u64; 10]> = r.per_rank.iter().map(disk_pins).collect();
            let want: Vec<[u64; 10]> = PINNED_RANKS
                .iter()
                .filter(|p| (p.0, p.1) == (k, nproc))
                .map(|p| p.2)
                .collect();
            assert_eq!(got, want, "plan {k} at nproc {nproc}");
            assert_eq!(
                r.elapsed_io_s.to_bits(),
                elapsed,
                "plan {k} at nproc {nproc}"
            );
        }
    }

    #[test]
    fn armed_silent_dry_run_books_the_pins() {
        use tce_disksim::{DiskFaultKind, DiskFaults, Schedule};
        // every disk armed with a trigger past the run's op count: the
        // walk charges rank by rank, and no charge ever fails
        let silent = DiskFaults {
            schedule: Schedule::none().fail_after(1 << 40, DiskFaultKind::Permanent, 1),
            ..DiskFaults::default()
        };
        assert!(!silent.is_idle());
        let plans = pinned_plans();
        for &(k, nproc, elapsed) in &PINNED_ELAPSED {
            let faults = (0..nproc).fold(FaultPlan::none(), |p, rank| {
                p.with_disk(rank, silent.clone())
            });
            let opts = ExecOptions::dry_run().with_nproc(nproc).with_faults(faults);
            let r = execute(&plans[k], &opts).expect("silent faults");
            let got: Vec<[u64; 10]> = r.per_rank.iter().map(disk_pins).collect();
            let want: Vec<[u64; 10]> = PINNED_RANKS
                .iter()
                .filter(|p| (p.0, p.1) == (k, nproc))
                .map(|p| p.2)
                .collect();
            assert_eq!(got, want, "plan {k} at nproc {nproc}");
            assert_eq!(
                r.elapsed_io_s.to_bits(),
                elapsed,
                "plan {k} at nproc {nproc}"
            );
        }
    }

    #[test]
    fn faulted_dry_run_accounting_is_pinned() {
        use tce_disksim::{DiskFaultKind, DiskFaults, Schedule};
        let plan = &pinned_plans()[0];
        // a transient burst on disk 1 and a flaky, latency-spiking disk 2,
        // all absorbed by retries
        let noisy = FaultPlan::transient_after(1, 300, 3)
            .with_seed(11)
            .with_disk(
                2,
                DiskFaults {
                    schedule: Schedule::none().probabilistic(0.01, DiskFaultKind::Transient),
                    p_spike: 0.05,
                    spike_s: 0.25,
                },
            );
        let opts = ExecOptions::dry_run()
            .with_nproc(3)
            .with_faults(noisy)
            .with_retry(RetryPolicy::with_attempts(6));
        let r = execute(plan, &opts).expect("faults absorbed");
        let got: Vec<[u64; 10]> = r.per_rank.iter().map(disk_pins).collect();
        // computed before the executor lowered plans
        #[rustfmt::skip]
        let want = vec![
            [8820, 2682, 270000, 62208, 0x4053d89e9fe2359f, 0x403823c30dc03903, 0, 0, 0, 0],
            [8820, 2682, 252576, 62208, 0x4053d899acaf0379, 0x403823c30dc03903, 0x3f9ba5e353f7ced8, 0x3fd569b32cf2da30, 3, 3],
            [8802, 2664, 233136, 42624, 0x4053ce35f19e1166, 0x4037fa274012b80c, 0x406171fbe76c8b41, 0x40184e249755f128, 118, 118],
        ];
        assert_eq!(got, want);
        assert_eq!(r.elapsed_io_s.to_bits(), 0x406f1accecf89a7f);

        // disk 1 dies mid-run; ranks 0 and 2 run on to the end
        let opts = ExecOptions::dry_run()
            .with_nproc(3)
            .with_faults(FaultPlan::permanent_after(1, 4000).with_seed(3));
        let ExecOutcome::Failed {
            error,
            failed_rank,
            stats,
            ..
        } = execute_resilient(plan, &opts)
        else {
            panic!("disk 1 dies");
        };
        assert!(error.is_permanent_fault(), "{error}");
        assert_eq!(failed_rank, Some(1));
        assert_eq!(
            disk_pins(&stats),
            [
                20610,
                6358,
                591280,
                128440,
                0x40673002119226f2,
                0x404c9cdd2cb0b65d,
                0x3f826e978d4fdf3b,
                0,
                1,
                0
            ]
        );
    }

    #[test]
    fn full_run_outputs_are_pinned_and_independent_of_nproc() {
        // folds of the nproc-1 outputs, computed before the executor
        // lowered plans and split kernels by owner
        let want = [
            (0xffab98f30c11764c_u64, 218880_u64),
            (0x182c59869b3e9531, 1288320),
        ];
        for (plan, (fold, flops)) in pinned_plans().iter().zip(want) {
            for nproc in [1, 2, 3] {
                let r = execute(plan, &ExecOptions::full_test().with_nproc(nproc)).expect("full");
                assert_eq!(output_fold(&r), fold, "nproc {nproc}");
                assert_eq!(r.flops, flops, "nproc {nproc}");
            }
        }
    }

    #[test]
    fn fingerprint_tells_one_tile_size_apart() {
        let fingerprint = |tiles: &TileAssignment| {
            let plan = build_plan(8, 6, tiles, false);
            let mut opts = ExecOptions::full_test();
            opts.halt_after_checkpoints = Some(1);
            let ExecOutcome::Failed { checkpoint, .. } = execute_resilient(&plan, &opts) else {
                panic!("run must halt");
            };
            checkpoint.expect("checkpoint").plan_fingerprint
        };
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 3)
            .with("n", 3);
        let base = fingerprint(&tiles);
        assert_eq!(
            base,
            fingerprint(&tiles),
            "the fingerprint is deterministic"
        );
        assert_ne!(base, fingerprint(&tiles.clone().with("j", 3)));
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
        assert_eq!(
            output_fold(&seq),
            output_fold(&par),
            "outputs differ bitwise"
        );
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

        // parallel: rank 1's disk dies mid-plan; every dst element has one
        // owner rank, so the recovered outputs are bit-identical too
        let opts = ExecOptions::full_test()
            .with_nproc(2)
            .with_faults(FaultPlan::permanent_after(1, 6));
        let report = run_to_completion(&plan, &opts, 4).expect("recovers");
        assert!(report.resilience.resume_legs >= 1);
        for (name, got) in &report.outputs {
            for (a, b) in got.iter().zip(&clean.outputs[name]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(report.flops, clean.flops);
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
    fn zero_processes_are_bad_options() {
        let tiles = TileAssignment::new()
            .with("i", 4)
            .with("j", 4)
            .with("m", 3)
            .with("n", 3);
        let plan = build_plan(8, 6, &tiles, false);
        for opts in [ExecOptions::full_test(), ExecOptions::dry_run()] {
            let ExecOutcome::Failed { error, .. } = execute_resilient(&plan, &opts.with_nproc(0))
            else {
                panic!("a run on no processes must fail");
            };
            assert!(matches!(error, ExecError::BadOptions(_)), "{error}");
        }
    }

    /// Runs `plan` under `opts` in both modes and asserts that the two
    /// walkers booked the same bits on every disk.
    fn assert_modes_book_alike(plan: &ConcretePlan, opts: &ExecOptions, what: &str) {
        let run = |mode| {
            let opts = ExecOptions {
                mode,
                ..opts.clone()
            };
            execute(plan, &opts).expect(what)
        };
        let (full, dry) = (run(ExecMode::Full), run(ExecMode::DryRun));
        let pins = |r: &ExecReport| r.per_rank.iter().map(disk_pins).collect::<Vec<_>>();
        assert_eq!(pins(&full), pins(&dry), "{what}");
        assert_eq!(full.per_rank, dry.per_rank, "{what}");
        assert_eq!(
            full.elapsed_io_s.to_bits(),
            dry.elapsed_io_s.to_bits(),
            "{what}"
        );
        assert!(full.flops > 0 && !full.outputs.is_empty(), "{what}");
        assert_eq!(dry.flops, 0, "{what}");
        assert!(dry.outputs.is_empty(), "{what}");
    }

    #[test]
    fn dry_run_matches_full_accounting() {
        for (k, plan) in pinned_plans().iter().enumerate() {
            for nproc in 1..=3 {
                let opts = ExecOptions::dry_run().with_nproc(nproc);
                assert_modes_book_alike(plan, &opts, &format!("plan {k} at nproc {nproc}"));
            }
        }
        // the absorbed faults of `faulted_dry_run_accounting_is_pinned`
        let noisy = FaultPlan::transient_after(1, 300, 3)
            .with_seed(11)
            .with_disk(
                2,
                DiskFaults {
                    schedule: tce_disksim::Schedule::none()
                        .probabilistic(0.01, tce_disksim::DiskFaultKind::Transient),
                    p_spike: 0.05,
                    spike_s: 0.25,
                },
            );
        let opts = ExecOptions::dry_run()
            .with_nproc(3)
            .with_faults(noisy)
            .with_retry(RetryPolicy::with_attempts(6));
        assert_modes_book_alike(&pinned_plans()[0], &opts, "absorbed faults");
    }

    /// The first `ReadBlock` under a loop, depth first, removed from its
    /// body.
    fn take_windowed_read(plan: &ConcretePlan, ops: &mut Vec<Op>, in_loop: bool) -> Option<Op> {
        for k in 0..ops.len() {
            match &mut ops[k] {
                Op::TilingLoop { body, .. } => {
                    if let Some(op) = take_windowed_read(plan, body, true) {
                        return Some(op);
                    }
                }
                Op::ReadBlock { buffer, .. }
                    if in_loop
                        && (plan.buffer(*buffer).shape.dims())
                            .iter()
                            .any(|(_, e)| *e == DimExtent::Tile) =>
                {
                    return Some(ops.remove(k));
                }
                _ => {}
            }
        }
        None
    }

    /// The buffer of the first `ReadBlock`, depth first, and a handle to
    /// set it.
    fn first_read(ops: &mut [Op]) -> Option<&mut BufId> {
        ops.iter_mut().find_map(|op| match op {
            Op::TilingLoop { body, .. } => first_read(body),
            Op::ReadBlock { buffer, .. } => Some(buffer),
            _ => None,
        })
    }

    #[test]
    fn malformed_plans_fail_alike_in_both_modes_before_any_charge() {
        let base = &pinned_plans()[0];
        // a buffer id past the declarations
        let mut past = base.clone();
        *first_read(&mut past.ops).expect("a read") = BufId(past.buffers.len() as u32);
        // a read moved out of the loop that opens its window
        let mut unopened = base.clone();
        let mut ops = std::mem::take(&mut unopened.ops);
        let read = take_windowed_read(&unopened, &mut ops, false).expect("a windowed read");
        ops.insert(0, read);
        unopened.ops = ops;
        // a read buffer one rank short of its array
        let mut short = base.clone();
        let b = first_read(&mut short.ops).expect("a read").as_usize();
        let dims = short.buffers[b].shape.dims()[1..].to_vec();
        short.buffers[b].shape = BufferShape::new(dims);

        type Want = fn(&ExecError) -> bool;
        let cases: [(&str, ConcretePlan, Want); 3] = [
            ("buffer id past the declarations", past, |e| {
                matches!(e, ExecError::BadPlan(_))
            }),
            ("window opened by no loop", unopened, |e| {
                matches!(e, ExecError::MissingWindow(_))
            }),
            ("buffer rank differs from its array's", short, |e| {
                matches!(e, ExecError::Dra(DraError::BadSection(_)))
            }),
        ];
        for (what, plan, want) in &cases {
            for nproc in [1, 2] {
                for opts in [ExecOptions::dry_run(), ExecOptions::full_test()] {
                    let mode = opts.mode;
                    let ExecOutcome::Failed { error, stats, .. } =
                        execute_resilient(plan, &opts.with_nproc(nproc))
                    else {
                        panic!("{what}: a {mode:?} run at nproc {nproc} must fail");
                    };
                    assert!(want(&error), "{what}, {mode:?} at nproc {nproc}: {error}");
                    assert_eq!(stats.total_ops(), 0, "{what}: charged before failing");
                }
            }
        }
    }
}
