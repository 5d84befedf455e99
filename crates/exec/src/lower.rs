//! Lowering: a concrete plan becomes the slot-addressed op tree that the
//! ranks execute.
//!
//! `execute_resilient` lowers a plan once, before any rank starts, and the
//! ranks share the result read-only. Lowering resolves everything the
//! interpreter would otherwise look up per operation: each tiling index
//! becomes a window slot, each loop carries its extent and tile size, each
//! transfer carries its DRA array handle and a bound per dimension, and
//! each kernel carries its band slots, per-operand strides and the band
//! position its ranks split. The same walk validates the plan in both
//! modes, before any disk is charged: buffer references, a transferred
//! buffer's fit to its array, and that an enclosing loop opens every
//! window an op uses. When checkpointing asks for it, it also hashes the
//! plan's structure into the checkpoint fingerprint.

use crate::interp::ExecError;
use crate::resilience::Fnv;
use std::cmp::Reverse;
use std::collections::HashMap;
use tce_codegen::{BufId, BufRef, ComputeOp, ConcretePlan, Op};
use tce_cost::DimExtent;
use tce_ga::{ArrayHandle, DraError};
use tce_ir::{ArrayId, Index};

/// A lowered plan.
pub(crate) struct Lowered {
    /// Top-level ops, each with its position in `plan.ops`: checkpoint
    /// sites count plan positions, and dry runs drop I/O-free loops.
    pub top: Vec<(usize, LOp)>,
    /// The number of window slots.
    pub slots: usize,
    /// Structural fingerprint of plan and process count, when requested.
    pub fingerprint: Option<u64>,
}

/// A lowered op.
pub(crate) enum LOp {
    /// A tiling loop: windows `[base, base + tile)` over `0..n`, clipped.
    Loop {
        slot: usize,
        n: u64,
        tile: u64,
        body: Vec<LOp>,
    },
    Read(Transfer),
    Write(Transfer),
    ZeroBuffer(usize),
    /// Zero the whole array in blocks: `(extent, step)` per dimension.
    ZeroFill {
        array: ArrayHandle,
        steps: Vec<(u64, u64)>,
    },
    Compute(Kernel),
}

/// A transfer between a disk array and a buffer.
pub(crate) struct Transfer {
    pub array: ArrayHandle,
    pub buffer: usize,
    /// One bound per buffer dimension.
    pub dims: Vec<Bound>,
    /// The product of the `Full` extents: with the window lengths of
    /// `tiles` multiplied in, the element count a dry run charges.
    pub fixed: u64,
    /// The slots of the `Tile` bounds.
    pub tiles: Vec<usize>,
}

/// The section a transfer covers in one dimension.
#[derive(Clone, Copy)]
pub(crate) enum Bound {
    /// The whole extent.
    Full(u64),
    /// The current window of a slot.
    Tile(usize),
    /// The first element of the current window of a slot.
    One(usize),
}

/// A contraction kernel `dst += lhs * rhs` over the windows of its band.
pub(crate) struct Kernel {
    /// Window slots of the band, outermost first.
    pub band: Vec<usize>,
    pub dst: Operand,
    pub lhs: Operand,
    pub rhs: Operand,
    /// The band position the ranks split: the dst-carried index with the
    /// largest tile, so every dst element has one owner. `None` (dst
    /// carries no band index) runs the kernel on rank 0.
    pub split: Option<usize>,
}

/// A kernel operand.
pub(crate) struct Operand {
    pub buffer: usize,
    /// Per band position: the buffer stride of that index (0 if the
    /// operand does not carry it), and whether the buffer dimension is
    /// a window, so offsets count from the window base.
    pub strides: Vec<(u64, bool)>,
}

/// Op tags of the fingerprint.
const TAG_LOOP: u8 = 1;
const TAG_READ: u8 = 2;
const TAG_WRITE: u8 = 3;
const TAG_ZERO_BUFFER: u8 = 4;
const TAG_ZERO_FILL: u8 = 5;
const TAG_COMPUTE: u8 = 6;
const TAG_END: u8 = 7;

/// Lowers `plan` for ranks of one run. `handles` holds the DRA handle of
/// each entry of `plan.disk_arrays`, in order. A dry run drops the ops it
/// never executes: kernels, buffer zeroing, and loops left without I/O.
/// `fingerprint_nproc` asks for the checkpoint fingerprint.
pub(crate) fn lower(
    plan: &ConcretePlan,
    dry: bool,
    handles: &[ArrayHandle],
    fingerprint_nproc: Option<usize>,
) -> Result<Lowered, ExecError> {
    let hash = fingerprint_nproc.map(|nproc| {
        let ranges = plan.program.ranges();
        let mut h = Fnv::new();
        h.u64(nproc as u64);
        h.u64(plan.buffers.len() as u64);
        h.u64(plan.tiles.len() as u64);
        for (index, tile) in plan.tiles.iter() {
            h.str(index.name());
            h.u64(tile);
        }
        for &aid in &plan.disk_arrays {
            let decl = plan.program.array(aid);
            h.str(decl.name());
            for d in decl.dims() {
                h.u64(ranges.extent(d));
            }
        }
        h
    });
    let mut lowerer = Lowerer {
        plan,
        dry,
        handles,
        slots: Vec::new(),
        slot_of: HashMap::new(),
        open: Vec::new(),
        hash,
    };
    let mut top = Vec::with_capacity(plan.ops.len());
    for (k, op) in plan.ops.iter().enumerate() {
        if let Some(l) = lowerer.op(op)? {
            top.push((k, l));
        }
    }
    Ok(Lowered {
        top,
        slots: lowerer.slots.len(),
        fingerprint: lowerer.hash.map(|h| h.0),
    })
}

struct Lowerer<'a> {
    plan: &'a ConcretePlan,
    dry: bool,
    handles: &'a [ArrayHandle],
    slots: Vec<Index>,
    slot_of: HashMap<Index, usize>,
    /// The slots of the loops enclosing the current op.
    open: Vec<usize>,
    hash: Option<Fnv>,
}

impl Lowerer<'_> {
    fn slot(&mut self, index: &Index) -> usize {
        if let Some(&s) = self.slot_of.get(index) {
            return s;
        }
        self.slots.push(index.clone());
        self.slot_of.insert(index.clone(), self.slots.len() - 1);
        self.slots.len() - 1
    }

    /// The slot of `index`, whose window an enclosing loop must open.
    fn open_slot(&mut self, index: &Index) -> Result<usize, ExecError> {
        let slot = self.slot(index);
        if !self.open.contains(&slot) {
            return Err(ExecError::MissingWindow(index.name().to_string()));
        }
        Ok(slot)
    }

    fn eat(&mut self, tag: u8, ids: &[u64], index: Option<&Index>) {
        if let Some(h) = &mut self.hash {
            h.u64(u64::from(tag));
            for &id in ids {
                h.u64(id);
            }
            if let Some(i) = index {
                h.str(i.name());
            }
        }
    }

    fn eat_kernel(&mut self, c: &ComputeOp) {
        if let Some(h) = &mut self.hash {
            h.u64(u64::from(TAG_COMPUTE));
            for indices in [
                &c.band,
                &c.dst.subscripts,
                &c.lhs.subscripts,
                &c.rhs.subscripts,
            ] {
                h.u64(indices.len() as u64);
                for i in indices {
                    h.str(i.name());
                }
            }
            for r in [&c.dst, &c.lhs, &c.rhs] {
                h.u64(r.buffer.0.into());
            }
        }
    }

    fn op(&mut self, op: &Op) -> Result<Option<LOp>, ExecError> {
        let plan = self.plan;
        Ok(match op {
            Op::TilingLoop { index, body } => {
                self.eat(TAG_LOOP, &[], Some(index));
                let slot = self.slot(index);
                self.open.push(slot);
                let mut lowered = Vec::with_capacity(body.len());
                for op in body {
                    lowered.extend(self.op(op)?);
                }
                self.open.pop();
                self.eat(TAG_END, &[], None);
                if self.dry && lowered.is_empty() {
                    return Ok(None);
                }
                let n = plan.program.ranges().extent(index);
                Some(LOp::Loop {
                    slot,
                    n,
                    tile: plan.tiles.get(index).min(n).max(1),
                    body: lowered,
                })
            }
            Op::ReadBlock { array, buffer } => {
                self.eat(TAG_READ, &[array.0.into(), buffer.0.into()], None);
                Some(LOp::Read(self.transfer(*array, *buffer)?))
            }
            Op::WriteBlock { array, buffer } => {
                self.eat(TAG_WRITE, &[array.0.into(), buffer.0.into()], None);
                Some(LOp::Write(self.transfer(*array, *buffer)?))
            }
            Op::ZeroBuffer { buffer } => {
                self.eat(TAG_ZERO_BUFFER, &[buffer.0.into()], None);
                check_buf(plan, *buffer)?;
                (!self.dry).then_some(LOp::ZeroBuffer(buffer.as_usize()))
            }
            Op::ZeroFillPass { array, buffer } => {
                self.eat(TAG_ZERO_FILL, &[array.0.into(), buffer.0.into()], None);
                let handle = self.fitted(*array, *buffer)?;
                let ranges = plan.program.ranges();
                let steps = plan
                    .buffer(*buffer)
                    .shape
                    .dims()
                    .iter()
                    .map(|(idx, extent)| {
                        let n = ranges.extent(idx);
                        match extent {
                            DimExtent::Full => (n, n),
                            DimExtent::Tile => (n, plan.tiles.get(idx).min(n).max(1)),
                            DimExtent::One => (n, 1),
                        }
                    })
                    .collect();
                Some(LOp::ZeroFill {
                    array: handle,
                    steps,
                })
            }
            Op::Compute(c) => {
                self.eat_kernel(c);
                for r in [&c.dst, &c.lhs, &c.rhs] {
                    check_ref(plan, r)?;
                }
                let band = c.band.iter().map(|i| self.open_slot(i));
                let band = band.collect::<Result<_, _>>()?;
                (!self.dry).then(|| LOp::Compute(self.kernel(c, band)))
            }
        })
    }

    fn handle(&self, array: ArrayId) -> Result<ArrayHandle, ExecError> {
        let plan = self.plan;
        plan.disk_arrays
            .iter()
            .position(|&a| a == array)
            .map(|k| self.handles[k])
            .ok_or_else(|| {
                let name = plan.program.array(array).name().to_string();
                ExecError::Dra(DraError::NoSuchArray(name))
            })
    }

    /// The handle of `array`, once `buffer` is checked to fit it: the
    /// same rank, and no buffer dimension ranging past the array's.
    fn fitted(&self, array: ArrayId, buffer: BufId) -> Result<ArrayHandle, ExecError> {
        let plan = self.plan;
        check_buf(plan, buffer)?;
        let handle = self.handle(array)?;
        let ranges = plan.program.ranges();
        let decl = plan.program.array(array);
        let dims: Vec<u64> = decl.dims().iter().map(|d| ranges.extent(d)).collect();
        let shape = plan.buffer(buffer).shape.dims();
        let reach: Vec<u64> = shape.iter().map(|(i, _)| ranges.extent(i)).collect();
        if reach.len() == dims.len() && reach.iter().zip(&dims).all(|(r, d)| r <= d) {
            return Ok(handle);
        }
        Err(ExecError::Dra(DraError::BadSection(format!(
            "buffer b{} over {reach:?} does not fit `{}` dims {dims:?}",
            buffer.as_usize(),
            decl.name()
        ))))
    }

    fn transfer(&mut self, array: ArrayId, buffer: BufId) -> Result<Transfer, ExecError> {
        let handle = self.fitted(array, buffer)?;
        let plan = self.plan;
        let ranges = plan.program.ranges();
        let dims = plan
            .buffer(buffer)
            .shape
            .dims()
            .iter()
            .map(|(idx, extent)| {
                Ok(match extent {
                    DimExtent::Full => Bound::Full(ranges.extent(idx)),
                    DimExtent::Tile => Bound::Tile(self.open_slot(idx)?),
                    // excluded by placement enumeration; tolerated as a
                    // unit slab at the window base
                    DimExtent::One => Bound::One(self.open_slot(idx)?),
                })
            })
            .collect::<Result<Vec<_>, ExecError>>()?;
        let fixed = (dims.iter())
            .map(|b| match *b {
                Bound::Full(n) => n,
                Bound::Tile(_) | Bound::One(_) => 1,
            })
            .product();
        let tiles = (dims.iter())
            .filter_map(|b| match *b {
                Bound::Tile(slot) => Some(slot),
                Bound::Full(_) | Bound::One(_) => None,
            })
            .collect();
        Ok(Transfer {
            array: handle,
            buffer: buffer.as_usize(),
            dims,
            fixed,
            tiles,
        })
    }

    fn kernel(&mut self, c: &ComputeOp, band: Vec<usize>) -> Kernel {
        let plan = self.plan;
        let ranges = plan.program.ranges();
        let operand = |r: &BufRef| {
            let decl = plan.buffer(r.buffer);
            let strides = tce_ga::strides(&decl.shape.extents(ranges, &plan.tiles));
            let mut per_band = vec![(0, false); c.band.len()];
            for (k, sub) in r.subscripts.iter().enumerate() {
                if let Some(b) = c.band.iter().position(|i| i == sub) {
                    per_band[b] = (strides[k], decl.shape.dims()[k].1 != DimExtent::Full);
                }
            }
            Operand {
                buffer: r.buffer.as_usize(),
                strides: per_band,
            }
        };
        let tile = |i: &Index| {
            let t = plan.tiles.get(i);
            ranges.get(i).map_or(t, |n| t.min(n))
        };
        let split = c
            .band
            .iter()
            .enumerate()
            .filter(|(_, i)| c.dst.subscripts.contains(i))
            .max_by_key(|&(k, i)| (tile(i), Reverse(k)))
            .map(|(k, _)| k);
        Kernel {
            band,
            dst: operand(&c.dst),
            lhs: operand(&c.lhs),
            rhs: operand(&c.rhs),
            split,
        }
    }
}

/// Rejects a buffer id past the plan's declarations.
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

/// Rejects an operand whose subscripts do not match its buffer's rank.
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

/// Calls `f` with the lower corner of each block of a zero-fill pass
/// over `steps`, last dimension fastest; stops at the first error.
pub(crate) fn zero_fill_blocks<E>(
    steps: &[(u64, u64)],
    mut f: impl FnMut(&[u64]) -> Result<(), E>,
) -> Result<(), E> {
    let mut lo = vec![0; steps.len()];
    loop {
        f(&lo)?;
        // advance the block odometer
        let mut k = steps.len();
        loop {
            if k == 0 {
                return Ok(());
            }
            k -= 1;
            lo[k] += steps[k].1;
            if lo[k] < steps[k].0 {
                break;
            }
            lo[k] = 0;
        }
    }
}
