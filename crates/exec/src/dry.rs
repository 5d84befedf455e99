//! The dry run: an accounting walk over the lowered plan, on one thread,
//! with no section and no lock. For each transfer it counts the elements
//! of the current windows and accounts every rank's share. Whether a run
//! can fail at all is decided once, before the walk:
//!
//! * an *armed* run (some disk carries a fault schedule) charges the
//!   shares rank by rank through [`DraRuntime::charge_read`] /
//!   [`DraRuntime::charge_write`]: per disk the same fault checks,
//!   retries and bookings, in the same order, as a full run's section
//!   transfers;
//! * an unarmed run cannot fail a transfer, so it books all ranks' shares
//!   in one call, [`DraRuntime::book`], with no fault check, retry or
//!   error path per rank. The disks book the same bits either way.

use crate::interp::ExecError;
use crate::lower::{zero_fill_blocks, LOp, Lowered, Transfer};
use std::convert::Infallible;
use tce_ga::{ArrayHandle, DraRuntime};

/// Walks `low`, charging its transfers to the disks of `dra`, and returns
/// each rank's result. A rank whose disk fails stops charging; the other
/// ranks run on to the end.
pub(crate) fn dry_walk(low: &Lowered, dra: &mut DraRuntime) -> Vec<Result<(), ExecError>> {
    let mut walk = DryWalk {
        book: !dra.is_armed(),
        failed: vec![None; dra.nproc()],
        dra,
        lens: vec![0; low.slots],
    };
    for (_, op) in &low.top {
        walk.op(op);
    }
    walk.failed
        .into_iter()
        .map(|f| f.map_or(Ok(()), Err))
        .collect()
}

struct DryWalk<'a> {
    dra: &'a mut DraRuntime,
    /// No disk is armed: book every transfer instead of charging it.
    book: bool,
    /// The current window length of each slot.
    lens: Vec<u64>,
    /// The first failure of each rank.
    failed: Vec<Option<ExecError>>,
}

impl DryWalk<'_> {
    fn op(&mut self, op: &LOp) {
        match op {
            LOp::Loop {
                slot,
                n,
                tile,
                body,
            } => {
                let mut base = 0;
                while base < *n {
                    self.lens[*slot] = (*tile).min(n - base);
                    for op in body {
                        self.op(op);
                    }
                    base += tile;
                }
            }
            LOp::Read(t) => self.charge(false, t.array, self.len(t)),
            LOp::Write(t) => self.charge(true, t.array, self.len(t)),
            LOp::ZeroFill { array, steps } => {
                let Ok(()) = zero_fill_blocks(steps, |lo| {
                    let len = lo
                        .iter()
                        .zip(steps)
                        .map(|(&b, &(n, step))| (b + step).min(n) - b)
                        .product();
                    self.charge(true, *array, len);
                    Ok::<(), Infallible>(())
                });
            }
            // a dry lowering drops kernels and buffer zeroing
            LOp::ZeroBuffer(_) | LOp::Compute(_) => {}
        }
    }

    /// The element count of `t` in the current windows.
    fn len(&self, t: &Transfer) -> u64 {
        t.tiles.iter().fold(t.fixed, |n, &slot| n * self.lens[slot])
    }

    /// Books every rank's share of a transfer of `len` elements, or, on
    /// an armed run, charges it to every rank that has not failed, in
    /// rank order.
    fn charge(&mut self, write: bool, array: ArrayHandle, len: u64) {
        if self.book {
            // only a stale handle fails a booking, on every rank at once
            if self.failed[0].is_none() {
                if let Err(e) = self.dra.book(array, write, len) {
                    self.failed.fill(Some(e.into()));
                }
            }
            return;
        }
        for (rank, failed) in self.failed.iter_mut().enumerate() {
            if failed.is_some() {
                continue;
            }
            let r = if write {
                self.dra.charge_write(rank, array, len)
            } else {
                self.dra.charge_read(rank, array, len)
            };
            if let Err(e) = r {
                *failed = Some(e.into());
            }
        }
    }
}
