//! Compiled model evaluation: flat tapes, common-subexpression
//! elimination, and incremental (delta) moves.
//!
//! [`Expr::eval`](crate::model::Expr::eval) is a recursive enum walk; the
//! DLM/CSA solvers call it millions of times per solve, almost always for
//! a *single-variable* move. [`CompiledModel::compile`] lowers the
//! objective and every constraint left-hand side into one flat tape of
//! instructions in topological order, where each instruction's operands
//! are indices of earlier instructions:
//!
//! * **CSE** — lowering hash-conses structurally identical subexpressions,
//!   across expressions: the `NumTiles`/`CeilDiv` subterms that appear in
//!   the objective, the memory constraint and the I/O-block constraints
//!   compile to one shared instruction each.
//! * **Constant folding** — an instruction whose operands are all
//!   constants is folded at compile time *using the exact runtime fold*
//!   (sums seed `0.0`, products seed `1.0`, left to right), so folding
//!   never changes a bit of the result.
//! * **Delta moves** — a var → dependent-instructions index lets
//!   [`Evaluator::probe`]/[`Evaluator::commit`] re-execute only the tape
//!   segments a move touches, reading everything else from the cached
//!   values of the committed point.
//!
//! # Bit-identity contract
//!
//! For every point and every staged move, the compiled evaluator returns
//! objective and constraint values that are **bit-for-bit identical** to
//! the tree-walker's. Sums and products replicate the tree-walker's
//! seeded left-to-right folds, `Select` evaluates all options but returns
//! the one the tree-walker would have chosen, and folding only collapses
//! all-constant subtrees. The differential tests in
//! `tests/compiled_eval.rs` enforce the contract against the tree walker,
//! which stays the reference implementation.

use crate::model::{ConstraintOp, Expr, Model, VarId};
use crate::peephole::{
    self, imm_f64, OP_ADD, OP_ADD2, OP_ADD2_AC, OP_ADD2_CA, OP_CEILDIV, OP_CEILDIV_AC,
    OP_CEILDIV_CA, OP_CEILDIV_RECIP, OP_FMA, OP_MUL, OP_MUL2, OP_MUL2_AC, OP_MUL2_CA, OP_SELECT,
    OP_SUB, OP_SUB_AC, OP_SUB_CA, OP_VAR,
};
use crate::telemetry::TapeStats;
use std::collections::HashMap;

/// One instruction of the flat tape. Operands are indices of earlier
/// instructions; `Var`/`Select` additionally read the current point.
#[derive(Clone, Debug)]
enum Inst {
    /// A literal (possibly the result of compile-time folding).
    Const(f64),
    /// The current value of variable `v`, as `f64`.
    Var(u32),
    /// Seeded left-to-right sum of the operands (`0.0 + a + b + …`).
    Add(Box<[u32]>),
    /// Seeded left-to-right product of the operands (`1.0 * a * b * …`).
    Mul(Box<[u32]>),
    /// `a - b`.
    Sub(u32, u32),
    /// `ceil(a / b)`, `0.0` when `b` evaluates to `0.0`.
    CeilDiv(u32, u32),
    /// Value of the option selected by variable `var` (clamped).
    Select {
        /// Selector variable.
        var: u32,
        /// Option instructions (never empty; empty selects fold to 0).
        opts: Box<[u32]>,
    },
}

/// Structural hash-consing key: one variant per instruction shape, with
/// constants keyed by their bit pattern so `0.0` and `-0.0` stay distinct.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(u64),
    Var(u32),
    Add(Vec<u32>),
    Mul(Vec<u32>),
    Sub(u32, u32),
    CeilDiv(u32, u32),
    Select(u32, Vec<u32>),
}

/// Per-constraint metadata copied out of the [`Model`] so violation
/// formulas can be applied to cached left-hand sides without touching the
/// expression tree.
#[derive(Clone, Debug)]
struct ConsMeta {
    op: ConstraintOp,
    rhs: f64,
    scale: f64,
}

impl ConsMeta {
    /// Raw violation from a left-hand-side value; bit-identical to
    /// [`crate::model::Constraint::violation`].
    #[inline]
    fn violation(&self, lhs: f64) -> f64 {
        match self.op {
            ConstraintOp::Le => (lhs - self.rhs).max(0.0),
            ConstraintOp::Eq => (lhs - self.rhs).abs(),
            ConstraintOp::Ge => (self.rhs - lhs).max(0.0),
        }
    }

    #[inline]
    fn violation_norm(&self, lhs: f64) -> f64 {
        self.violation(lhs) / self.scale
    }
}

/// A [`Model`] lowered to a flat evaluation tape.
///
/// Compile once per solve, then create one [`Evaluator`] per task (the
/// tape is immutable and `Sync`; evaluators hold the mutable caches).
#[derive(Clone, Debug)]
pub struct CompiledModel {
    num_vars: usize,
    insts: Vec<Inst>,
    objective_root: u32,
    constraint_roots: Vec<u32>,
    cons: Vec<ConsMeta>,
    /// `var_deps[v]` = ascending indices of every instruction whose value
    /// (transitively) depends on variable `v`.
    var_deps: Vec<Vec<u32>>,
    /// `var_cons[v]` = ascending indices of every constraint whose
    /// left-hand side depends on variable `v` (so probes skip the
    /// violation formulas of untouched constraints).
    var_cons: Vec<Vec<u32>>,
    /// `Const` slots and their values; written once per evaluator, never
    /// re-executed (see [`encode_inst`]).
    const_inits: Vec<(u32, f64)>,
    /// The whole tape (minus constants) as one encoded program.
    full_prog: Vec<u32>,
    /// `delta_progs[v]` = the instructions of `var_deps[v]` as an encoded
    /// program — the single-variable-move hot path.
    delta_progs: Vec<Vec<u32>>,
    /// `batch_progs[v]` = the instructions of `var_deps[v]` re-encoded for
    /// lane (SoA) execution: destinations are dense *positions* into
    /// `var_deps[v]`, operands inside the dependent set carry [`LANE_BIT`],
    /// operands outside it are plain tape slots read from the base values.
    batch_progs: Vec<Vec<u32>>,
    /// Position of `objective_root` inside `var_deps[v]`, `u32::MAX` when
    /// the objective doesn't depend on `v`.
    batch_obj_pos: Vec<u32>,
    /// `batch_cons_pos[v][ci]` = position of `constraint_roots[var_cons[v][ci]]`
    /// inside `var_deps[v]`.
    batch_cons_pos: Vec<Vec<u32>>,
    /// What the peephole pass did across all encoded programs.
    tape_stats: TapeStats,
}

// Encoded programs lay each instruction out as
// `[opcode | operand_count << 8, dst, operands…]` in one contiguous
// `u32` stream, so the delta hot loop walks a flat buffer instead of
// chasing per-instruction heap operand lists. The opcode constants
// (generic + peephole-specialized) live in [`crate::peephole`].

/// Operand tag of the batched (SoA) programs: a tagged operand indexes a
/// *position* of the dependent set (lane-varying); an untagged operand is
/// a plain tape slot read from the base values array.
pub(crate) const LANE_BIT: u32 = 1 << 31;

/// Appends instruction `i` to an encoded program. Constants are excluded
/// by construction (their slots are initialized once per evaluator).
fn encode_inst(code: &mut Vec<u32>, i: u32, inst: &Inst) {
    match inst {
        Inst::Const(_) => unreachable!("consts are preinitialized, not executed"),
        Inst::Var(v) => {
            code.push(OP_VAR);
            code.push(i);
            code.push(*v);
        }
        Inst::Add(ops) => {
            code.push(OP_ADD | (ops.len() as u32) << 8);
            code.push(i);
            code.extend_from_slice(ops);
        }
        Inst::Mul(ops) => {
            code.push(OP_MUL | (ops.len() as u32) << 8);
            code.push(i);
            code.extend_from_slice(ops);
        }
        Inst::Sub(a, b) => {
            code.push(OP_SUB);
            code.push(i);
            code.push(*a);
            code.push(*b);
        }
        Inst::CeilDiv(a, b) => {
            code.push(OP_CEILDIV);
            code.push(i);
            code.push(*a);
            code.push(*b);
        }
        Inst::Select { var, opts } => {
            code.push(OP_SELECT | (opts.len() as u32) << 8);
            code.push(i);
            code.push(*var);
            code.extend_from_slice(opts);
        }
    }
}

/// Executes an encoded program, writing each instruction's value into
/// `vals[dst]` and reading variables from `x`. Folds are the same seeded
/// left-to-right folds as [`exec`] — the two paths are bit-identical.
#[inline]
fn run_prog(code: &[u32], vals: &mut [f64], x: &[i64]) {
    let mut rest = code;
    while let [hdr, dst, tail @ ..] = rest {
        let op = hdr & 0xff;
        let n = (hdr >> 8) as usize;
        let v;
        match op {
            OP_VAR => {
                v = x[tail[0] as usize] as f64;
                rest = &tail[1..];
            }
            OP_ADD => {
                let (ops, t) = tail.split_at(n);
                v = ops.iter().fold(0.0, |a, &o| a + vals[o as usize]);
                rest = t;
            }
            OP_MUL => {
                let (ops, t) = tail.split_at(n);
                v = ops.iter().fold(1.0, |a, &o| a * vals[o as usize]);
                rest = t;
            }
            OP_SUB => {
                v = vals[tail[0] as usize] - vals[tail[1] as usize];
                rest = &tail[2..];
            }
            OP_CEILDIV => {
                let d = vals[tail[1] as usize];
                v = if d == 0.0 {
                    0.0
                } else {
                    (vals[tail[0] as usize] / d).ceil()
                };
                rest = &tail[2..];
            }
            OP_SELECT => {
                let (args, t) = tail.split_at(1 + n);
                let sel = x[args[0] as usize];
                let k = (sel.max(0) as usize).min(n - 1);
                v = vals[args[1 + k] as usize];
                rest = t;
            }
            // peephole-specialized decodes; every formula replays the
            // generic seeded fold bit for bit (see crate::peephole)
            OP_ADD2 => {
                v = (0.0 + vals[tail[0] as usize]) + vals[tail[1] as usize];
                rest = &tail[2..];
            }
            OP_MUL2 => {
                v = (1.0 * vals[tail[0] as usize]) * vals[tail[1] as usize];
                rest = &tail[2..];
            }
            OP_ADD2_CA => {
                v = imm_f64(tail[0], tail[1]) + vals[tail[2] as usize];
                rest = &tail[3..];
            }
            OP_ADD2_AC => {
                v = (0.0 + vals[tail[0] as usize]) + imm_f64(tail[1], tail[2]);
                rest = &tail[3..];
            }
            OP_MUL2_CA => {
                v = imm_f64(tail[0], tail[1]) * vals[tail[2] as usize];
                rest = &tail[3..];
            }
            OP_MUL2_AC => {
                v = (1.0 * vals[tail[0] as usize]) * imm_f64(tail[1], tail[2]);
                rest = &tail[3..];
            }
            OP_SUB_CA => {
                v = imm_f64(tail[0], tail[1]) - vals[tail[2] as usize];
                rest = &tail[3..];
            }
            OP_SUB_AC => {
                v = vals[tail[0] as usize] - imm_f64(tail[1], tail[2]);
                rest = &tail[3..];
            }
            OP_CEILDIV_RECIP => {
                v = (vals[tail[0] as usize] * imm_f64(tail[1], tail[2])).ceil();
                rest = &tail[3..];
            }
            OP_CEILDIV_AC => {
                v = (vals[tail[0] as usize] / imm_f64(tail[1], tail[2])).ceil();
                rest = &tail[3..];
            }
            OP_CEILDIV_CA => {
                let d = vals[tail[2] as usize];
                v = if d == 0.0 {
                    0.0
                } else {
                    (imm_f64(tail[0], tail[1]) / d).ceil()
                };
                rest = &tail[3..];
            }
            OP_FMA => {
                // writes BOTH destinations: later instructions (and other
                // variables' programs) read the product from its slot
                let m = (1.0 * vals[tail[0] as usize]) * vals[tail[1] as usize];
                vals[*dst as usize] = m;
                let o = vals[tail[3] as usize];
                vals[tail[2] as usize] = if n == 0 { (0.0 + o) + m } else { (0.0 + m) + o };
                rest = &tail[4..];
                continue;
            }
            _ => unreachable!("corrupt program"),
        }
        vals[*dst as usize] = v;
    }
}

/// Reads one batched-program operand for lane `l`: tagged operands index
/// the lane buffer (position-major, `pos * k + l`), untagged operands
/// read the base values array.
#[inline(always)]
fn lane_get(lanes: &[f64], base: &[f64], k: usize, o: u32, l: usize) -> f64 {
    if o & LANE_BIT != 0 {
        lanes[(o & !LANE_BIT) as usize * k + l]
    } else {
        base[o as usize]
    }
}

/// Executes a batched (SoA) program: one decode per instruction, `k`
/// lanes of values per decode. Lane `l` evaluates the point `xp` with
/// variable `probed` overridden to `cands[l]`; `base` supplies the value
/// of every tape slot outside the dependent set (the committed — or, for
/// stacked batches, staged — shadow). Folds replay [`run_prog`] bit for
/// bit per lane.
fn run_lanes(
    code: &[u32],
    lanes: &mut [f64],
    k: usize,
    base: &[f64],
    xp: &[i64],
    probed: usize,
    cands: &[i64],
) {
    let mut rest = code;
    while let [hdr, dst, tail @ ..] = rest {
        let op = hdr & 0xff;
        let n = (hdr >> 8) as usize;
        let d = *dst as usize * k;
        match op {
            OP_VAR => {
                let var = tail[0] as usize;
                if var == probed {
                    for l in 0..k {
                        lanes[d + l] = cands[l] as f64;
                    }
                } else {
                    let v = xp[var] as f64;
                    lanes[d..d + k].fill(v);
                }
                rest = &tail[1..];
            }
            OP_ADD => {
                // transposed fold: operands outer (tag check hoisted per
                // operand), lanes inner (contiguous, vectorizable). The
                // accumulation order per lane is unchanged: seed, then
                // operands left to right. Tagged operands always name
                // earlier positions, so they live below `d`.
                let (ops, t) = tail.split_at(n);
                let (src, acc) = lanes.split_at_mut(d);
                let acc = &mut acc[..k];
                acc.fill(0.0);
                for &o in ops {
                    if o & LANE_BIT != 0 {
                        let s = (o & !LANE_BIT) as usize * k;
                        for (a, &v) in acc.iter_mut().zip(&src[s..s + k]) {
                            *a += v;
                        }
                    } else {
                        let v = base[o as usize];
                        for a in acc.iter_mut() {
                            *a += v;
                        }
                    }
                }
                rest = t;
            }
            OP_MUL => {
                let (ops, t) = tail.split_at(n);
                let (src, acc) = lanes.split_at_mut(d);
                let acc = &mut acc[..k];
                acc.fill(1.0);
                for &o in ops {
                    if o & LANE_BIT != 0 {
                        let s = (o & !LANE_BIT) as usize * k;
                        for (a, &v) in acc.iter_mut().zip(&src[s..s + k]) {
                            *a *= v;
                        }
                    } else {
                        let v = base[o as usize];
                        for a in acc.iter_mut() {
                            *a *= v;
                        }
                    }
                }
                rest = t;
            }
            OP_SUB => {
                for l in 0..k {
                    lanes[d + l] =
                        lane_get(lanes, base, k, tail[0], l) - lane_get(lanes, base, k, tail[1], l);
                }
                rest = &tail[2..];
            }
            OP_CEILDIV => {
                for l in 0..k {
                    let dv = lane_get(lanes, base, k, tail[1], l);
                    lanes[d + l] = if dv == 0.0 {
                        0.0
                    } else {
                        (lane_get(lanes, base, k, tail[0], l) / dv).ceil()
                    };
                }
                rest = &tail[2..];
            }
            OP_SELECT => {
                let (args, t) = tail.split_at(1 + n);
                let var = args[0] as usize;
                for l in 0..k {
                    let sel = if var == probed { cands[l] } else { xp[var] };
                    let i = (sel.max(0) as usize).min(n - 1);
                    lanes[d + l] = lane_get(lanes, base, k, args[1 + i], l);
                }
                rest = t;
            }
            OP_ADD2 => {
                for l in 0..k {
                    lanes[d + l] = (0.0 + lane_get(lanes, base, k, tail[0], l))
                        + lane_get(lanes, base, k, tail[1], l);
                }
                rest = &tail[2..];
            }
            OP_MUL2 => {
                for l in 0..k {
                    lanes[d + l] = (1.0 * lane_get(lanes, base, k, tail[0], l))
                        * lane_get(lanes, base, k, tail[1], l);
                }
                rest = &tail[2..];
            }
            OP_ADD2_CA => {
                let c = imm_f64(tail[0], tail[1]);
                for l in 0..k {
                    lanes[d + l] = c + lane_get(lanes, base, k, tail[2], l);
                }
                rest = &tail[3..];
            }
            OP_ADD2_AC => {
                let c = imm_f64(tail[1], tail[2]);
                for l in 0..k {
                    lanes[d + l] = (0.0 + lane_get(lanes, base, k, tail[0], l)) + c;
                }
                rest = &tail[3..];
            }
            OP_MUL2_CA => {
                let c = imm_f64(tail[0], tail[1]);
                for l in 0..k {
                    lanes[d + l] = c * lane_get(lanes, base, k, tail[2], l);
                }
                rest = &tail[3..];
            }
            OP_MUL2_AC => {
                let c = imm_f64(tail[1], tail[2]);
                for l in 0..k {
                    lanes[d + l] = (1.0 * lane_get(lanes, base, k, tail[0], l)) * c;
                }
                rest = &tail[3..];
            }
            OP_SUB_CA => {
                let c = imm_f64(tail[0], tail[1]);
                for l in 0..k {
                    lanes[d + l] = c - lane_get(lanes, base, k, tail[2], l);
                }
                rest = &tail[3..];
            }
            OP_SUB_AC => {
                let c = imm_f64(tail[1], tail[2]);
                for l in 0..k {
                    lanes[d + l] = lane_get(lanes, base, k, tail[0], l) - c;
                }
                rest = &tail[3..];
            }
            OP_CEILDIV_RECIP => {
                let r = imm_f64(tail[1], tail[2]);
                for l in 0..k {
                    lanes[d + l] = (lane_get(lanes, base, k, tail[0], l) * r).ceil();
                }
                rest = &tail[3..];
            }
            OP_CEILDIV_AC => {
                let c = imm_f64(tail[1], tail[2]);
                for l in 0..k {
                    lanes[d + l] = (lane_get(lanes, base, k, tail[0], l) / c).ceil();
                }
                rest = &tail[3..];
            }
            OP_CEILDIV_CA => {
                let c = imm_f64(tail[0], tail[1]);
                for l in 0..k {
                    let dv = lane_get(lanes, base, k, tail[2], l);
                    lanes[d + l] = if dv == 0.0 { 0.0 } else { (c / dv).ceil() };
                }
                rest = &tail[3..];
            }
            OP_FMA => {
                let a = tail[2] as usize * k;
                for l in 0..k {
                    let m = (1.0 * lane_get(lanes, base, k, tail[0], l))
                        * lane_get(lanes, base, k, tail[1], l);
                    lanes[d + l] = m;
                    let o = lane_get(lanes, base, k, tail[3], l);
                    lanes[a + l] = if n == 0 { (0.0 + o) + m } else { (0.0 + m) + o };
                }
                rest = &tail[4..];
            }
            _ => unreachable!("corrupt program"),
        }
    }
}

/// Word-packed per-instruction variable sets used during compilation.
type BitSet = Vec<u64>;

struct Compiler {
    insts: Vec<Inst>,
    cse: HashMap<Key, u32>,
    /// Transitive variable dependencies per instruction.
    deps: Vec<BitSet>,
    words: usize,
}

impl Compiler {
    fn new(num_vars: usize) -> Self {
        Compiler {
            insts: Vec::new(),
            cse: HashMap::new(),
            deps: Vec::new(),
            words: num_vars.div_ceil(64).max(1),
        }
    }

    fn const_of(&self, id: u32) -> Option<f64> {
        match self.insts[id as usize] {
            Inst::Const(c) => Some(c),
            _ => None,
        }
    }

    fn intern(&mut self, key: Key, inst: Inst, dep: BitSet) -> u32 {
        if let Some(&id) = self.cse.get(&key) {
            return id;
        }
        let id = self.insts.len() as u32;
        self.insts.push(inst);
        self.deps.push(dep);
        self.cse.insert(key, id);
        id
    }

    fn push_const(&mut self, c: f64) -> u32 {
        self.intern(Key::Const(c.to_bits()), Inst::Const(c), vec![0; self.words])
    }

    fn union_deps(&self, ids: &[u32], extra_var: Option<u32>) -> BitSet {
        let mut set = vec![0u64; self.words];
        for &id in ids {
            for (w, d) in set.iter_mut().zip(&self.deps[id as usize]) {
                *w |= d;
            }
        }
        if let Some(v) = extra_var {
            set[v as usize / 64] |= 1 << (v % 64);
        }
        set
    }

    fn lower(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Const(c) => self.push_const(*c),
            Expr::Var(v) => {
                let mut dep = vec![0u64; self.words];
                dep[v.0 as usize / 64] |= 1 << (v.0 % 64);
                self.intern(Key::Var(v.0), Inst::Var(v.0), dep)
            }
            Expr::Add(es) => {
                let ids: Vec<u32> = es.iter().map(|e| self.lower(e)).collect();
                if let Some(consts) = self.all_consts(&ids) {
                    // replicate `iter().sum()`: fold from 0.0, in order
                    return self.push_const(consts.iter().fold(0.0, |a, &b| a + b));
                }
                let dep = self.union_deps(&ids, None);
                self.intern(Key::Add(ids.clone()), Inst::Add(ids.into()), dep)
            }
            Expr::Mul(es) => {
                let ids: Vec<u32> = es.iter().map(|e| self.lower(e)).collect();
                if let Some(consts) = self.all_consts(&ids) {
                    // replicate `iter().product()`: fold from 1.0, in order
                    return self.push_const(consts.iter().fold(1.0, |a, &b| a * b));
                }
                let dep = self.union_deps(&ids, None);
                self.intern(Key::Mul(ids.clone()), Inst::Mul(ids.into()), dep)
            }
            Expr::Sub(a, b) => {
                let (a, b) = (self.lower(a), self.lower(b));
                if let (Some(av), Some(bv)) = (self.const_of(a), self.const_of(b)) {
                    return self.push_const(av - bv);
                }
                let dep = self.union_deps(&[a, b], None);
                self.intern(Key::Sub(a, b), Inst::Sub(a, b), dep)
            }
            Expr::CeilDiv(a, b) => {
                let (a, b) = (self.lower(a), self.lower(b));
                if let (Some(av), Some(bv)) = (self.const_of(a), self.const_of(b)) {
                    let v = if bv == 0.0 { 0.0 } else { (av / bv).ceil() };
                    return self.push_const(v);
                }
                let dep = self.union_deps(&[a, b], None);
                self.intern(Key::CeilDiv(a, b), Inst::CeilDiv(a, b), dep)
            }
            Expr::Select(v, opts) => {
                if opts.is_empty() {
                    return self.push_const(0.0);
                }
                let ids: Vec<u32> = opts.iter().map(|e| self.lower(e)).collect();
                // if every option is the same constant the selector is
                // irrelevant (it always picks a value with those bits)
                if let Some(consts) = self.all_consts(&ids) {
                    let first = consts[0].to_bits();
                    if consts.iter().all(|c| c.to_bits() == first) {
                        return self.push_const(consts[0]);
                    }
                }
                let dep = self.union_deps(&ids, Some(v.0));
                self.intern(
                    Key::Select(v.0, ids.clone()),
                    Inst::Select {
                        var: v.0,
                        opts: ids.into(),
                    },
                    dep,
                )
            }
        }
    }

    fn all_consts(&self, ids: &[u32]) -> Option<Vec<f64>> {
        ids.iter().map(|&id| self.const_of(id)).collect()
    }
}

/// Executes one instruction given value/point readers. `get` returns the
/// value of an earlier instruction, `getx` the current value of a
/// variable. Inlined and monomorphized at every call site so the delta
/// path pays no dispatch.
#[inline(always)]
fn exec<F, G>(inst: &Inst, get: F, getx: G) -> f64
where
    F: Fn(u32) -> f64,
    G: Fn(u32) -> i64,
{
    match inst {
        Inst::Const(c) => *c,
        Inst::Var(v) => getx(*v) as f64,
        Inst::Add(ops) => ops.iter().fold(0.0, |a, &o| a + get(o)),
        Inst::Mul(ops) => ops.iter().fold(1.0, |a, &o| a * get(o)),
        Inst::Sub(a, b) => get(*a) - get(*b),
        Inst::CeilDiv(a, b) => {
            let d = get(*b);
            if d == 0.0 {
                0.0
            } else {
                (get(*a) / d).ceil()
            }
        }
        Inst::Select { var, opts } => {
            let k = (getx(*var).max(0) as usize).min(opts.len() - 1);
            get(opts[k])
        }
    }
}

impl CompiledModel {
    /// Lowers `model` into a flat tape with CSE and constant folding.
    pub fn compile(model: &Model) -> CompiledModel {
        let num_vars = model.num_vars();
        let mut c = Compiler::new(num_vars);
        let objective_root = c.lower(&model.objective);
        let constraint_roots: Vec<u32> = model
            .constraints()
            .iter()
            .map(|con| c.lower(&con.expr))
            .collect();
        let cons = model
            .constraints()
            .iter()
            .map(|con| ConsMeta {
                op: con.op,
                rhs: con.rhs,
                scale: con.scale,
            })
            .collect();

        // Dead-code sweep: folding leaves the interned operands of folded
        // subtrees behind; keep only instructions reachable from the
        // roots. Filtering in index order preserves topological order.
        let mut keep = vec![false; c.insts.len()];
        let mut stack: Vec<u32> = Vec::with_capacity(1 + constraint_roots.len());
        stack.push(objective_root);
        stack.extend_from_slice(&constraint_roots);
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut keep[i as usize], true) {
                continue;
            }
            match &c.insts[i as usize] {
                Inst::Const(_) | Inst::Var(_) => {}
                Inst::Add(ops) | Inst::Mul(ops) => stack.extend(ops.iter().copied()),
                Inst::Sub(a, b) | Inst::CeilDiv(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Inst::Select { opts, .. } => stack.extend(opts.iter().copied()),
            }
        }
        let mut remap = vec![u32::MAX; c.insts.len()];
        let mut insts = Vec::new();
        let mut deps: Vec<BitSet> = Vec::new();
        let map = |remap: &[u32], ops: &[u32]| -> Box<[u32]> {
            ops.iter().map(|&o| remap[o as usize]).collect()
        };
        for i in 0..c.insts.len() {
            if !keep[i] {
                continue;
            }
            remap[i] = insts.len() as u32;
            // operands precede their instruction, so they are remapped
            let inst = match &c.insts[i] {
                Inst::Const(v) => Inst::Const(*v),
                Inst::Var(v) => Inst::Var(*v),
                Inst::Add(ops) => Inst::Add(map(&remap, ops)),
                Inst::Mul(ops) => Inst::Mul(map(&remap, ops)),
                Inst::Sub(a, b) => Inst::Sub(remap[*a as usize], remap[*b as usize]),
                Inst::CeilDiv(a, b) => Inst::CeilDiv(remap[*a as usize], remap[*b as usize]),
                Inst::Select { var, opts } => Inst::Select {
                    var: *var,
                    opts: map(&remap, opts),
                },
            };
            insts.push(inst);
            deps.push(c.deps[i].clone());
        }
        let objective_root = remap[objective_root as usize];
        let constraint_roots: Vec<u32> = constraint_roots
            .iter()
            .map(|&r| remap[r as usize])
            .collect();

        let mut var_deps: Vec<Vec<u32>> = vec![Vec::new(); num_vars];
        for (i, dep) in deps.iter().enumerate() {
            for v in 0..num_vars {
                if dep[v / 64] & (1 << (v % 64)) != 0 {
                    var_deps[v].push(i as u32);
                }
            }
        }
        let vars_of = |dep: &BitSet| -> Vec<VarId> {
            (0..num_vars)
                .filter(|&v| dep[v / 64] & (1 << (v % 64)) != 0)
                .map(|v| VarId(v as u32))
                .collect()
        };
        let constraint_vars: Vec<Vec<VarId>> = constraint_roots
            .iter()
            .map(|&r| vars_of(&deps[r as usize]))
            .collect();
        let mut var_cons: Vec<Vec<u32>> = vec![Vec::new(); num_vars];
        for (j, vars) in constraint_vars.iter().enumerate() {
            for v in vars {
                var_cons[v.as_usize()].push(j as u32);
            }
        }

        let mut const_inits = Vec::new();
        let mut full_prog = Vec::new();
        for (i, inst) in insts.iter().enumerate() {
            if let Inst::Const(v) = inst {
                const_inits.push((i as u32, *v));
            } else {
                encode_inst(&mut full_prog, i as u32, inst);
            }
        }
        let delta_progs: Vec<Vec<u32>> = var_deps
            .iter()
            .map(|dep| {
                let mut code = Vec::new();
                for &i in dep {
                    encode_inst(&mut code, i, &insts[i as usize]);
                }
                code
            })
            .collect();

        // Batched (SoA) re-encodings of the delta programs: destinations
        // become dense positions into the dependent set, operands inside
        // the set are tagged with LANE_BIT, everything else stays a plain
        // slot read against the base values. `pos_of` is set and cleared
        // per variable so the map allocates once.
        let mut pos_of = vec![u32::MAX; insts.len()];
        let batch_progs: Vec<Vec<u32>> = var_deps
            .iter()
            .map(|dep| {
                for (p, &i) in dep.iter().enumerate() {
                    pos_of[i as usize] = p as u32;
                }
                let tag = |pos_of: &[u32], o: u32| {
                    let p = pos_of[o as usize];
                    if p == u32::MAX {
                        o
                    } else {
                        p | LANE_BIT
                    }
                };
                let mut code = Vec::new();
                for (p, &i) in dep.iter().enumerate() {
                    let p = p as u32;
                    match &insts[i as usize] {
                        Inst::Const(_) => unreachable!("consts have no dependencies"),
                        Inst::Var(v) => {
                            code.push(OP_VAR);
                            code.push(p);
                            code.push(*v);
                        }
                        Inst::Add(ops) => {
                            code.push(OP_ADD | (ops.len() as u32) << 8);
                            code.push(p);
                            code.extend(ops.iter().map(|&o| tag(&pos_of, o)));
                        }
                        Inst::Mul(ops) => {
                            code.push(OP_MUL | (ops.len() as u32) << 8);
                            code.push(p);
                            code.extend(ops.iter().map(|&o| tag(&pos_of, o)));
                        }
                        Inst::Sub(a, b) => {
                            code.push(OP_SUB);
                            code.push(p);
                            code.push(tag(&pos_of, *a));
                            code.push(tag(&pos_of, *b));
                        }
                        Inst::CeilDiv(a, b) => {
                            code.push(OP_CEILDIV);
                            code.push(p);
                            code.push(tag(&pos_of, *a));
                            code.push(tag(&pos_of, *b));
                        }
                        Inst::Select { var, opts } => {
                            code.push(OP_SELECT | (opts.len() as u32) << 8);
                            code.push(p);
                            code.push(*var);
                            code.extend(opts.iter().map(|&o| tag(&pos_of, o)));
                        }
                    }
                }
                for &i in dep {
                    pos_of[i as usize] = u32::MAX;
                }
                code
            })
            .collect();

        // Peephole pass over every encoded program. Lane-tagged operands
        // are never constants (they live inside the dependent set) and the
        // fusion dst-match must compare against the tagged form, hence the
        // per-kind const_of / dst_tag.
        let slot_const = |o: u32| match insts[o as usize] {
            Inst::Const(c) => Some(c),
            _ => None,
        };
        let lane_const = |o: u32| {
            if o & LANE_BIT != 0 {
                None
            } else {
                slot_const(o)
            }
        };
        let mut tape_stats = TapeStats {
            insts: insts.len() as u64,
            ..TapeStats::default()
        };
        let mut counts = peephole::PeepholeCounts::default();
        let mut optimize_prog = |code: &mut Vec<u32>, lane: bool| {
            tape_stats.words_before += code.len() as u64;
            let const_of: &dyn Fn(u32) -> Option<f64> =
                if lane { &lane_const } else { &slot_const };
            let (out, c) = peephole::optimize(code, const_of, if lane { LANE_BIT } else { 0 });
            tape_stats.words_after += out.len() as u64;
            counts.absorb(c);
            *code = out;
        };
        optimize_prog(&mut full_prog, false);
        let mut delta_progs = delta_progs;
        for code in &mut delta_progs {
            optimize_prog(code, false);
        }
        let mut batch_progs = batch_progs;
        for code in &mut batch_progs {
            optimize_prog(code, true);
        }
        tape_stats.specialized = counts.specialized;
        tape_stats.immediates = counts.immediates;
        tape_stats.strength_reduced = counts.strength_reduced;
        tape_stats.fused = counts.fused;

        // Lane positions of the roots the batch accessors read.
        let batch_obj_pos: Vec<u32> = (0..num_vars)
            .map(|v| match var_deps[v].binary_search(&objective_root) {
                Ok(p) => p as u32,
                Err(_) => u32::MAX,
            })
            .collect();
        let batch_cons_pos: Vec<Vec<u32>> = (0..num_vars)
            .map(|v| {
                var_cons[v]
                    .iter()
                    .map(|&j| {
                        var_deps[v]
                            .binary_search(&constraint_roots[j as usize])
                            .expect("constraint root is in the dep set of its variables")
                            as u32
                    })
                    .collect()
            })
            .collect();

        CompiledModel {
            num_vars,
            insts,
            objective_root,
            constraint_roots,
            cons,
            var_deps,
            var_cons,
            const_inits,
            full_prog,
            delta_progs,
            batch_progs,
            batch_obj_pos,
            batch_cons_pos,
            tape_stats,
        }
    }

    /// What the peephole pass did to this model's encoded programs.
    pub fn tape_stats(&self) -> TapeStats {
        self.tape_stats
    }

    /// Number of instructions in the tape (after CSE and folding).
    pub fn tape_len(&self) -> usize {
        self.insts.len()
    }

    /// Creates an evaluator with its caches primed at the point `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` differs from the model's variable count.
    pub fn evaluator(&self, x0: &[i64]) -> Evaluator<'_> {
        assert_eq!(x0.len(), self.num_vars, "point/variable count mismatch");
        let n = self.insts.len();
        let mut values = vec![0.0; n];
        for &(i, v) in &self.const_inits {
            values[i as usize] = v;
        }
        let mut ev = Evaluator {
            c: self,
            x: x0.to_vec(),
            xp: x0.to_vec(),
            values,
            scratch: vec![0.0; n],
            cnorm: vec![0.0; self.cons.len()],
            cnorm_shadow: vec![0.0; self.cons.len()],
            dirty: Vec::new(),
            dirty_cons: Vec::new(),
            dirty_vars: Vec::new(),
            staged: Vec::new(),
            probe_valid: false,
            lane_vals: Vec::new(),
            lane_cnorm: Vec::new(),
            batch_var: 0,
            batch_k: 0,
            batch_cands: Vec::new(),
            batch_valid: false,
            batch_stacked: false,
        };
        ev.full_eval();
        ev
    }
}

/// Mutable evaluation state over a [`CompiledModel`]: the committed point,
/// the cached value of every tape instruction at that point, and a
/// scratch shadow for staged (probed) moves.
///
/// The committed accessors ([`Self::objective`], [`Self::violation_norm`],
/// …) are cache reads. [`Self::probe`] stages a set of single-variable
/// moves and re-executes only the dependent tape segments into the
/// shadow; the `probe_*` accessors then read the shadow directly.
/// [`Self::commit`] makes a move permanent. All of it is allocation-free
/// in steady state (a multi-variable probe may grow the dirty list once).
///
/// Invariant between calls: `scratch[i] == values[i]` for every slot not
/// listed in `dirty`, and `xp[v] == x[v]` for every variable not listed in
/// `dirty_vars` — so a probe's delta pass reads operands branch-free and
/// only has to roll back the previous probe's slots.
#[derive(Clone, Debug)]
pub struct Evaluator<'c> {
    c: &'c CompiledModel,
    /// The committed point.
    x: Vec<i64>,
    /// The staged point: `x` plus the last probe's moves.
    xp: Vec<i64>,
    /// Committed value of every tape instruction.
    values: Vec<f64>,
    /// Shadow values: equal to `values` outside `dirty`.
    scratch: Vec<f64>,
    /// Committed normalized violation per constraint.
    cnorm: Vec<f64>,
    /// Shadow norms: equal to `cnorm` outside `dirty_cons`.
    cnorm_shadow: Vec<f64>,
    /// Instruction slots the last probe rewrote in `scratch`.
    dirty: Vec<u32>,
    /// Constraints the last probe rewrote in `cnorm_shadow`.
    dirty_cons: Vec<u32>,
    /// Variables the last probe overrode in `xp`.
    dirty_vars: Vec<usize>,
    /// The staged move set of the last [`Self::probe`] (empty = none).
    staged: Vec<(usize, i64)>,
    probe_valid: bool,
    /// Lane values of the last batch probe, position-major
    /// (`lane_vals[pos * k + l]` = value of `var_deps[batch_var][pos]`
    /// in lane `l`). Sized on demand, reused across batches.
    lane_vals: Vec<f64>,
    /// Lane violation norms, `lane_cnorm[ci * k + l]` for
    /// `var_cons[batch_var][ci]`.
    lane_cnorm: Vec<f64>,
    /// Variable of the last batch probe.
    batch_var: usize,
    /// Lane count of the last batch probe.
    batch_k: usize,
    /// Candidate values of the last batch probe, one per lane.
    batch_cands: Vec<i64>,
    batch_valid: bool,
    /// Whether the batch was stacked on a staged single probe
    /// ([`Self::probe_batch_over`]) rather than the committed point.
    batch_stacked: bool,
}

impl Evaluator<'_> {
    /// The committed point.
    pub fn point(&self) -> &[i64] {
        &self.x
    }

    fn full_eval(&mut self) {
        // constant slots were initialized at construction and never change
        run_prog(&self.c.full_prog, &mut self.values, &self.x);
        for j in 0..self.c.cons.len() {
            self.cnorm[j] =
                self.c.cons[j].violation_norm(self.values[self.c.constraint_roots[j] as usize]);
        }
        self.scratch.copy_from_slice(&self.values);
        self.cnorm_shadow.copy_from_slice(&self.cnorm);
        self.xp.copy_from_slice(&self.x);
        self.dirty.clear();
        self.dirty_cons.clear();
        self.dirty_vars.clear();
        self.probe_valid = false;
        self.batch_valid = false;
    }

    /// Restores the shadow invariant: undoes the previous probe's writes
    /// to `scratch`, `cnorm_shadow` and `xp`.
    #[inline]
    fn rollback(&mut self) {
        for &i in &self.dirty {
            self.scratch[i as usize] = self.values[i as usize];
        }
        self.dirty.clear();
        for &j in &self.dirty_cons {
            self.cnorm_shadow[j as usize] = self.cnorm[j as usize];
        }
        self.dirty_cons.clear();
        for &v in &self.dirty_vars {
            self.xp[v] = self.x[v];
        }
        self.dirty_vars.clear();
    }

    /// Recomputes the shadow norms of the constraints in `dirty_cons`
    /// from the shadow left-hand sides.
    #[inline]
    fn renorm_dirty(&mut self) {
        for &j in &self.dirty_cons {
            let j = j as usize;
            self.cnorm_shadow[j] =
                self.c.cons[j].violation_norm(self.scratch[self.c.constraint_roots[j] as usize]);
        }
    }

    /// Re-executes the instructions affected by `moves` into the scratch
    /// shadow. Reads are branch-free: any operand outside the affected
    /// set reads its committed value through `scratch` by the invariant.
    fn delta_pass(&mut self, moves: &[(usize, i64)]) {
        self.rollback();
        match *moves {
            [] => {}
            // the solver hot path: one precompiled program per variable
            [(v, val)] => {
                self.dirty.extend_from_slice(&self.c.var_deps[v]);
                self.dirty_cons.extend_from_slice(&self.c.var_cons[v]);
                self.xp[v] = val;
                self.dirty_vars.push(v);
                run_prog(&self.c.delta_progs[v], &mut self.scratch, &self.xp);
                self.renorm_dirty();
            }
            // multi-variable moves (brute-force odometer batches) merge
            // their dependent sets and walk the `Inst` tape directly
            _ => {
                for &(v, _) in moves {
                    self.dirty.extend_from_slice(&self.c.var_deps[v]);
                }
                self.dirty.sort_unstable();
                self.dirty.dedup();
                for &(v, val) in moves {
                    self.xp[v] = val;
                    self.dirty_vars.push(v);
                }
                for k in 0..self.dirty.len() {
                    let i = self.dirty[k] as usize;
                    let v = {
                        let scratch = &self.scratch;
                        let xp = &self.xp;
                        exec(
                            &self.c.insts[i],
                            |o| scratch[o as usize],
                            |u| xp[u as usize],
                        )
                    };
                    self.scratch[i] = v;
                }
                for &(v, _) in moves {
                    self.dirty_cons.extend_from_slice(&self.c.var_cons[v]);
                }
                self.dirty_cons.sort_unstable();
                self.dirty_cons.dedup();
                self.renorm_dirty();
            }
        }
    }

    /// Stages the moves `x[v] := val` (committed point untouched); the
    /// `probe_*` accessors then report the model at the moved point.
    /// A later move in the slice wins if a variable repeats.
    pub fn probe(&mut self, moves: &[(usize, i64)]) {
        self.delta_pass(moves);
        self.staged.clear();
        self.staged.extend_from_slice(moves);
        self.probe_valid = true;
        self.batch_valid = false;
    }

    /// Makes `moves` permanent: dependent tape segments are re-executed
    /// (or reused from a just-staged identical probe) and folded into the
    /// committed caches.
    pub fn commit(&mut self, moves: &[(usize, i64)]) {
        if !(self.probe_valid && self.staged == moves) {
            self.delta_pass(moves);
        }
        // fold the shadow into the committed caches; with the dirty lists
        // cleared the invariant holds again (scratch == values, xp == x)
        for &i in &self.dirty {
            self.values[i as usize] = self.scratch[i as usize];
        }
        self.dirty.clear();
        for &j in &self.dirty_cons {
            self.cnorm[j as usize] = self.cnorm_shadow[j as usize];
        }
        self.dirty_cons.clear();
        for &v in &self.dirty_vars {
            self.x[v] = self.xp[v];
        }
        self.dirty_vars.clear();
        self.probe_valid = false;
        self.batch_valid = false;
    }

    /// Objective at the committed point (a cache read).
    pub fn objective(&self) -> f64 {
        self.values[self.c.objective_root as usize]
    }

    /// Constraint `j`'s left-hand side at the committed point.
    pub fn constraint_lhs(&self, j: usize) -> f64 {
        self.values[self.c.constraint_roots[j] as usize]
    }

    /// Constraint `j`'s normalized violation at the committed point
    /// (a cache read; the formula ran when the value last changed).
    pub fn violation_norm(&self, j: usize) -> f64 {
        self.cnorm[j]
    }

    /// Sum of all normalized violations at the committed point, in
    /// constraint order (the tree-walker's
    /// `violations(x).iter().sum()` fold).
    pub fn violation_sum(&self) -> f64 {
        self.cnorm.iter().sum()
    }

    /// Whether the committed point satisfies every constraint within
    /// `tol` (normalized).
    pub fn is_feasible(&self, tol: f64) -> bool {
        self.cnorm.iter().all(|&n| n <= tol)
    }

    #[inline]
    fn probed_value(&self, slot: u32) -> f64 {
        // by the shadow invariant, slots the probe didn't touch still
        // read their committed value here
        self.scratch[slot as usize]
    }

    /// Objective at the staged point of the last [`Self::probe`].
    pub fn probe_objective(&self) -> f64 {
        debug_assert!(self.probe_valid, "no staged probe");
        self.probed_value(self.c.objective_root)
    }

    /// Constraint `j`'s normalized violation at the staged point.
    pub fn probe_violation_norm(&self, j: usize) -> f64 {
        debug_assert!(self.probe_valid, "no staged probe");
        self.cnorm_shadow[j]
    }

    /// Whether the staged point satisfies every constraint within `tol`.
    pub fn probe_is_feasible(&self, tol: f64) -> bool {
        debug_assert!(self.probe_valid, "no staged probe");
        self.cnorm_shadow.iter().all(|&n| n <= tol)
    }

    /// Runs the batched lane program of `var` over `cands` against the
    /// shadow base, then computes per-lane violation norms.
    fn lane_pass(&mut self, var: usize, cands: &[i64], stacked: bool) {
        let k = cands.len();
        let Evaluator {
            c,
            ref mut lane_vals,
            ref mut lane_cnorm,
            ref scratch,
            ref xp,
            ..
        } = *self;
        // grow-only buffers: every slot up to the live length is written
        // below before it is ever read, so stale tails from a larger
        // previous batch are harmless and the zero-fill would be wasted
        let need = c.var_deps[var].len() * k;
        if lane_vals.len() < need {
            lane_vals.resize(need, 0.0);
        }
        run_lanes(
            &c.batch_progs[var],
            &mut lane_vals[..need],
            k,
            scratch,
            xp,
            var,
            cands,
        );
        let vc = &c.var_cons[var];
        if lane_cnorm.len() < vc.len() * k {
            lane_cnorm.resize(vc.len() * k, 0.0);
        }
        for (ci, &j) in vc.iter().enumerate() {
            let pos = c.batch_cons_pos[var][ci] as usize;
            let meta = &c.cons[j as usize];
            for l in 0..k {
                lane_cnorm[ci * k + l] = meta.violation_norm(lane_vals[pos * k + l]);
            }
        }
        self.batch_var = var;
        self.batch_k = k;
        self.batch_cands.clear();
        self.batch_cands.extend_from_slice(cands);
        self.batch_valid = true;
        self.batch_stacked = stacked;
    }

    /// Stages `cands.len()` candidate values of `var` at once: one pass
    /// over the batched lane program evaluates every lane (one decode per
    /// instruction, K values per decode). The committed point is
    /// untouched; read the lanes through [`Self::batch_objective`],
    /// [`Self::batch_violation_norm`], [`Self::batch_violation_sum`] and
    /// [`Self::batch_is_feasible`], then optionally make one lane
    /// permanent with [`Self::commit_batch_lane`]. Any staged single
    /// [`Self::probe`] is rolled back first.
    pub fn probe_batch(&mut self, var: usize, cands: &[i64]) {
        debug_assert!(!cands.is_empty(), "empty batch");
        self.rollback();
        self.probe_valid = false;
        self.lane_pass(var, cands, false);
    }

    /// [`Self::probe_batch`] stacked *on top of* the currently staged
    /// single-probe overlay: each lane evaluates the staged point (the
    /// last [`Self::probe`]'s moves) with `var` additionally overridden to
    /// its candidate. The staged probe stays intact — this is the pair
    /// scan of DLM polish, where a base move of `vi` is probed once and K
    /// candidate values of `vj` ride on it.
    pub fn probe_batch_over(&mut self, var: usize, cands: &[i64]) {
        debug_assert!(!cands.is_empty(), "empty batch");
        debug_assert!(self.probe_valid, "no staged probe to stack on");
        debug_assert!(
            !self.dirty_vars.contains(&var),
            "stacked batch variable collides with the staged probe"
        );
        self.lane_pass(var, cands, true);
    }

    /// Whether a batch of `var` stacked on the staged probe
    /// ([`Self::probe_batch_over`]) can hold a lane feasible within `tol`.
    /// It cannot when some constraint violated at the staged point does
    /// not depend on `var`: every lane reads that constraint's staged
    /// norm, so [`Self::batch_is_feasible`] is false in all of them.
    pub fn stacked_batch_can_be_feasible(&self, var: usize, tol: f64) -> bool {
        debug_assert!(self.probe_valid, "no staged probe");
        let vc = &self.c.var_cons[var];
        let mut ci = 0;
        for (j, &n) in self.cnorm_shadow.iter().enumerate() {
            if ci < vc.len() && vc[ci] as usize == j {
                ci += 1;
            } else if n > tol {
                return false;
            }
        }
        true
    }

    /// Objective of lane `l` of the last batch probe.
    pub fn batch_objective(&self, l: usize) -> f64 {
        debug_assert!(self.batch_valid, "no staged batch");
        let pos = self.c.batch_obj_pos[self.batch_var];
        if pos == u32::MAX {
            // objective doesn't depend on the batched variable: every
            // lane shares the base value (committed or staged overlay)
            self.scratch[self.c.objective_root as usize]
        } else {
            self.lane_vals[pos as usize * self.batch_k + l]
        }
    }

    /// Constraint `j`'s normalized violation in lane `l`.
    pub fn batch_violation_norm(&self, l: usize, j: usize) -> f64 {
        debug_assert!(self.batch_valid, "no staged batch");
        match self.c.var_cons[self.batch_var].binary_search(&(j as u32)) {
            Ok(ci) => self.lane_cnorm[ci * self.batch_k + l],
            Err(_) => self.cnorm_shadow[j],
        }
    }

    /// Sum of all normalized violations in lane `l`, in constraint order
    /// (the same fold as [`Self::violation_sum`], mixing lane norms with
    /// base norms for untouched constraints).
    pub fn batch_violation_sum(&self, l: usize) -> f64 {
        debug_assert!(self.batch_valid, "no staged batch");
        // walk runs of untouched constraints between the batched
        // variable's own — identical left-to-right fold, fewer branches
        let vc = &self.c.var_cons[self.batch_var];
        let mut sum = 0.0;
        let mut prev = 0;
        for (ci, &j) in vc.iter().enumerate() {
            for &n in &self.cnorm_shadow[prev..j as usize] {
                sum += n;
            }
            sum += self.lane_cnorm[ci * self.batch_k + l];
            prev = j as usize + 1;
        }
        for &n in &self.cnorm_shadow[prev..] {
            sum += n;
        }
        sum
    }

    /// Whether lane `l` satisfies every constraint within `tol`.
    pub fn batch_is_feasible(&self, l: usize, tol: f64) -> bool {
        debug_assert!(self.batch_valid, "no staged batch");
        let vc = &self.c.var_cons[self.batch_var];
        let mut ci = 0;
        for j in 0..self.c.cons.len() {
            let n = if ci < vc.len() && vc[ci] as usize == j {
                let n = self.lane_cnorm[ci * self.batch_k + l];
                ci += 1;
                n
            } else {
                self.cnorm_shadow[j]
            };
            if n > tol {
                return false;
            }
        }
        true
    }

    /// Makes lane `l` of the last (non-stacked) batch probe the committed
    /// point, reusing the already-computed lane values instead of running
    /// another delta pass. Equivalent to
    /// `commit(&[(batch_var, cands[l])])` bit for bit.
    pub fn commit_batch_lane(&mut self, l: usize) {
        assert!(self.batch_valid, "no staged batch");
        assert!(
            !self.batch_stacked,
            "a stacked batch cannot be committed directly"
        );
        // probe_batch rolled the shadow back, so the dirty lists are empty
        debug_assert!(self.dirty.is_empty() && self.dirty_cons.is_empty());
        let v = self.batch_var;
        let k = self.batch_k;
        for (p, &i) in self.c.var_deps[v].iter().enumerate() {
            let val = self.lane_vals[p * k + l];
            self.values[i as usize] = val;
            self.scratch[i as usize] = val;
        }
        for (ci, &j) in self.c.var_cons[v].iter().enumerate() {
            let n = self.lane_cnorm[ci * k + l];
            self.cnorm[j as usize] = n;
            self.cnorm_shadow[j as usize] = n;
        }
        let cand = self.batch_cands[l];
        self.x[v] = cand;
        self.xp[v] = cand;
        self.probe_valid = false;
        self.batch_valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Domain, Expr, Model, FEAS_TOL};

    fn tile_model() -> Model {
        // objective and constraints share the ceil(100/t) subterm — the
        // NumTiles shape the CSE pass exists for
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 1, hi: 100 });
        let p = m.add_var("p", Domain::Binary);
        let ntiles = Expr::CeilDiv(Box::new(Expr::Const(100.0)), Box::new(Expr::Var(t)));
        m.objective = Expr::Add(vec![
            Expr::Mul(vec![Expr::Const(8.0), ntiles.clone()]),
            Expr::Select(p, vec![Expr::Const(0.0), Expr::Const(3.0)]),
        ]);
        m.add_constraint(
            "mem",
            Expr::Mul(vec![Expr::Var(t), ntiles.clone()]),
            ConstraintOp::Le,
            150.0,
        );
        m.add_constraint("blk", ntiles, ConstraintOp::Ge, 2.0);
        m
    }

    fn assert_matches_tree(m: &Model, ev: &Evaluator<'_>, x: &[i64]) {
        assert_eq!(
            ev.objective().to_bits(),
            m.objective_at(x).to_bits(),
            "objective at {x:?}"
        );
        for (j, c) in m.constraints().iter().enumerate() {
            assert_eq!(
                ev.violation_norm(j).to_bits(),
                c.violation_norm(x).to_bits(),
                "constraint {j} at {x:?}"
            );
        }
        assert_eq!(ev.is_feasible(FEAS_TOL), m.is_feasible(x, FEAS_TOL));
    }

    #[test]
    fn full_eval_matches_tree_walk() {
        let m = tile_model();
        let c = CompiledModel::compile(&m);
        for x in [[1, 0], [7, 1], [33, 0], [100, 1], [50, 0]] {
            let ev = c.evaluator(&x);
            assert_matches_tree(&m, &ev, &x);
        }
    }

    #[test]
    fn cse_dedups_shared_subterms() {
        let m = tile_model();
        let c = CompiledModel::compile(&m);
        // ceil(100/t), Const(100), Var(t) each appear once despite three uses
        let ceil_count = c
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::CeilDiv(_, _)))
            .count();
        assert_eq!(ceil_count, 1, "tape: {:?}", c.insts);
        let var_t = c.insts.iter().filter(|i| matches!(i, Inst::Var(0))).count();
        assert_eq!(var_t, 1);
    }

    #[test]
    fn constant_folding_collapses_const_subtrees() {
        let mut m = Model::new();
        let _ = m.add_var("t", Domain::Int { lo: 1, hi: 10 });
        m.objective = Expr::Add(vec![
            Expr::Const(1.5),
            Expr::Mul(vec![Expr::Const(2.0), Expr::Const(3.0)]),
            Expr::CeilDiv(Box::new(Expr::Const(7.0)), Box::new(Expr::Const(2.0))),
        ]);
        let c = CompiledModel::compile(&m);
        assert_eq!(c.tape_len(), 1, "tape: {:?}", c.insts);
        let ev = c.evaluator(&[5]);
        assert_eq!(ev.objective(), m.objective_at(&[5]));
    }

    #[test]
    fn folding_preserves_seeded_fold_bits() {
        // 0.1 + 0.2 + 0.3 summed left-to-right from 0.0 differs from
        // other association orders in the last ulp — folding must agree
        // with the tree-walker exactly
        let mut m = Model::new();
        let _ = m.add_var("t", Domain::Int { lo: 0, hi: 1 });
        m.objective = Expr::Add(vec![Expr::Const(0.1), Expr::Const(0.2), Expr::Const(0.3)]);
        let c = CompiledModel::compile(&m);
        let ev = c.evaluator(&[0]);
        assert_eq!(ev.objective().to_bits(), m.objective_at(&[0]).to_bits());
    }

    #[test]
    fn delta_probe_matches_moved_tree_walk() {
        let m = tile_model();
        let c = CompiledModel::compile(&m);
        let mut ev = c.evaluator(&[10, 0]);
        for (var, val) in [(0usize, 25i64), (1, 1), (0, 3), (0, 100), (1, 0)] {
            ev.probe(&[(var, val)]);
            let obj = ev.probe_objective();
            let mut moved = ev.point().to_vec();
            moved[var] = val;
            assert_eq!(obj.to_bits(), m.objective_at(&moved).to_bits());
            for (j, con) in m.constraints().iter().enumerate() {
                assert_eq!(
                    ev.probe_violation_norm(j).to_bits(),
                    con.violation_norm(&moved).to_bits()
                );
            }
            // the committed point is untouched by probes
            let committed = ev.point().to_vec();
            assert_matches_tree(&m, &ev, &committed);
        }
    }

    #[test]
    fn commit_applies_moves_and_refreshes_caches() {
        let m = tile_model();
        let c = CompiledModel::compile(&m);
        let mut ev = c.evaluator(&[10, 0]);
        ev.commit(&[(0, 42)]);
        assert_eq!(ev.point(), &[42, 0]);
        assert_matches_tree(&m, &ev, &[42, 0]);
        // probe-then-commit reuses the staged overlay
        ev.probe(&[(1, 1)]);
        ev.commit(&[(1, 1)]);
        assert_eq!(ev.point(), &[42, 1]);
        assert_matches_tree(&m, &ev, &[42, 1]);
        // multi-var commit
        ev.commit(&[(0, 9), (1, 0)]);
        assert_matches_tree(&m, &ev, &[9, 0]);
    }

    #[test]
    fn var_sets_are_precomputed() {
        let m = tile_model();
        let c = CompiledModel::compile(&m);
        // both constraints read t only; p reaches the objective alone
        assert_eq!(c.var_cons, vec![vec![0u32, 1], vec![]]);
        for v in m.objective.vars() {
            assert!(c.var_deps[v.as_usize()].contains(&c.objective_root));
        }
        // a move of t touches more of the tape than a move of p
        assert!(c.var_deps[0].len() > c.var_deps[1].len());
        assert!(c.var_deps[0].len() <= c.tape_len());
    }

    #[test]
    fn select_clamps_like_the_tree_walker() {
        let mut m = Model::new();
        let s = m.add_var("s", Domain::Int { lo: -5, hi: 9 });
        m.objective = Expr::Select(s, vec![Expr::Const(10.0), Expr::Const(20.0), Expr::Var(s)]);
        let c = CompiledModel::compile(&m);
        for x in [-5i64, -1, 0, 1, 2, 3, 9] {
            let ev = c.evaluator(&[x]);
            assert_eq!(ev.objective().to_bits(), m.objective_at(&[x]).to_bits());
        }
    }
}
