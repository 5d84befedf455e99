//! Synthesis for sparse contraction networks (`tce_ir::network`).
//!
//! Where [`crate::synthesize_dcs`] optimizes one contraction, this module
//! lowers a whole [`ContractionDag`] into a single nonlinear model:
//!
//! * one tile variable `T_i` per index, shared by every node that loops
//!   over `i` (exactly the dense pipeline's variables);
//! * one *placement* variable `p_net_<name>` per intermediate tensor with
//!   three options — keep the whole tensor in memory, spill it to disk
//!   and stream it back, or recompute its tiles inside each consumer —
//!   encoded with the same [`Expr::Select`] mechanism the dense model
//!   uses for I/O placements, so the compiled-tape/batched-probe solver
//!   backend runs unchanged;
//! * sparsity-scaled I/O terms: every stream of a tensor is multiplied by
//!   its annotation's
//!   [`Sparsity::io_scale`](tce_ir::network::Sparsity::io_scale), and
//!   recompute charges the producer's reads *and* a compute term (in
//!   byte-equivalents) once per consumer tile step.
//!
//! The module also ships the verification half: a dense reference oracle
//! ([`network_reference`]), a genuinely tiled plan interpreter
//! ([`run_network_plan`]) that honors tile sizes and placements (including
//! per-tile recompute), seeded sparse input generation
//! ([`seeded_network_inputs`]), and [`verify_network_plan`] tying them
//! together. Tiling or placement bugs change the interpreter's numbers,
//! so the differential suite is non-vacuous.

use crate::dcs::{SynthesisConfig, SynthesisError};
use crate::model::lower_cost;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};
use tce_cost::{CostExpr, Factor, Term, TileAssignment};
use tce_ir::network::ContractionDag;
use tce_ir::{ArrayKind, Index, RangeMap, ELEMENT_BYTES};
use tce_solver::{ConstraintOp, Domain, Expr, Model, SolverReport, VarId};

/// Byte-equivalents charged per floating-point multiply-add, so recompute
/// is not free when the producer's operands are already in memory. One
/// flop ≈ 1/8 byte keeps compute an order of magnitude below I/O, as on
/// the paper's hardware.
pub const COMPUTE_BYTES_PER_FLOP: f64 = 0.125;

/// Where an intermediate tensor lives between its producer and consumers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkPlacement {
    /// The whole tensor stays in memory for its entire live range.
    InMemory,
    /// Written to disk once produced, streamed back tile-by-tile at each
    /// consumer.
    Spill,
    /// Never materialized: each consumer re-runs the producer per tile.
    Recompute,
}

impl NetworkPlacement {
    /// Stable lowercase label (used in plans and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            NetworkPlacement::InMemory => "memory",
            NetworkPlacement::Spill => "spill",
            NetworkPlacement::Recompute => "recompute",
        }
    }

    /// Parses [`NetworkPlacement::as_str`] output.
    pub fn parse(s: &str) -> Option<NetworkPlacement> {
        match s {
            "memory" => Some(NetworkPlacement::InMemory),
            "spill" => Some(NetworkPlacement::Spill),
            "recompute" => Some(NetworkPlacement::Recompute),
            _ => None,
        }
    }

    fn from_choice(k: i64) -> NetworkPlacement {
        match k {
            1 => NetworkPlacement::Spill,
            2 => NetworkPlacement::Recompute,
            _ => NetworkPlacement::InMemory,
        }
    }
}

impl fmt::Display for NetworkPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The decoded solution of a network solve: shared tile sizes plus a
/// placement per intermediate (keyed by tensor name, declaration order).
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkPlan {
    /// Tile size per index.
    pub tiles: TileAssignment,
    /// Placement per intermediate tensor.
    pub placements: Vec<(String, NetworkPlacement)>,
}

impl NetworkPlan {
    /// The placement of the named intermediate, if present.
    pub fn placement(&self, name: &str) -> Option<NetworkPlacement> {
        self.placements
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }
}

impl fmt::Display for NetworkPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tiles: {}", self.tiles)?;
        for (name, p) in &self.placements {
            write!(f, "\n{name}: {p}")?;
        }
        Ok(())
    }
}

impl serde::Serialize for NetworkPlan {
    fn to_value(&self) -> serde::Value {
        let tiles = self
            .tiles
            .iter()
            .map(|(i, t)| (i.name().to_string(), serde::Value::UInt(t)))
            .collect();
        let placements = self
            .placements
            .iter()
            .map(|(n, p)| (n.clone(), serde::Value::Str(p.as_str().to_string())))
            .collect();
        serde::Value::Map(vec![
            ("tiles".into(), serde::Value::Map(tiles)),
            ("placements".into(), serde::Value::Map(placements)),
        ])
    }
}

impl serde::Deserialize for NetworkPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = |key: &str| -> Result<&Vec<(String, serde::Value)>, serde::Error> {
            match v.get(key) {
                Some(serde::Value::Map(m)) => Ok(m),
                _ => Err(serde::Error(format!("network plan: missing map `{key}`"))),
            }
        };
        let mut tiles = TileAssignment::new();
        for (name, t) in entries("tiles")? {
            tiles.set(Index::new(name), u64::from_value(t)?);
        }
        let mut placements = Vec::new();
        for (name, p) in entries("placements")? {
            let label = String::from_value(p)?;
            let place = NetworkPlacement::parse(&label)
                .ok_or_else(|| serde::Error(format!("unknown placement `{label}`")))?;
            placements.push((name.clone(), place));
        }
        Ok(NetworkPlan { tiles, placements })
    }
}

/// The lowered network model plus decode bookkeeping.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// The solver model (objective = I/O bytes + compute byte-equivalents,
    /// one gated memory constraint per node).
    pub model: Model,
    /// Tile variable per index, in `RangeMap` order.
    pub tile_vars: Vec<(Index, VarId)>,
    /// Placement variable per intermediate: `(tensor id, var)`.
    pub place_vars: Vec<(usize, VarId)>,
    /// The I/O component of the objective (for reporting).
    io_expr: Expr,
    /// The compute component of the objective (for reporting).
    compute_expr: Expr,
    /// Per-node memory expressions (for reporting the peak).
    mem_exprs: Vec<Expr>,
}

/// Lowers a contraction network into a solver model.
pub fn build_network_model(dag: &ContractionDag, mem_limit: u64) -> NetworkModel {
    let ranges = dag.ranges();
    let mut model = Model::new();
    let tile_vars: Vec<(Index, VarId)> = ranges
        .iter()
        .map(|(i, n)| {
            let v = model.add_var(
                format!("T_{i}"),
                Domain::Int {
                    lo: 1,
                    hi: n.max(1) as i64,
                },
            );
            (i.clone(), v)
        })
        .collect();
    let mut place_vars: Vec<(usize, VarId)> = Vec::new();
    for (id, t) in dag.tensors().iter().enumerate() {
        if t.kind == ArrayKind::Intermediate {
            let v = model.add_var(format!("p_net_{}", t.name), Domain::Int { lo: 0, hi: 2 });
            place_vars.push((id, v));
        }
    }
    let b = NetBuilder {
        dag,
        ranges,
        tile_vars: &tile_vars,
        place_vars: &place_vars,
    };

    let mut io_terms: Vec<Expr> = Vec::new();
    let mut compute_terms: Vec<Expr> = Vec::new();
    let mut mem_exprs: Vec<Expr> = Vec::new();
    for c in 0..dag.nodes().len() {
        let node = dag.nodes()[c];
        let steps = b.num_steps(c);
        let (lhs_io, lhs_comp) = b.tile_cost(node.lhs);
        let (rhs_io, rhs_comp) = b.tile_cost(node.rhs);
        let gate = b.gate(c);
        io_terms.push(Expr::mul(vec![
            gate.clone(),
            Expr::add(vec![
                Expr::mul(vec![steps.clone(), Expr::add(vec![lhs_io, rhs_io])]),
                b.write_cost(c),
            ]),
        ]));
        compute_terms.push(Expr::mul(vec![
            gate.clone(),
            steps.clone(),
            Expr::add(vec![b.tile_flops(c), lhs_comp, rhs_comp]),
        ]));
        // memory: operand + output tile buffers (recompute adds the
        // producer's operand buffers recursively) while the node runs,
        // plus every in-memory intermediate live across this node
        let working = Expr::add(vec![
            b.op_mem(node.lhs),
            b.op_mem(node.rhs),
            b.tile_mem(node.out),
        ]);
        let mem = Expr::add(vec![Expr::mul(vec![gate, working]), b.live_mem(c)]);
        mem_exprs.push(mem.clone());
        model.add_constraint(
            format!("net_mem_{c}"),
            mem,
            ConstraintOp::Le,
            mem_limit as f64,
        );
    }
    let io_expr = Expr::add(io_terms);
    let compute_expr = Expr::add(compute_terms);
    model.objective = Expr::add(vec![io_expr.clone(), compute_expr.clone()]);
    NetworkModel {
        model,
        tile_vars,
        place_vars,
        io_expr,
        compute_expr,
        mem_exprs,
    }
}

/// Expression-construction helpers over one network.
struct NetBuilder<'a> {
    dag: &'a ContractionDag,
    ranges: &'a RangeMap,
    tile_vars: &'a [(Index, VarId)],
    place_vars: &'a [(usize, VarId)],
}

impl NetBuilder<'_> {
    fn tv(&self, i: &Index) -> VarId {
        self.tile_vars
            .iter()
            .find(|(k, _)| k == i)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no tile variable for index `{i}`"))
    }

    fn pv(&self, id: usize) -> VarId {
        self.place_vars
            .iter()
            .find(|(t, _)| *t == id)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no placement variable for tensor {id}"))
    }

    fn lower(&self, e: &CostExpr) -> Expr {
        lower_cost(e, self.ranges, &|i| self.tv(i))
    }

    /// `Π_{k ∈ loops(c)} ⌈N_k / T_k⌉` — tile steps of node `c`.
    fn num_steps(&self, c: usize) -> Expr {
        let factors = self
            .dag
            .loop_indices(c)
            .into_iter()
            .map(Factor::NumTiles)
            .collect();
        self.lower(&CostExpr::from_term(Term::new(1.0, factors)))
    }

    /// Bytes moved loading one tile of tensor `id` from a disk stream.
    fn tile_stream_bytes(&self, id: usize) -> Expr {
        let t = self.dag.tensor(id);
        let coeff = ELEMENT_BYTES as f64 * t.sparsity.io_scale();
        let factors = t.dims.iter().cloned().map(Factor::Tile).collect();
        self.lower(&CostExpr::from_term(Term::new(coeff, factors)))
    }

    /// Dense in-memory bytes of one tile buffer of tensor `id`.
    fn tile_mem(&self, id: usize) -> Expr {
        let t = self.dag.tensor(id);
        let factors = t.dims.iter().cloned().map(Factor::Tile).collect();
        self.lower(&CostExpr::from_term(Term::new(
            ELEMENT_BYTES as f64,
            factors,
        )))
    }

    /// Compute byte-equivalents of one tile step of node `c`, scaled by
    /// the operands' nonzero fractions (sparse operands skip work).
    fn tile_flops(&self, c: usize) -> Expr {
        let node = self.dag.nodes()[c];
        let density =
            self.dag.tensor(node.lhs).sparsity.nnz * self.dag.tensor(node.rhs).sparsity.nnz;
        let coeff = COMPUTE_BYTES_PER_FLOP * 2.0 * density;
        let factors = self
            .dag
            .loop_indices(c)
            .into_iter()
            .map(Factor::Tile)
            .collect();
        self.lower(&CostExpr::from_term(Term::new(coeff, factors)))
    }

    /// `(io, compute)` byte cost of obtaining one tile of tensor `id`
    /// inside a consumer's tile step.
    fn tile_cost(&self, id: usize) -> (Expr, Expr) {
        let t = self.dag.tensor(id);
        match t.kind {
            ArrayKind::Input => (self.tile_stream_bytes(id), Expr::Const(0.0)),
            ArrayKind::Output => unreachable!("outputs are never read (validated)"),
            ArrayKind::Intermediate => {
                let (rec_io, rec_comp) = self.recompute_tile(id);
                let io = Expr::Select(
                    self.pv(id),
                    vec![Expr::Const(0.0), self.tile_stream_bytes(id), rec_io],
                );
                let comp = Expr::Select(
                    self.pv(id),
                    vec![Expr::Const(0.0), Expr::Const(0.0), rec_comp],
                );
                (io, comp)
            }
        }
    }

    /// Cost of recomputing one tile of intermediate `id` by re-running
    /// its producer restricted to that tile: the producer's non-output
    /// tile loops run fully, each step fetching operand tiles (recursing
    /// through *their* placements) and paying the producer's compute.
    fn recompute_tile(&self, id: usize) -> (Expr, Expr) {
        let p = self
            .dag
            .producer(id)
            .expect("intermediates always have a producer (validated)");
        let node = self.dag.nodes()[p];
        let out_dims = &self.dag.tensor(id).dims;
        let redundancy_factors: Vec<Factor> = self
            .dag
            .loop_indices(p)
            .into_iter()
            .filter(|i| !out_dims.contains(i))
            .map(Factor::NumTiles)
            .collect();
        let redundancy = self.lower(&CostExpr::from_term(Term::new(1.0, redundancy_factors)));
        let (lhs_io, lhs_comp) = self.tile_cost(node.lhs);
        let (rhs_io, rhs_comp) = self.tile_cost(node.rhs);
        let io = Expr::mul(vec![redundancy.clone(), Expr::add(vec![lhs_io, rhs_io])]);
        let comp = Expr::mul(vec![
            redundancy,
            Expr::add(vec![self.tile_flops(p), lhs_comp, rhs_comp]),
        ]);
        (io, comp)
    }

    /// `1` when node `c` executes standalone, `0` when its output is
    /// recompute-placed (the work moves into the consumers).
    fn gate(&self, c: usize) -> Expr {
        let out = self.dag.nodes()[c].out;
        match self.dag.tensor(out).kind {
            ArrayKind::Intermediate => Expr::Select(
                self.pv(out),
                vec![Expr::Const(1.0), Expr::Const(1.0), Expr::Const(0.0)],
            ),
            _ => Expr::Const(1.0),
        }
    }

    /// Disk bytes written (and partial-sum re-read) for node `c`'s output.
    fn write_cost(&self, c: usize) -> Expr {
        let node = self.dag.nodes()[c];
        let out = self.dag.tensor(node.out);
        // with contracted loops, partial accumulations are re-read and
        // re-written once per contracted tile step
        let wfac = if self.dag.contracted_indices(c).is_empty() {
            1.0
        } else {
            2.0
        };
        let coeff = wfac * ELEMENT_BYTES as f64 * out.sparsity.io_scale();
        let mut factors: Vec<Factor> = out.dims.iter().cloned().map(Factor::Tile).collect();
        factors.extend(self.dag.loop_indices(c).into_iter().map(Factor::NumTiles));
        let stream = self.lower(&CostExpr::from_term(Term::new(coeff, factors)));
        match out.kind {
            ArrayKind::Intermediate => Expr::Select(
                self.pv(node.out),
                vec![Expr::Const(0.0), stream, Expr::Const(0.0)],
            ),
            _ => stream,
        }
    }

    /// Memory needed to obtain tiles of operand `id`: its tile buffer,
    /// plus (when recompute-placed) the producer's operand buffers.
    fn op_mem(&self, id: usize) -> Expr {
        let t = self.dag.tensor(id);
        let tile = self.tile_mem(id);
        match t.kind {
            ArrayKind::Intermediate => {
                let p = self.dag.producer(id).expect("validated");
                let node = self.dag.nodes()[p];
                let rec = Expr::add(vec![self.op_mem(node.lhs), self.op_mem(node.rhs)]);
                Expr::add(vec![
                    tile,
                    Expr::Select(self.pv(id), vec![Expr::Const(0.0), Expr::Const(0.0), rec]),
                ])
            }
            _ => tile,
        }
    }

    /// Full-tensor bytes of every in-memory intermediate live across node
    /// `c` (produced at or before `c`, consumed at or after `c`).
    fn live_mem(&self, c: usize) -> Expr {
        let mut terms = Vec::new();
        for &(id, var) in self.place_vars {
            let produced = match self.dag.producer(id) {
                Some(p) => p,
                None => continue,
            };
            let last_use = self.dag.consumers(id).into_iter().max().unwrap_or(produced);
            if produced <= c && c <= last_use {
                let full =
                    self.dag.tensor(id).num_elements(self.ranges) as f64 * ELEMENT_BYTES as f64;
                terms.push(Expr::Select(
                    var,
                    vec![Expr::Const(full), Expr::Const(0.0), Expr::Const(0.0)],
                ));
            }
        }
        Expr::add(terms)
    }
}

/// Decodes a solver point into a [`NetworkPlan`].
pub fn decode_network_point(
    dag: &ContractionDag,
    net: &NetworkModel,
    point: &[i64],
) -> NetworkPlan {
    let mut tiles: TileAssignment = net
        .tile_vars
        .iter()
        .map(|(i, v)| (i.clone(), point[v.as_usize()].max(1) as u64))
        .collect();
    tiles = tiles.clamped(dag.ranges());
    let placements = net
        .place_vars
        .iter()
        .map(|&(id, v)| {
            (
                dag.tensor(id).name.clone(),
                NetworkPlacement::from_choice(point[v.as_usize()].clamp(0, 2)),
            )
        })
        .collect();
    NetworkPlan { tiles, placements }
}

/// Result of a network synthesis run.
#[derive(Clone, Debug)]
pub struct NetworkSynthesis {
    /// Decoded tile sizes and placements.
    pub plan: NetworkPlan,
    /// Optimized disk traffic in bytes (sparsity-scaled).
    pub io_bytes: f64,
    /// Compute cost in byte-equivalents (see [`COMPUTE_BYTES_PER_FLOP`]).
    pub compute_bytes: f64,
    /// Peak per-node memory in bytes at the solution.
    pub memory_bytes: f64,
    /// Predicted sequential disk seconds (traffic over the read bandwidth
    /// — coarse: networks have no per-placement seek model yet).
    pub predicted_s: f64,
    /// Objective evaluations the optimizer performed.
    pub solver_evals: u64,
    /// Wall-clock synthesis time.
    pub codegen_time: Duration,
    /// Per-restart solver telemetry when enabled.
    pub solver_report: Option<SolverReport>,
}

/// The solver-independent front half of [`synthesize_network`]: lowers the
/// DAG into the model. The same prepare/finish seam as the dense pipeline
/// so the synthesis cache can fingerprint the model and replay solutions.
#[derive(Debug)]
pub struct PreparedNetwork {
    /// The network being synthesized.
    pub dag: ContractionDag,
    /// The lowered model.
    pub net: NetworkModel,
    started: Instant,
}

/// Lowers a network into its solver model.
pub fn prepare_network(
    dag: &ContractionDag,
    config: &SynthesisConfig,
) -> Result<PreparedNetwork, SynthesisError> {
    let started = Instant::now();
    let net = build_network_model(dag, config.mem_limit);
    Ok(PreparedNetwork {
        dag: dag.clone(),
        net,
        started,
    })
}

/// Decodes a solver outcome into a [`NetworkSynthesis`] — the back half of
/// [`synthesize_network`]; `outcome` may come from a live solve or from a
/// cache replay.
pub fn finish_network(
    prepared: PreparedNetwork,
    config: &SynthesisConfig,
    outcome: tce_solver::SolveOutcome,
) -> Result<NetworkSynthesis, SynthesisError> {
    let PreparedNetwork { dag, net, started } = prepared;
    let solution = outcome.solution;
    if !solution.feasible {
        return Err(SynthesisError::Infeasible);
    }
    let plan = decode_network_point(&dag, &net, &solution.point);
    let io_bytes = net.io_expr.eval(&solution.point);
    let compute_bytes = net.compute_expr.eval(&solution.point);
    let memory_bytes = net
        .mem_exprs
        .iter()
        .map(|e| e.eval(&solution.point))
        .fold(0.0f64, f64::max);
    Ok(NetworkSynthesis {
        plan,
        io_bytes,
        compute_bytes,
        memory_bytes,
        predicted_s: io_bytes / config.profile.read_bw,
        solver_evals: solution.evals,
        codegen_time: started.elapsed(),
        solver_report: outcome.report,
    })
}

/// Synthesizes tile sizes and intermediate placements for a contraction
/// network: lower, solve with the configured strategy, decode.
///
/// ```
/// use tce_core::network::synthesize_network;
/// use tce_core::SynthesisConfig;
/// use tce_ir::network::small_network;
///
/// let dag = small_network();
/// let config = SynthesisConfig::test_scale(64 * 1024);
/// let r = synthesize_network(&dag, &config).unwrap();
/// assert!(r.io_bytes > 0.0);
/// assert!(r.memory_bytes <= 64.0 * 1024.0 + 1e-6);
/// ```
pub fn synthesize_network(
    dag: &ContractionDag,
    config: &SynthesisConfig,
) -> Result<NetworkSynthesis, SynthesisError> {
    let prepared = prepare_network(dag, config)?;
    let outcome = tce_solver::solve(&prepared.net.model, &config.solve_options());
    finish_network(prepared, config, outcome)
}

// ---------------------------------------------------------------------------
// Numerical verification: oracle, seeded sparse inputs, tiled interpreter.
// ---------------------------------------------------------------------------

fn strides(dims: &[Index], ranges: &RangeMap) -> Vec<u64> {
    let mut out = vec![1u64; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        out[k] = out[k + 1] * ranges.extent(&dims[k + 1]);
    }
    out
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded input generator honoring each input tensor's nnz annotation:
/// element `(name, flat)` is nonzero with probability `nnz`, with a value
/// in `[-1, 1)`, both drawn from a hash of `(seed, name, flat)` — fully
/// deterministic and order-independent.
pub fn seeded_network_inputs(
    dag: &ContractionDag,
    seed: u64,
) -> impl Fn(&str, u64) -> f64 + 'static {
    let nnz: HashMap<String, f64> = dag
        .tensors()
        .iter()
        .filter(|t| t.kind == ArrayKind::Input)
        .map(|t| (t.name.clone(), t.sparsity.nnz))
        .collect();
    move |name: &str, flat: u64| {
        let mut h = mix64(seed ^ 0x5EED_CAB1_E007_0421);
        for b in name.bytes() {
            h = mix64(h ^ b as u64);
        }
        h = mix64(h ^ flat);
        let keep = nnz.get(name).copied().unwrap_or(1.0);
        if unit_f64(h) >= keep {
            return 0.0;
        }
        2.0 * unit_f64(mix64(h)) - 1.0
    }
}

/// Evaluates the network densely, node by node in program order, with
/// plain nested loops — the reference oracle synthesized plans are
/// verified against. Returns every produced (non-input) tensor.
pub fn network_reference(
    dag: &ContractionDag,
    input_gen: &dyn Fn(&str, u64) -> f64,
) -> HashMap<String, Vec<f64>> {
    let ranges = dag.ranges();
    let mut store: Vec<Vec<f64>> = dag
        .tensors()
        .iter()
        .map(|t| match t.kind {
            ArrayKind::Input => {
                let n = t.num_elements(ranges);
                (0..n).map(|k| input_gen(&t.name, k)).collect()
            }
            _ => vec![0.0; t.num_elements(ranges) as usize],
        })
        .collect();
    for c in 0..dag.nodes().len() {
        let node = dag.nodes()[c];
        let loops = dag.loop_indices(c);
        let extents: Vec<u64> = loops.iter().map(|i| ranges.extent(i)).collect();
        let flat_of = |id: usize, point: &[u64]| -> usize {
            let t = dag.tensor(id);
            let s = strides(&t.dims, ranges);
            t.dims
                .iter()
                .zip(&s)
                .map(|(d, &st)| point[loops.iter().position(|l| l == d).unwrap()] * st)
                .sum::<u64>() as usize
        };
        let mut point = vec![0u64; loops.len()];
        'odometer: loop {
            let l = store[node.lhs][flat_of(node.lhs, &point)];
            let r = store[node.rhs][flat_of(node.rhs, &point)];
            let o = flat_of(node.out, &point);
            store[node.out][o] += l * r;
            for k in (0..point.len()).rev() {
                point[k] += 1;
                if point[k] < extents[k] {
                    continue 'odometer;
                }
                point[k] = 0;
            }
            break;
        }
    }
    dag.tensors()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != ArrayKind::Input)
        .map(|(id, t)| (t.name.clone(), std::mem::take(&mut store[id])))
        .collect()
}

/// Tiled plan interpreter state.
struct NetExec<'a> {
    dag: &'a ContractionDag,
    plan: &'a NetworkPlan,
    /// Placement per tensor id (`InMemory` for inputs/outputs, unused).
    place: Vec<NetworkPlacement>,
    /// Materialized full arrays per tensor id.
    store: Vec<Option<Vec<f64>>>,
    input_gen: &'a dyn Fn(&str, u64) -> f64,
}

/// Per-index tile origin and length of the current block.
type Block = Vec<(Index, u64, u64)>;

impl NetExec<'_> {
    fn ranges(&self) -> &RangeMap {
        self.dag.ranges()
    }

    fn tile(&self, i: &Index) -> u64 {
        self.plan.tiles.get(i).max(1)
    }

    /// Iterates `f` over the tile blocks of `indices`, with `fixed`
    /// already pinned to specific origin/length spans.
    fn for_blocks(
        &mut self,
        indices: &[Index],
        fixed: &Block,
        f: &mut dyn FnMut(&mut Self, &Block),
    ) {
        let free: Vec<Index> = indices
            .iter()
            .filter(|i| fixed.iter().all(|(fi, _, _)| fi != *i))
            .cloned()
            .collect();
        let counts: Vec<u64> = free
            .iter()
            .map(|i| self.ranges().extent(i).div_ceil(self.tile(i)))
            .collect();
        let mut cursor = vec![0u64; free.len()];
        loop {
            let mut block = fixed.clone();
            for (k, i) in free.iter().enumerate() {
                let t = self.tile(i);
                let start = cursor[k] * t;
                let len = t.min(self.ranges().extent(i) - start);
                block.push((i.clone(), start, len));
            }
            f(self, &block);
            let mut k = free.len();
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                cursor[k] += 1;
                if cursor[k] < counts[k] {
                    break;
                }
                cursor[k] = 0;
            }
        }
    }

    fn span(block: &Block, i: &Index) -> (u64, u64) {
        block
            .iter()
            .find(|(bi, _, _)| bi == i)
            .map(|(_, s, l)| (*s, *l))
            .unwrap_or_else(|| panic!("block has no span for index `{i}`"))
    }

    /// The tile-local dense buffer of tensor `id` for `block` (row-major
    /// in the tensor's dim order, shape = the block's spans).
    fn get_tile(&mut self, id: usize, block: &Block) -> Vec<f64> {
        let t = self.dag.tensor(id);
        if t.kind == ArrayKind::Intermediate && self.place[id] == NetworkPlacement::Recompute {
            return self.recompute_tile(id, block);
        }
        self.materialize(id);
        let dims = t.dims.clone();
        let st = strides(&dims, self.ranges());
        let spans: Vec<(u64, u64)> = dims.iter().map(|d| Self::span(block, d)).collect();
        let full = self.store[id].as_ref().expect("materialized");
        let mut out = Vec::with_capacity(spans.iter().map(|(_, l)| *l as usize).product());
        let mut local = vec![0u64; dims.len()];
        loop {
            let flat: u64 = local
                .iter()
                .zip(&spans)
                .zip(&st)
                .map(|((&k, &(s, _)), &stride)| (s + k) * stride)
                .sum();
            out.push(full[flat as usize]);
            let mut k = dims.len();
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                local[k] += 1;
                if local[k] < spans[k].1 {
                    break;
                }
                local[k] = 0;
            }
        }
    }

    /// Ensures tensor `id` exists in `store` (generating inputs, running
    /// producers of memory/spill intermediates).
    fn materialize(&mut self, id: usize) {
        if self.store[id].is_some() {
            return;
        }
        let t = self.dag.tensor(id);
        match t.kind {
            ArrayKind::Input => {
                let n = t.num_elements(self.ranges());
                let name = t.name.clone();
                self.store[id] = Some((0..n).map(|k| (self.input_gen)(&name, k)).collect());
            }
            _ => {
                let p = self
                    .dag
                    .producer(id)
                    .unwrap_or_else(|| panic!("tensor `{}` has no producer", t.name));
                self.exec_node(p);
            }
        }
    }

    /// Computes one tile of recompute-placed intermediate `id` by running
    /// its producer with the tile's indices pinned.
    fn recompute_tile(&mut self, id: usize, block: &Block) -> Vec<f64> {
        let p = self.dag.producer(id).expect("validated");
        let node = self.dag.nodes()[p];
        let t = self.dag.tensor(id);
        let dims = t.dims.clone();
        let spans: Vec<(u64, u64)> = dims.iter().map(|d| Self::span(block, d)).collect();
        let len: usize = spans.iter().map(|(_, l)| *l as usize).product();
        let mut tile = vec![0.0f64; len];
        let fixed: Block = dims
            .iter()
            .zip(&spans)
            .map(|(d, &(s, l))| (d.clone(), s, l))
            .collect();
        let loops = self.dag.loop_indices(p);
        let out_st = {
            // tile-local strides of the output tile (row-major in dims)
            let mut st = vec![1u64; dims.len()];
            for k in (0..dims.len().saturating_sub(1)).rev() {
                st[k] = st[k + 1] * spans[k + 1].1;
            }
            st
        };
        self.for_blocks(&loops, &fixed, &mut |me, inner| {
            let l = me.get_tile(node.lhs, inner);
            let r = me.get_tile(node.rhs, inner);
            accumulate_block(
                me.dag, inner, node, &l, &r, &mut tile, &dims, &spans, &out_st,
            );
        });
        tile
    }

    /// Runs node `c` tile-by-tile, materializing its full output.
    fn exec_node(&mut self, c: usize) {
        let node = self.dag.nodes()[c];
        if self.store[node.out].is_some() {
            return;
        }
        let t = self.dag.tensor(node.out);
        let dims = t.dims.clone();
        let n = t.num_elements(self.ranges()) as usize;
        let mut out = vec![0.0f64; n];
        let loops = self.dag.loop_indices(c);
        let ranges = self.ranges().clone();
        let full_spans: Vec<(u64, u64)> = dims.iter().map(|d| (0, ranges.extent(d))).collect();
        let out_st = strides(&dims, &ranges);
        self.for_blocks(&loops, &Vec::new(), &mut |me, block| {
            let l = me.get_tile(node.lhs, block);
            let r = me.get_tile(node.rhs, block);
            accumulate_block(
                me.dag,
                block,
                node,
                &l,
                &r,
                &mut out,
                &dims,
                &full_spans,
                &out_st,
            );
        });
        self.store[node.out] = Some(out);
    }
}

/// Accumulates one tile block's contribution `out += lhs * rhs` into an
/// output buffer whose dims/spans/strides are given (either the full
/// array or a tile-local scratch).
#[allow(clippy::too_many_arguments)]
fn accumulate_block(
    dag: &ContractionDag,
    block: &Block,
    node: tce_ir::network::Contraction,
    lhs_tile: &[f64],
    rhs_tile: &[f64],
    out: &mut [f64],
    out_dims: &[Index],
    out_spans: &[(u64, u64)],
    out_st: &[u64],
) {
    // tile-local strides of the operand tiles
    let local = |id: usize| -> (Vec<Index>, Vec<u64>, Vec<u64>) {
        let dims = dag.tensor(id).dims.clone();
        let lens: Vec<u64> = dims.iter().map(|d| NetExec::span(block, d).1).collect();
        let mut st = vec![1u64; dims.len()];
        for k in (0..dims.len().saturating_sub(1)).rev() {
            st[k] = st[k + 1] * lens[k + 1];
        }
        (dims, lens, st)
    };
    let (ldims, _, lst) = local(node.lhs);
    let (rdims, _, rst) = local(node.rhs);
    // iterate every point of the block
    let axes: Vec<(Index, u64, u64)> = block.clone();
    let mut cursor = vec![0u64; axes.len()];
    let pos = |dims: &[Index], st: &[u64], cursor: &[u64]| -> usize {
        dims.iter()
            .zip(st)
            .map(|(d, &stride)| {
                let k = axes.iter().position(|(a, _, _)| a == d).unwrap();
                cursor[k] * stride
            })
            .sum::<u64>() as usize
    };
    loop {
        let l = lhs_tile[pos(&ldims, &lst, &cursor)];
        let r = rhs_tile[pos(&rdims, &rst, &cursor)];
        let o: u64 = out_dims
            .iter()
            .zip(out_spans)
            .zip(out_st)
            .map(|((d, &(span_start, _)), &stride)| {
                let k = axes.iter().position(|(a, _, _)| a == d).unwrap();
                (axes[k].1 + cursor[k] - span_start) * stride
            })
            .sum();
        out[o as usize] += l * r;
        let mut k = axes.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            cursor[k] += 1;
            if cursor[k] < axes[k].2 {
                break;
            }
            cursor[k] = 0;
        }
    }
}

/// Executes a synthesized [`NetworkPlan`] with genuinely tiled loops —
/// per-index tile blocks, lazy materialization of memory/spill
/// intermediates, per-tile recompute for recompute-placed ones — and
/// returns the output tensors.
pub fn run_network_plan(
    dag: &ContractionDag,
    plan: &NetworkPlan,
    input_gen: &dyn Fn(&str, u64) -> f64,
) -> HashMap<String, Vec<f64>> {
    let mut place = vec![NetworkPlacement::InMemory; dag.tensors().len()];
    for (name, p) in &plan.placements {
        let id = dag
            .find(name)
            .unwrap_or_else(|| panic!("plan places unknown tensor `{name}`"));
        place[id] = *p;
    }
    for (id, t) in dag.tensors().iter().enumerate() {
        assert!(
            t.kind != ArrayKind::Intermediate || plan.placement(&t.name).is_some(),
            "plan is missing a placement for intermediate `{}`",
            t.name
        );
        let _ = id;
    }
    let mut exec = NetExec {
        dag,
        plan,
        place,
        store: vec![None; dag.tensors().len()],
        input_gen,
    };
    for c in 0..dag.nodes().len() {
        let out = dag.nodes()[c].out;
        let t = dag.tensor(out);
        if t.kind == ArrayKind::Intermediate && exec.place[out] == NetworkPlacement::Recompute {
            continue; // computed on demand inside consumers
        }
        exec.exec_node(c);
    }
    dag.tensors()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == ArrayKind::Output)
        .map(|(id, t)| {
            (
                t.name.clone(),
                exec.store[id].take().expect("outputs are always produced"),
            )
        })
        .collect()
}

/// Runs `plan` through the tiled interpreter and compares every output
/// tensor against the dense reference oracle. Returns the max absolute
/// error, or a message naming the first tensor exceeding `tol`.
pub fn verify_network_plan(
    dag: &ContractionDag,
    plan: &NetworkPlan,
    input_gen: &dyn Fn(&str, u64) -> f64,
    tol: f64,
) -> Result<f64, String> {
    let want = network_reference(dag, input_gen);
    let got = run_network_plan(dag, plan, input_gen);
    let mut max_err = 0.0f64;
    for (name, values) in &got {
        let reference = want
            .get(name)
            .ok_or_else(|| format!("oracle produced no tensor `{name}`"))?;
        if reference.len() != values.len() {
            return Err(format!(
                "`{name}`: plan produced {} elements, oracle {}",
                values.len(),
                reference.len()
            ));
        }
        let mut worst = 0.0f64;
        for (g, w) in values.iter().zip(reference) {
            worst = worst.max((g - w).abs());
        }
        if worst > tol {
            return Err(format!(
                "`{name}`: max |plan - oracle| = {worst:.3e} > {tol:.1e}"
            ));
        }
        max_err = max_err.max(worst);
    }
    Ok(max_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::network::{diamond_network, gen_network, small_network, NetworkGenConfig};

    fn all_placements(
        dag: &ContractionDag,
        p: NetworkPlacement,
    ) -> Vec<(String, NetworkPlacement)> {
        dag.tensors()
            .iter()
            .filter(|t| t.kind == ArrayKind::Intermediate)
            .map(|t| (t.name.clone(), p))
            .collect()
    }

    #[test]
    fn model_has_tile_and_placement_vars() {
        let dag = small_network();
        let net = build_network_model(&dag, 1 << 20);
        assert_eq!(net.tile_vars.len(), dag.ranges().len());
        assert_eq!(net.place_vars.len(), 1); // T
        assert_eq!(net.model.constraints().len(), dag.nodes().len());
    }

    #[test]
    fn placement_choices_change_the_objective() {
        let dag = small_network();
        let net = build_network_model(&dag, 1 << 30);
        let (_, pv) = net.place_vars[0];
        let mut point = net.model.lower_corner();
        for (_, v) in &net.tile_vars {
            point[v.as_usize()] = 4;
        }
        let mut objs = Vec::new();
        for choice in 0..3 {
            point[pv.as_usize()] = choice;
            objs.push(net.model.objective_at(&point));
        }
        // in-memory avoids all T traffic; spill adds write+read streams
        assert!(objs[0] < objs[1], "memory {} vs spill {}", objs[0], objs[1]);
        // all three are distinct finite costs
        assert!(objs.iter().all(|o| o.is_finite() && *o > 0.0));
        assert!(objs[1] != objs[2]);
    }

    #[test]
    fn in_memory_placement_costs_memory() {
        let dag = small_network();
        let net = build_network_model(&dag, 1 << 30);
        let (tid, pv) = net.place_vars[0];
        let full = dag.tensor(tid).num_elements(dag.ranges()) as f64 * ELEMENT_BYTES as f64;
        let mut point = net.model.lower_corner();
        point[pv.as_usize()] = 0; // in memory
        let mem_in = net
            .mem_exprs
            .iter()
            .map(|e| e.eval(&point))
            .fold(0.0, f64::max);
        point[pv.as_usize()] = 1; // spill
        let mem_spill = net
            .mem_exprs
            .iter()
            .map(|e| e.eval(&point))
            .fold(0.0, f64::max);
        assert!(
            mem_in >= mem_spill + full - 1e-6,
            "in-memory {mem_in} vs spill {mem_spill} (full {full})"
        );
    }

    #[test]
    fn sparsity_scales_io() {
        let sparse = small_network(); // A has nnz 0.1 csr
        let mut src = tce_ir::network::to_network_dsl(&sparse);
        src = src.replace(" nnz 0.1 format csr", "");
        let dense = tce_ir::network::parse_network(&src).unwrap();
        let ns = build_network_model(&sparse, 1 << 30);
        let nd = build_network_model(&dense, 1 << 30);
        let point = ns.model.lower_corner();
        let io_s = ns.io_expr.eval(&point);
        let io_d = nd.io_expr.eval(&point);
        assert!(io_s < io_d, "sparse io {io_s} not below dense io {io_d}");
    }

    #[test]
    fn synthesize_small_network_is_feasible_and_verified() {
        let dag = small_network();
        let config = SynthesisConfig::test_scale(64 * 1024).seed(7);
        let r = synthesize_network(&dag, &config).expect("synthesis");
        assert!(r.io_bytes > 0.0);
        assert!(r.memory_bytes <= 64.0 * 1024.0 + 1e-6);
        assert!(r.solver_evals > 0);
        let gen = seeded_network_inputs(&dag, 11);
        let err = verify_network_plan(&dag, &r.plan, &gen, 1e-6).expect("verify");
        assert!(err < 1e-6);
    }

    #[test]
    fn every_forced_placement_matches_the_oracle() {
        // the key differential: tiles that do not divide the extents, on a
        // multi-consumer DAG, under each of the three placements
        for dag in [small_network(), diamond_network()] {
            let gen = seeded_network_inputs(&dag, 3);
            for p in [
                NetworkPlacement::InMemory,
                NetworkPlacement::Spill,
                NetworkPlacement::Recompute,
            ] {
                let mut tiles = TileAssignment::new();
                for (k, (i, n)) in dag.ranges().iter().enumerate() {
                    tiles.set(i.clone(), (3 + 2 * k as u64).min(n));
                }
                let plan = NetworkPlan {
                    tiles,
                    placements: all_placements(&dag, p),
                };
                let err = verify_network_plan(&dag, &plan, &gen, 1e-6)
                    .unwrap_or_else(|e| panic!("placement {p}: {e}"));
                assert!(err < 1e-6, "placement {p}: err {err}");
            }
        }
    }

    #[test]
    fn seeded_inputs_honor_nnz() {
        let dag = small_network();
        let gen = seeded_network_inputs(&dag, 5);
        let a = dag.tensor(dag.find("A").unwrap());
        let n = a.num_elements(dag.ranges());
        let nonzero = (0..n).filter(|&k| gen("A", k) != 0.0).count();
        let frac = nonzero as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.05, "A nnz 0.1 but observed {frac}");
        // dense input B is fully populated
        let b = dag.tensor(dag.find("B").unwrap());
        let nb = b.num_elements(dag.ranges());
        assert!((0..nb).all(|k| gen("B", k) != 0.0));
        // deterministic
        assert_eq!(gen("A", 17), gen("A", 17));
    }

    #[test]
    fn generated_networks_synthesize_and_verify() {
        for seed in 0..4u64 {
            let dag = gen_network(&NetworkGenConfig {
                seed,
                nodes: 2 + (seed as usize % 3),
                min_extent: 6,
                max_extent: 14,
                ..NetworkGenConfig::default()
            });
            let config = SynthesisConfig::test_scale(32 * 1024)
                .seed(seed)
                .budget(60_000);
            let r =
                synthesize_network(&dag, &config).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let gen = seeded_network_inputs(&dag, seed ^ 0xABCD);
            let err = verify_network_plan(&dag, &r.plan, &gen, 1e-6)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(err < 1e-6, "seed {seed}: err {err}");
        }
    }

    #[test]
    fn network_plan_serde_roundtrip() {
        let dag = small_network();
        let config = SynthesisConfig::test_scale(48 * 1024);
        let r = synthesize_network(&dag, &config).expect("synthesis");
        let v = serde::Serialize::to_value(&r.plan);
        let back = <NetworkPlan as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, r.plan);
    }

    #[test]
    fn infeasible_limit_is_reported() {
        let dag = small_network();
        let config = SynthesisConfig::test_scale(8); // nothing fits in 8 bytes
        assert!(matches!(
            synthesize_network(&dag, &config),
            Err(SynthesisError::Infeasible)
        ));
    }
}
