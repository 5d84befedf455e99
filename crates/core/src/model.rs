//! DCS input construction (Sec. 4.2): lowering the synthesis space into a
//! nonlinear constrained model.

use tce_cost::{CostExpr, Factor, TileAssignment};
use tce_disksim::DiskProfile;
use tce_ir::{Index, RangeMap};
use tce_solver::{ConstraintOp, Domain, Expr, Model, VarId};
use tce_tile::{IntermediateChoice, Placement, PlacementSelection, SynthesisSpace, UseRole};

/// What the solver minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Total disk traffic in bytes — the paper's objective (Sec. 4.2).
    /// Relies on the minimum-block constraints to keep transfers in the
    /// transfer-dominated regime.
    Volume,
    /// Predicted disk *seconds*: traffic over the profile's bandwidths
    /// plus a seek charge per I/O operation. Subsumes the block-size
    /// heuristic — the seek term itself pushes the solver toward large
    /// blocks — at the price of a less portable, profile-specific model.
    Time,
}

impl ObjectiveKind {
    /// The objective's command-line and wire name (`"volume"`, `"time"`).
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::Volume => "volume",
            ObjectiveKind::Time => "time",
        }
    }
}

impl std::str::FromStr for ObjectiveKind {
    type Err = String;

    /// Parses an [`ObjectiveKind::name`].
    fn from_str(s: &str) -> Result<Self, String> {
        [ObjectiveKind::Volume, ObjectiveKind::Time]
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown objective `{s}`"))
    }
}

/// The per-placement cost expression under the chosen objective.
fn placement_cost(
    p: &Placement,
    role: UseRole,
    kind: ObjectiveKind,
    profile: &DiskProfile,
) -> CostExpr {
    match kind {
        ObjectiveKind::Volume => p.total_io(),
        ObjectiveKind::Time => {
            let (primary_bw, other_bw) = match role {
                UseRole::Read => (profile.read_bw, profile.write_bw),
                UseRole::Write => (profile.write_bw, profile.read_bw),
            };
            let mut t = p.volume.scale(1.0 / primary_bw);
            t = t.add(&p.execs.scale(profile.seek_s));
            match role {
                UseRole::Read => {}
                UseRole::Write => {
                    // pre-read is read traffic; zero-fill is write traffic
                    t = t.add(&p.pre_read_volume.scale(1.0 / other_bw));
                    t = t.add(&p.pre_read_execs.scale(profile.seek_s));
                    t = t.add(&p.zero_fill_volume.scale(1.0 / primary_bw));
                    t = t.add(&p.zero_fill_execs.scale(profile.seek_s));
                }
            }
            t
        }
    }
}

/// The lowered model plus the bookkeeping needed to decode solver points
/// back into tile sizes and placements.
#[derive(Clone, Debug)]
pub struct DcsModel {
    /// The solver model (minimize disk I/O subject to memory/block/λ
    /// constraints).
    pub model: Model,
    /// Tile variable per index, in `RangeMap` order.
    pub tile_vars: Vec<(Index, VarId)>,
    /// Selector variable per read set (`None` when only one candidate).
    pub read_vars: Vec<Option<VarId>>,
    /// Selector variable per write set.
    pub write_vars: Vec<Option<VarId>>,
    /// Selector variable per intermediate, plus its decoded option list.
    pub inter_vars: Vec<(Option<VarId>, Vec<IntermediateChoice>)>,
}

/// Converts a symbolic cost expression into a solver expression over the
/// tile variables. Shared with the contraction-network model builder
/// ([`crate::network`]).
pub(crate) fn lower_cost(
    e: &CostExpr,
    ranges: &RangeMap,
    tile_var: &dyn Fn(&Index) -> VarId,
) -> Expr {
    let terms: Vec<Expr> = e
        .terms
        .iter()
        .map(|t| {
            let mut factors = vec![Expr::Const(t.coeff)];
            for f in &t.factors {
                factors.push(match f {
                    Factor::Extent(i) => Expr::Const(ranges.extent(i) as f64),
                    Factor::Tile(i) => Expr::Var(tile_var(i)),
                    Factor::NumTiles(i) => Expr::CeilDiv(
                        Box::new(Expr::Const(ranges.extent(i) as f64)),
                        Box::new(Expr::Var(tile_var(i))),
                    ),
                });
            }
            Expr::mul(factors)
        })
        .collect();
    Expr::add(terms)
}

/// Builds the DCS model for a synthesis space.
///
/// * objective — total disk I/O bytes (λ-selected),
/// * `mem_limit` — Σ selected buffer bytes ≤ limit,
/// * block-size constraints — each disk-resident buffer at least
///   `min_read_block` / `min_write_block` bytes (skipped when
///   `enforce_min_blocks` is false, e.g. at test scale).
pub fn build_model(
    space: &SynthesisSpace,
    ranges: &RangeMap,
    min_read_block: u64,
    min_write_block: u64,
    enforce_min_blocks: bool,
) -> DcsModel {
    build_model_with(
        space,
        ranges,
        min_read_block,
        min_write_block,
        enforce_min_blocks,
        ObjectiveKind::Volume,
        &DiskProfile::itanium2_osc(),
    )
}

/// [`build_model`] with an explicit objective (volume or predicted time).
pub fn build_model_with(
    space: &SynthesisSpace,
    ranges: &RangeMap,
    min_read_block: u64,
    min_write_block: u64,
    enforce_min_blocks: bool,
    objective: ObjectiveKind,
    profile: &DiskProfile,
) -> DcsModel {
    let mut model = Model::new();

    // tile variables, one per declared index
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
    let tv = |i: &Index| -> VarId {
        tile_vars
            .iter()
            .find(|(k, _)| k == i)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no tile variable for index `{i}`"))
    };

    let mut io_terms: Vec<Expr> = Vec::new();
    let mut mem_terms: Vec<Expr> = Vec::new();
    let mut block_constraints: Vec<(String, Expr)> = Vec::new();

    // helper: selector over candidate expressions
    let mut selectors = SelectorBuilder { model: &mut model };

    // a block can never be required to exceed the whole array: arrays
    // smaller than the minimum block are simply moved in one operation.
    // The full size is reconstructed from the buffer's index list.
    let capped = |shape: &tce_cost::BufferShape, min_block: u64| -> f64 {
        let full: f64 = shape
            .dims()
            .iter()
            .map(|(i, _)| ranges.extent(i) as f64)
            .product::<f64>()
            * tce_ir::ELEMENT_BYTES as f64;
        (min_block as f64).min(full)
    };

    let mut read_vars = Vec::new();
    for (k, set) in space.reads.iter().enumerate() {
        let ios: Vec<Expr> = set
            .candidates
            .iter()
            .map(|c| {
                lower_cost(
                    &placement_cost(c, UseRole::Read, objective, profile),
                    ranges,
                    &tv,
                )
            })
            .collect();
        let mems: Vec<Expr> = set
            .candidates
            .iter()
            .map(|c| lower_cost(&c.memory(), ranges, &tv))
            .collect();
        let need = capped(&set.candidates[0].buffer, min_read_block);
        let blocks: Vec<Expr> = set
            .candidates
            .iter()
            .map(|c| {
                Expr::Sub(
                    Box::new(Expr::Const(need)),
                    Box::new(lower_cost(&c.memory(), ranges, &tv)),
                )
            })
            .collect();
        let var = selectors.add(format!("p_read_{k}"), set.candidates.len());
        io_terms.push(select_or_single(var, ios));
        mem_terms.push(select_or_single(var, mems));
        block_constraints.push((format!("block_read_{k}"), select_or_single(var, blocks)));
        read_vars.push(var);
    }

    let mut write_vars = Vec::new();
    for (k, set) in space.writes.iter().enumerate() {
        let ios: Vec<Expr> = set
            .candidates
            .iter()
            .map(|c| {
                lower_cost(
                    &placement_cost(c, UseRole::Write, objective, profile),
                    ranges,
                    &tv,
                )
            })
            .collect();
        let mems: Vec<Expr> = set
            .candidates
            .iter()
            .map(|c| lower_cost(&c.memory(), ranges, &tv))
            .collect();
        let need = capped(&set.candidates[0].buffer, min_write_block);
        let blocks: Vec<Expr> = set
            .candidates
            .iter()
            .map(|c| {
                Expr::Sub(
                    Box::new(Expr::Const(need)),
                    Box::new(lower_cost(&c.memory(), ranges, &tv)),
                )
            })
            .collect();
        let var = selectors.add(format!("p_write_{k}"), set.candidates.len());
        io_terms.push(select_or_single(var, ios));
        mem_terms.push(select_or_single(var, mems));
        block_constraints.push((format!("block_write_{k}"), select_or_single(var, blocks)));
        write_vars.push(var);
    }

    let mut inter_vars = Vec::new();
    for (k, opt) in space.intermediates.iter().enumerate() {
        // option list: in-memory first, then every write×read combo
        let mut choices = vec![IntermediateChoice::InMemory];
        let mut ios = vec![Expr::Const(0.0)];
        let mut mems = vec![lower_cost(&opt.in_memory.bytes_expr(), ranges, &tv)];
        let mut blocks_w = vec![Expr::Const(-1.0)];
        let mut blocks_r = vec![Expr::Const(-1.0)];
        for (wi, w) in opt.write.candidates.iter().enumerate() {
            for (ri, r) in opt.read.candidates.iter().enumerate() {
                choices.push(IntermediateChoice::OnDisk {
                    write: wi,
                    read: ri,
                });
                ios.push(Expr::add(vec![
                    lower_cost(
                        &placement_cost(w, UseRole::Write, objective, profile),
                        ranges,
                        &tv,
                    ),
                    lower_cost(
                        &placement_cost(r, UseRole::Read, objective, profile),
                        ranges,
                        &tv,
                    ),
                ]));
                mems.push(Expr::add(vec![
                    lower_cost(&w.memory(), ranges, &tv),
                    lower_cost(&r.memory(), ranges, &tv),
                ]));
                blocks_w.push(Expr::Sub(
                    Box::new(Expr::Const(capped(&opt.in_memory, min_write_block))),
                    Box::new(lower_cost(&w.memory(), ranges, &tv)),
                ));
                blocks_r.push(Expr::Sub(
                    Box::new(Expr::Const(capped(&opt.in_memory, min_read_block))),
                    Box::new(lower_cost(&r.memory(), ranges, &tv)),
                ));
            }
        }
        let var = selectors.add(format!("p_inter_{k}"), choices.len());
        io_terms.push(select_or_single(var, ios));
        mem_terms.push(select_or_single(var, mems));
        block_constraints.push((
            format!("block_inter_w_{k}"),
            select_or_single(var, blocks_w),
        ));
        block_constraints.push((
            format!("block_inter_r_{k}"),
            select_or_single(var, blocks_r),
        ));
        inter_vars.push((var, choices));
    }

    model.objective = Expr::add(io_terms);
    model.add_constraint(
        "mem_limit",
        Expr::add(mem_terms),
        ConstraintOp::Le,
        space.mem_limit as f64,
    );
    if enforce_min_blocks {
        for (name, expr) in block_constraints {
            model.add_constraint(name, expr, ConstraintOp::Le, 0.0);
        }
    }

    DcsModel {
        model,
        tile_vars,
        read_vars,
        write_vars,
        inter_vars,
    }
}

struct SelectorBuilder<'m> {
    model: &'m mut Model,
}

impl SelectorBuilder<'_> {
    /// A selector variable over `n` options; `None` when the choice is
    /// forced (n ≤ 1).
    fn add(&mut self, name: String, n: usize) -> Option<VarId> {
        if n <= 1 {
            None
        } else {
            Some(self.model.add_var(
                name,
                Domain::Int {
                    lo: 0,
                    hi: (n - 1) as i64,
                },
            ))
        }
    }
}

fn select_or_single(var: Option<VarId>, mut options: Vec<Expr>) -> Expr {
    match var {
        Some(v) => Expr::Select(v, options),
        None => options.pop().unwrap_or(Expr::Const(0.0)),
    }
}

/// Decodes a solver point into tile sizes and a placement selection.
pub fn decode_point(dcs: &DcsModel, point: &[i64]) -> (TileAssignment, PlacementSelection) {
    let tiles: TileAssignment = dcs
        .tile_vars
        .iter()
        .map(|(i, v)| (i.clone(), point[v.as_usize()].max(1) as u64))
        .collect();
    let pick = |v: &Option<VarId>| -> usize {
        v.map(|v| point[v.as_usize()].max(0) as usize).unwrap_or(0)
    };
    let sel = PlacementSelection {
        reads: dcs.read_vars.iter().map(&pick).collect(),
        writes: dcs.write_vars.iter().map(&pick).collect(),
        intermediates: dcs
            .inter_vars
            .iter()
            .map(|(v, choices)| {
                let k = pick(v).min(choices.len().saturating_sub(1));
                choices[k]
            })
            .collect(),
    };
    (tiles, sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::fixtures::two_index_fused;
    use tce_tile::{enumerate_placements, tile_program};

    fn setup() -> (DcsModel, SynthesisSpace, RangeMap) {
        let p = two_index_fused(400, 350);
        let tiled = tile_program(&p);
        let space = enumerate_placements(&tiled, 1 << 20).expect("space");
        let ranges = p.ranges().clone();
        let dcs = build_model(&space, &ranges, 0, 0, false);
        (dcs, space, ranges)
    }

    #[test]
    fn model_has_tiles_and_selectors() {
        let (dcs, space, _) = setup();
        assert_eq!(dcs.tile_vars.len(), 4); // i, j, m, n
        assert_eq!(dcs.read_vars.len(), space.reads.len());
        assert_eq!(dcs.write_vars.len(), space.writes.len());
        assert_eq!(dcs.inter_vars.len(), 1);
        // each read set with ≥2 candidates gets a selector
        for (set, var) in space.reads.iter().zip(&dcs.read_vars) {
            assert_eq!(var.is_some(), set.candidates.len() > 1);
        }
    }

    #[test]
    fn objective_matches_symbolic_costs() {
        let (dcs, space, ranges) = setup();
        // evaluate both the solver objective and the symbolic total at the
        // lower corner (tiles = 1, all selectors 0)
        let point = dcs.model.lower_corner();
        let (tiles, sel) = decode_point(&dcs, &point);
        let solver_obj = dcs.model.objective_at(&point);
        let symbolic = space.total_io(&sel).eval(&ranges, &tiles);
        assert!(
            (solver_obj - symbolic).abs() <= 1e-6 * symbolic.max(1.0),
            "solver {solver_obj} vs symbolic {symbolic}"
        );
    }

    #[test]
    fn memory_constraint_matches_symbolic_memory() {
        let (dcs, space, ranges) = setup();
        let mut point = dcs.model.lower_corner();
        // bump some tiles
        for (_, v) in &dcs.tile_vars {
            point[v.as_usize()] = 17;
        }
        let (tiles, sel) = decode_point(&dcs, &point);
        let mem_expr = &dcs.model.constraints()[0];
        let solver_mem = mem_expr.expr.eval(&point);
        let symbolic = space.total_memory(&sel).eval(&ranges, &tiles);
        assert!(
            (solver_mem - symbolic).abs() <= 1e-6 * symbolic.max(1.0),
            "solver {solver_mem} vs symbolic {symbolic}"
        );
    }

    #[test]
    fn decode_respects_selector_values() {
        let (dcs, space, _) = setup();
        let mut point = dcs.model.lower_corner();
        // pick the last candidate everywhere a selector exists
        for (set, var) in space.reads.iter().zip(&dcs.read_vars) {
            if let Some(v) = var {
                point[v.as_usize()] = (set.candidates.len() - 1) as i64;
            }
        }
        let (_, sel) = decode_point(&dcs, &point);
        for (set, &k) in space.reads.iter().zip(&sel.reads) {
            assert_eq!(k, set.candidates.len() - 1);
        }
    }

    #[test]
    fn intermediate_options_enumerate_combos() {
        let (dcs, space, _) = setup();
        let (var, choices) = &dcs.inter_vars[0];
        let expect = 1 + space.intermediates[0].write.candidates.len()
            * space.intermediates[0].read.candidates.len();
        assert_eq!(choices.len(), expect);
        assert_eq!(var.is_some(), expect > 1);
        assert_eq!(choices[0], IntermediateChoice::InMemory);
    }

    #[test]
    fn time_objective_scales_with_the_profile() {
        let p = two_index_fused(400, 350);
        let tiled = tile_program(&p);
        let space = enumerate_placements(&tiled, 1 << 20).expect("space");
        let profile = DiskProfile::unconstrained_test();
        let vol = build_model_with(
            &space,
            p.ranges(),
            0,
            0,
            false,
            ObjectiveKind::Volume,
            &profile,
        );
        let time = build_model_with(
            &space,
            p.ranges(),
            0,
            0,
            false,
            ObjectiveKind::Time,
            &profile,
        );
        let point = vol.model.lower_corner();
        let bytes = vol.model.objective_at(&point);
        let secs = time.model.objective_at(&point);
        // same point: seconds ≈ bytes / bandwidth + ops · seek, so the
        // time objective must sit between pure-transfer and
        // transfer+generous-seek bounds
        let min_bw = profile.read_bw.min(profile.write_bw);
        let max_bw = profile.read_bw.max(profile.write_bw);
        assert!(secs >= bytes / max_bw, "secs {secs} bytes {bytes}");
        // ops at tile size 1 are plentiful; just check seek term exists
        assert!(secs > bytes / min_bw * 0.99 || secs > bytes / max_bw);
        assert!(secs.is_finite() && secs > 0.0);
    }

    #[test]
    fn block_constraints_added_when_enforced() {
        let p = two_index_fused(400, 350);
        let tiled = tile_program(&p);
        let space = enumerate_placements(&tiled, 1 << 20).expect("space");
        let without = build_model(&space, p.ranges(), 1024, 512, false);
        let with = build_model(&space, p.ranges(), 1024, 512, true);
        assert!(with.model.constraints().len() > without.model.constraints().len());
    }
}
