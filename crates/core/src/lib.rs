//! End-to-end out-of-core code synthesis (the paper's contribution).
//!
//! Two synthesis pipelines over the same tiling/placement machinery:
//!
//! * [`synthesize_dcs`] — Sec. 4: encode placements (selector variables)
//!   and tile sizes (integer variables) into a nonlinear constrained
//!   model ([`model`]), solve it with the DCS-style solver
//!   (`tce-solver`), decode the optimum into a [`tce_codegen::ConcretePlan`].
//! * [`synthesize_uniform_sampling`] — the prior approach the paper
//!   compares against (Sec. 5): log-uniform sampling of the tile-size
//!   space, greedy I/O placement per sample, brute-force scan.
//!
//! [`predict`] computes the paper's *predicted* disk-access times from the
//! symbolic cost model and a [`tce_disksim::DiskProfile`] (Table 3's
//! "predicted" column); the measured column comes from executing the plan
//! with `tce-exec`.

#![warn(missing_docs)]

pub mod baseline;
pub mod dcs;
pub mod model;
pub mod network;
pub mod predict;

pub use baseline::{synthesize_uniform_sampling, BaselineOptions};
pub use dcs::{
    finish_dcs, prepare_dcs, synthesize_dcs, PreparedSynthesis, SynthesisConfig, SynthesisError,
    SynthesisResult, SPATIAL_MIN_TILE,
};
pub use model::{build_model, build_model_with, decode_point, DcsModel, ObjectiveKind};
pub use network::{
    build_network_model, finish_network, network_reference, prepare_network, run_network_plan,
    seeded_network_inputs, synthesize_network, verify_network_plan, NetworkModel, NetworkPlacement,
    NetworkPlan, NetworkSynthesis, PreparedNetwork,
};
pub use predict::{predict_io_time, PredictedTime};

/// Commonly used items, re-exported for the facade crate.
pub mod prelude {
    pub use crate::baseline::{synthesize_uniform_sampling, BaselineOptions};
    pub use crate::dcs::{synthesize_dcs, SynthesisConfig, SynthesisError, SynthesisResult};
    pub use crate::network::{
        synthesize_network, verify_network_plan, NetworkPlacement, NetworkPlan, NetworkSynthesis,
    };
    pub use crate::predict::{predict_io_time, PredictedTime};
    pub use tce_codegen::{generate_plan, print_placements, print_plan, ConcretePlan};
    pub use tce_cost::TileAssignment;
    pub use tce_disksim::{DiskProfile, IoStats};
    pub use tce_ir::{parse_program, print_code, print_tree, Program};
    pub use tce_solver::{
        solve, CancelToken, SolveOptions, SolveOutcome, SolverReport, Strategy, Termination,
    };
    pub use tce_tile::{
        enumerate_placements, tile_program, PlacementSelection, SynthesisSpace, TiledProgram,
    };
}
