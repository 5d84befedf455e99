//! A solve that ran into its wall-clock deadline is returned but not
//! cached: how far it got depends on machine speed, so it is not the
//! answer every later identical request should replay.

use std::time::Duration;
use tce_cache::{synthesize_dcs_cached, SynthesisCache};
use tce_core::SynthesisConfig;
use tce_ir::fixtures::four_index_fused;

const MEM_LIMIT: u64 = 2 << 30;

#[test]
fn a_solve_cut_by_its_deadline_is_not_cached() {
    let program = four_index_fused(140, 120);
    // one thread: restart 0 always runs and ends feasible (in
    // `LocalMinimum`, not `Deadline`), and the expired deadline stops
    // every later restart from being claimed
    let config = SynthesisConfig::new(MEM_LIMIT)
        .threads(1)
        .deadline(Duration::from_nanos(1));
    let cache = SynthesisCache::in_memory();
    let first = synthesize_dcs_cached(&program, &config, &cache).expect("feasible plan");
    assert!(!first.hit);
    assert_eq!(cache.resident(), 0, "a deadline-cut solve was stored");
    let again = synthesize_dcs_cached(&program, &config, &cache).expect("feasible plan");
    assert!(!again.hit, "a deadline-cut solve was replayed");
}

#[test]
fn a_solve_inside_its_deadline_is_cached() {
    let program = four_index_fused(140, 120);
    let config = SynthesisConfig::new(MEM_LIMIT)
        .threads(1)
        .deadline(Duration::from_secs(600));
    let cache = SynthesisCache::in_memory();
    let first = synthesize_dcs_cached(&program, &config, &cache).expect("feasible plan");
    assert!(!first.hit);
    assert_eq!(cache.resident(), 1);
    let again = synthesize_dcs_cached(&program, &config, &cache).expect("feasible plan");
    assert!(again.hit);
    assert_eq!(again.fingerprint, first.fingerprint);
}
