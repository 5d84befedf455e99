//! Pinned fault histories: every layer that injects seeded faults — the
//! simulated disks, the cache's filesystem operations, the daemon's
//! sockets — draws from one generic schedule, and for a fixed seed its
//! history must never drift, or every seeded chaos and property test
//! silently stops replaying what it used to.
//!
//! Each row runs the first 10 000 decisions of one schedule for two
//! seeds × two ranks, encodes each decision as a byte, and compares the
//! FNV-1a hashes with pinned values. Probabilistic rows also require
//! their four histories to differ: seeds and rank streams decorrelate.

use std::collections::HashSet;
use tce_cache::{FsFaultKind, FsFaultPlan};
use tce_disksim::{
    DiskError, DiskFaultKind, DiskFaults, DiskProfile, FaultKind, FaultPlan, Schedule, SimDisk,
};
use tce_serve::{NetFaultKind, NetFaultPlan};

const OPS: usize = 10_000;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives a real [`SimDisk`] so the spike draw is covered too: a clean
/// op is 0, a transient fault 1, a permanent one 2, a spiked op 3.
fn disk_history(spec: &DiskFaults, seed: u64, rank: usize) -> u64 {
    let plan = FaultPlan::none()
        .with_seed(seed)
        .with_disk(rank, spec.clone());
    let d = SimDisk::new(DiskProfile {
        seek_s: 0.01,
        read_bw: 800.0,
        write_bw: 400.0,
        min_read_block: 0,
        min_write_block: 0,
    });
    d.set_faults(plan.disk(rank), rank);
    fnv((0..OPS).map(|_| {
        let before = d.stats().fault_time_s;
        match d.charge_read("A", 1) {
            Ok(()) if d.stats().fault_time_s > before => 3,
            Ok(()) => 0,
            Err(DiskError::Injected { permanent, .. }) => 1 + u8::from(permanent),
        }
    }))
}

/// No fault is 0; a fault is 1 + the kind's position in `K::ALL`.
fn history<K: FaultKind>(schedule: &Schedule<K>, rank: usize) -> u64 {
    let inj = schedule.injector(rank).expect("active schedule");
    fnv((0..OPS).map(|_| match inj.decide() {
        None => 0,
        Some(k) => 1 + K::ALL.iter().position(|&a| a == k).unwrap() as u8,
    }))
}

fn check(name: &str, got: [u64; 4], want: [u64; 4], probabilistic: bool) {
    assert_eq!(got, want, "{name}: fault history drifted");
    if probabilistic {
        let distinct: HashSet<_> = got.iter().collect();
        assert_eq!(distinct.len(), 4, "{name}: seeds/ranks must decorrelate");
    }
}

#[test]
fn disk_fault_histories_are_pinned() {
    use DiskFaultKind::{Permanent, Transient};
    let disk = |schedule, p_spike, spike_s| DiskFaults {
        schedule,
        p_spike,
        spike_s,
    };
    let none = Schedule::none;
    #[rustfmt::skip]
    let rows: [(&str, DiskFaults, [u64; 4]); 5] = [
        ("transient burst", disk(none().fail_after(20, Transient, 3), 0.0, 0.0),
         [0x6d9c3b39598ae736; 4]),
        ("permanent latch", disk(none().fail_after(50, Permanent, 1), 0.0, 0.0),
         [0xbd6efe52db879fed; 4]),
        ("p + spike", disk(none().probabilistic(0.05, Transient), 0.1, 0.5),
         [0x196f91d03f69e7ad, 0xea42190551c1723e, 0x4750f3a76c42352e, 0xad4e3d709d70d5fd]),
        ("burst + p + spike",
         disk(none().fail_after(7, Transient, 4).probabilistic(0.02, Transient), 0.3, 0.25),
         [0xfaaae724aef6e7a1, 0x40636f72922bc97b, 0xeb906dd69a686d1e, 0xdbffba963cfaec1b]),
        ("permanent + p",
         disk(none().fail_after(400, Permanent, 1).probabilistic(0.01, Transient), 0.0, 0.0),
         [0x34e5fe3e32163dfd, 0x550e8007885b2265, 0xd4747ef7e9a2d795, 0x625cc1dfe96b5cf4]),
    ];
    for (name, spec, want) in rows {
        let got = [(1, 0), (1, 3), (42, 0), (42, 3)].map(|(s, r)| disk_history(&spec, s, r));
        let probabilistic = spec.schedule.p_fail > 0.0;
        check(&format!("disk {name}"), got, want, probabilistic);
    }
}

#[test]
fn filesystem_fault_histories_are_pinned() {
    #[rustfmt::skip]
    let want: [[u64; 4]; 4] = [
        [0x2adee8def9553912, 0x7a9d51d9eae87018, 0xc526ddf963f0a2d4, 0xdeadfd3442200620],
        [0xba8ec3719794219a, 0x2bf8f81f0fb4e9ab, 0xa2d39764b44f1349, 0xaf996947076ef02e],
        [0xcd4d1b1db2359040, 0xd65a81feb6596d8c, 0x6f94253182b46484, 0x65c05062267ce40c],
        [0x10f36733ed513cba, 0x6e8180dcb5f59306, 0x6d41d86edb60587c, 0x13121de47ad7221d],
    ];
    let kinds = FsFaultKind::ALL;
    for (i, (&kind, want)) in kinds.iter().zip(want).enumerate() {
        let got = [(1, 0), (1, 1), (42, 0), (42, 1)].map(|(seed, rank)| {
            let plan = FsFaultPlan::none()
                .with_seed(seed)
                .fail_after(3 * i as u64, kind, i as u64 + 1)
                .probabilistic(0.02 * (i + 1) as f64, kinds[(i + 1) % 4]);
            history(&plan, rank)
        });
        check(&format!("fs {}", kind.tag()), got, want, true);
    }
}

#[test]
fn network_fault_histories_are_pinned() {
    #[rustfmt::skip]
    let want: [[u64; 4]; 4] = [
        [0xeebc4bfb86b320bf, 0x40dc7e964ef847a7, 0xa372dd2c7dfd271f, 0xc2f4ffd346ed503f],
        [0xf6991a032896e96d, 0x6a31511c05b7ac0a, 0x0f78168e4077102a, 0x9a73281b46fa2dea],
        [0x20ebfb87d65352db, 0xdec98bd4600bba61, 0x221331d39101f859, 0x3365acd17589ef3b],
        [0x163ebf1940a7f7ca, 0x5a8854756530a636, 0xd212656ca3d9119d, 0x4b7c1d260c3ea2d7],
    ];
    let kinds = NetFaultKind::ALL;
    for (i, (&kind, want)) in kinds.iter().zip(want).enumerate() {
        let got = [(7, 0), (7, 1), (2004, 0), (2004, 1)].map(|(seed, rank)| {
            let schedule = Schedule::none()
                .with_seed(seed)
                .fail_after(2 * i as u64 + 1, kind, i as u64 + 2)
                .probabilistic(0.01 * (i + 2) as f64, kinds[(i + 3) % 4]);
            history(&schedule, rank)
        });
        check(&format!("net {}", kind.tag()), got, want, true);
    }
    // a parsed spec replays the same stream
    let plan = NetFaultPlan::parse("seed=7,p=0.05,kind=stall,stall_ms=40").unwrap();
    assert_eq!(history(&plan.schedule, 0), 0x615cd854a9d9b5bc);
}
