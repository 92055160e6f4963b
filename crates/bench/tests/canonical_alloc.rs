//! Symmetry canonicalization runs once per explored edge, so it must not
//! touch the allocator: after the group's buffers have grown to fit,
//! `SymmetryGroup::canonical` allocates nothing.

use c3_bench::alloc::{alloc_count, CountingAlloc};
use c3_verif::resilient::{successors, RState, ResilientConfig, SuccCtx};
use c3_verif::SymmetryGroup;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn canonical_allocates_nothing_after_warm_up() {
    let cfg = ResilientConfig {
        clusters: 3,
        addrs: 2,
        ..ResilientConfig::default()
    };
    // A breadth-first batch of 3x2 states: channels, snoops and queues
    // filled in as the walk deepens.
    let mut states = vec![RState::initial(&cfg)];
    let mut succs = Vec::new();
    let mut i = 0;
    while states.len() < 2000 {
        successors(&states[i], &cfg, &mut succs, &mut SuccCtx::default());
        states.append(&mut succs);
        i += 1;
    }
    let mut group = SymmetryGroup::new(cfg.clusters, cfg.addrs);
    let mut out = Vec::new();
    let mut orbits = 0;
    for s in &states {
        orbits += group.canonical(s, &mut out);
    }
    let before = alloc_count();
    let mut again = 0;
    for s in &states {
        again += group.canonical(s, &mut out);
    }
    assert_eq!(alloc_count() - before, 0, "canonical allocated");
    assert_eq!(again, orbits);
    assert!(orbits > states.len(), "a batch of symmetric states only");
}
