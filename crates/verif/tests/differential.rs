//! Differential tests for the symmetry-reduced checker.
//!
//! Symmetry reduction is sound only if the canonicalized exploration
//! reaches exactly the same verdicts as brute-force exploration. These
//! tests pin that property on configurations small enough to exhaust
//! both ways, and prove the checker catches seeded protocol bugs and the
//! §VI-A design-rule ablations.

use c3_verif::resilient::{check_resilient, Injection, RViolation, ResilientConfig};

fn cfg(clusters: usize, addrs: usize) -> ResilientConfig {
    ResilientConfig {
        clusters,
        addrs,
        ..ResilientConfig::default()
    }
}

/// The fault-free §VI-A model: one private cache under each cluster copy.
fn rules(clusters: usize, ops_per_cluster: u8) -> ResilientConfig {
    ResilientConfig {
        ops_per_cluster,
        private_caches: 1,
        max_faults: 0,
        max_retries: 0,
        ..cfg(clusters, 1)
    }
}

#[test]
fn symmetry_on_and_off_agree_on_two_cluster_verdicts() {
    for base in [cfg(2, 1), cfg(2, 2), rules(2, 3)] {
        let (clusters, addrs) = (base.clusters, base.addrs);
        let reduced = check_resilient(&base);
        let full = check_resilient(&ResilientConfig {
            symmetry: false,
            ..base.clone()
        });

        // Same verdict: both clean (the protocol has no bug to disagree
        // about), neither truncated.
        assert!(reduced.violation.is_none(), "{clusters}x{addrs} reduced");
        assert!(full.violation.is_none(), "{clusters}x{addrs} full");
        assert!(!reduced.truncated && !full.truncated);

        // Exact state accounting: the orbit-sum of the reduced run must
        // equal the brute-force reachable-state count, and the reduced
        // representative count can never exceed it.
        assert_eq!(
            reduced.unreduced_states, full.unreduced_states,
            "{clusters}x{addrs}: orbit sum diverges from brute force"
        );
        assert_eq!(
            full.canonical_states as u128, full.unreduced_states,
            "{clusters}x{addrs}: unreduced run must count itself exactly"
        );
        assert!(
            reduced.canonical_states <= full.canonical_states,
            "{clusters}x{addrs}: reduction enlarged the state space"
        );
        assert!(
            reduced.reduction_factor > 1.0,
            "{clusters}x{addrs}: no reduction achieved"
        );
    }
}

#[test]
fn symmetry_preserves_witness_vocabulary() {
    // The table-conformance witnesses must not depend on whether
    // exploration is canonicalized — both runs exercise the same
    // (controller, state, event) set.
    let reduced = check_resilient(&cfg(2, 1));
    let full = check_resilient(&ResilientConfig {
        symmetry: false,
        ..cfg(2, 1)
    });
    assert_eq!(reduced.witnesses, full.witnesses);
}

#[test]
fn design_rules_hold_with_private_caches_with_and_without_symmetry() {
    for (clusters, ops) in [(2, 2), (2, 3), (3, 2)] {
        for symmetry in [true, false] {
            let r = check_resilient(&ResilientConfig {
                symmetry,
                ..rules(clusters, ops)
            });
            let tag = format!("{clusters}x1 ops={ops} symmetry={symmetry}");
            assert!(r.violation.is_none(), "{tag}: {:?}", r.violation);
            assert!(!r.truncated, "{tag}: truncated");
            assert!(r.canonical_states > 100, "{tag}: suspiciously small space");
        }
    }
}

#[test]
fn every_seeded_bug_is_caught_with_and_without_symmetry() {
    // The two recovery bugs need a fault to show; the two §VI-A
    // ablations (Rule II, Fig. 4; snoop ordering, Fig. 2) show without
    // one, and Rule II needs a private copy filled before the snoop.
    let seeded = |inj, clusters| match inj {
        Injection::LostGrantLivelock | Injection::PoisonLaunder => cfg(clusters, 1),
        Injection::EarlySnoopAnswer | Injection::IgnoreSnoopOrder => rules(clusters, 2),
    };
    for inj in Injection::ALL {
        for clusters in [2, 3] {
            for symmetry in [true, false] {
                let r = check_resilient(&ResilientConfig {
                    inject: Some(inj),
                    symmetry,
                    ..seeded(inj, clusters)
                });
                let tag = format!("{} on {clusters}x1 symmetry={symmetry}", inj.name());
                let (v, cex) = r
                    .violation
                    .as_ref()
                    .unwrap_or_else(|| panic!("{tag}: not caught"));
                let class_ok = match inj {
                    Injection::LostGrantLivelock => matches!(v, RViolation::Deadlock(_)),
                    Injection::PoisonLaunder => matches!(v, RViolation::Poison(_)),
                    Injection::EarlySnoopAnswer => matches!(v, RViolation::Inclusion(_)),
                    Injection::IgnoreSnoopOrder => matches!(v, RViolation::Swmr(_)),
                };
                assert!(class_ok, "{tag}: caught as {v}");
                assert!(!cex.steps.is_empty());
                assert!(cex.trace.contains("INVARIANT VIOLATED"));
            }
        }
    }
}

#[test]
fn counterexample_replay_is_byte_stable() {
    // The determinism lint keeps wall-clock and unordered iteration out
    // of `c3-verif`; this pins the end result — two independent runs
    // render byte-identical counterexamples.
    let mk = || {
        check_resilient(&ResilientConfig {
            inject: Some(Injection::LostGrantLivelock),
            ..cfg(2, 1)
        })
    };
    let (a, b) = (mk(), mk());
    let (va, ca) = a.violation.as_ref().expect("violation");
    let (vb, cb) = b.violation.as_ref().expect("violation");
    assert_eq!(format!("{va}"), format!("{vb}"));
    assert_eq!(ca.steps, cb.steps);
    assert_eq!(ca.trace, cb.trace);
}
