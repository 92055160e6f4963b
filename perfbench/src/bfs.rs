//! Benchmark-side BFS over the resilient model, timing each public
//! function `c3_verif::resilient::check_resilient` is built from.
//!
//! The loop follows `check_resilient` step for step (same successor
//! order, same canonical encodings, same visited-set fingerprints), so
//! its canonical, unreduced and edge counts must equal the checker's;
//! `traced_modelcheck` fails the unit when they do not. Counterexample
//! construction is left out: the benchmark's configurations are clean.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use c3_verif::frontier::{fingerprint, SpillQueue, VisitedSet, NO_PARENT};
use c3_verif::resilient::{successors, RState, ResilientConfig, SuccCtx};
use c3_verif::SymmetryGroup;

use crate::probe::ProbeCost;

/// Calls and host nanoseconds of one timed function.
#[derive(Clone, Copy, Default, Debug)]
pub struct Timer {
    /// Calls.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub ns: u64,
}

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Add `other` into `self`.
    pub fn merge(&mut self, other: &Timer) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    /// The calibrated cost of timing one call.
    pub fn cost() -> ProbeCost {
        ProbeCost::calibrate(|n| {
            let mut t = Timer::default();
            for _ in 0..n {
                t.time(|| black_box(()));
            }
            t.ns
        })
    }
}

/// Result of one traced exploration.
#[derive(Clone, Copy, Default, Debug)]
pub struct BfsProfile {
    /// Whether an invariant was violated (or a deadlock found).
    pub violation: bool,
    /// Whether `max_states` cut the exploration short.
    pub truncated: bool,
    /// Canonical states in the visited set.
    pub canonical: u64,
    /// Σ orbit sizes: the unreduced state count.
    pub unreduced: u128,
    /// Transitions examined.
    pub edges: u64,
    /// `successors` (one call per expanded state).
    pub successors: Timer,
    /// `SymmetryGroup::canonical`.
    pub canonical_fn: Timer,
    /// `fingerprint` + `VisitedSet::insert`.
    pub visited: Timer,
    /// `RState::decode` of popped and newly found states.
    pub decode: Timer,
    /// `RState::check` (and `done` on dead ends).
    pub check: Timer,
    /// `SpillQueue::push` and `pop`.
    pub frontier: Timer,
}

impl BfsProfile {
    /// Add the timers of `other` into `self` (counts are per run and
    /// not summed).
    pub fn merge_timers(&mut self, other: &BfsProfile) {
        self.successors.merge(&other.successors);
        self.canonical_fn.merge(&other.canonical_fn);
        self.visited.merge(&other.visited);
        self.decode.merge(&other.decode);
        self.check.merge(&other.check);
        self.frontier.merge(&other.frontier);
    }

    /// The behaviour tuple compared against `check_resilient`.
    pub fn counts(&self) -> (bool, u64, u128, u64) {
        (self.violation, self.canonical, self.unreduced, self.edges)
    }
}

/// The symmetry group `check_resilient` uses for `cfg`.
pub(crate) fn group_for(cfg: &ResilientConfig) -> SymmetryGroup {
    if cfg.symmetry {
        SymmetryGroup::new(cfg.clusters, cfg.addrs)
    } else {
        SymmetryGroup::identity(cfg.clusters, cfg.addrs)
    }
}

fn record(id: u32, canon: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + canon.len());
    rec.extend_from_slice(&id.to_le_bytes());
    rec.extend_from_slice(canon);
    rec
}

/// Explore `cfg` breadth-first, timing each layer of the checker.
pub fn explore(cfg: &ResilientConfig) -> BfsProfile {
    let mut p = BfsProfile::default();
    let mut group = group_for(cfg);
    let mut visited = VisitedSet::new();
    let mut frontier = SpillQueue::new(cfg.spill_path.clone(), cfg.spill_mem_cap);
    let mut ctx = SuccCtx {
        labels: None,
        witnesses: Some(BTreeSet::new()),
    };
    let mut canon = Vec::new();
    let mut succs: Vec<RState> = Vec::new();

    let init = RState::initial(cfg);
    p.unreduced += group.canonical(&init, &mut canon) as u128;
    let init_id = visited
        .insert(fingerprint(&canon), NO_PARENT, 0)
        .expect("fresh visited set");
    if init.check(cfg).is_some() {
        p.violation = true;
    } else {
        let rec = record(init_id, &canon);
        p.frontier.time(|| frontier.push(&rec));
    }

    'bfs: while !p.violation && !p.truncated {
        let Some(rec) = p.frontier.time(|| frontier.pop()) else {
            break;
        };
        let id = u32::from_le_bytes(rec[..4].try_into().expect("4-byte id"));
        let s = p
            .decode
            .time(|| RState::decode(&rec[4..], cfg.clusters, cfg.addrs));
        p.successors
            .time(|| successors(&s, cfg, &mut succs, &mut ctx));
        if succs.is_empty() {
            if !p.check.time(|| s.done(cfg)) {
                p.violation = true;
            }
            continue;
        }
        for (i, succ) in succs.iter().enumerate() {
            p.edges += 1;
            let orbit = p.canonical_fn.time(|| group.canonical(succ, &mut canon));
            let fresh = p
                .visited
                .time(|| visited.insert(fingerprint(&canon), id, i as u16));
            let Some(tid) = fresh else { continue };
            p.unreduced += orbit as u128;
            let t = p
                .decode
                .time(|| RState::decode(&canon, cfg.clusters, cfg.addrs));
            if p.check.time(|| t.check(cfg)).is_some() {
                p.violation = true;
                break 'bfs;
            }
            if visited.len() >= cfg.max_states {
                p.truncated = true;
                break 'bfs;
            }
            let rec = record(tid, &canon);
            p.frontier.time(|| frontier.push(&rec));
        }
    }
    p.canonical = visited.len() as u64;
    p
}
