//! Exhaustive exploration of the C³ coherence protocol: the §VI-A design
//! rules (Rule I delegation, Rule II nesting, snoop/fetch ordering) and
//! the PR-2 resilience machinery (retries, duplicate suppression,
//! lost-grant replay, BISnp re-issue, sticky poison), modelled as
//! explicit nondeterministic transitions and checked against SWMR,
//! inclusion, data-value, deadlock-freedom and poison-stickiness
//! invariants.
//!
//! The model is *parameterized* — up to [`MAX_CLUSTERS`] host clusters
//! sharing up to [`MAX_ADDRS`] addresses behind one blocking DCOH, with
//! up to [`MAX_PRIVATE`] private caches under each cluster's copy — and
//! its device→host channel is **lossy**: a bounded fault budget lets the
//! explorer drop, duplicate, or poison-corrupt any in-flight device
//! message at any point ("Formalising CXL Cache Coherence" found
//! spec-level deadlocks in exactly this regime). Fault budget 0 is the
//! fault-free §VI-A model.
//!
//! ## Abstraction decisions (scope)
//!
//! * One operation budget per cluster. With no private caches a core
//!   works on the cluster copy directly; with private caches each of
//!   them is a core that fills or upgrades its private copy from the
//!   cluster copy (Rule I: no global fetch when the cluster can serve
//!   it), and a snoop is answered only after the private copies are
//!   reclaimed (Rule II). Private copies carry no data of their own:
//!   stores write their version through to the cluster copy, so the
//!   checked facts are the permissions (inclusion, SWMR).
//! * Host→device messages (requests, snoop responses) are reliable and
//!   FIFO; faults target the unordered device→host channel (data grants
//!   and back-invalidation snoops), where PR-2's recovery lives.
//! * Operations commit at fill time (MSHR retire), which bounds every
//!   sequence counter by the op budget and keeps the space finite.
//! * Retry and snoop re-issue transitions fire only when the awaited
//!   message was genuinely lost (the model-level abstraction of "the
//!   timeout exceeds the link latency"); spurious-duplicate paths are
//!   exercised separately by the duplication fault.
//! * In place of the Fig. 2 BIConflict handshake the model uses the
//!   sequence/epoch tags PR-2 attaches to transactions: a snoop carries
//!   the last grant sequence serialized before it (`after`), so a host
//!   can decide "snoop before or after my fetch" without guessing.
//! * The channels and the DCOH queue have fixed capacities; a transition
//!   that would overflow one is reported as [`RViolation::Bound`] (the
//!   run is then not exhaustive) rather than explored.
//!
//! Soundness of the symmetry reduction and the counterexample replay
//! scheme are documented in [`crate::symmetry`] and
//! [`crate::frontier`]; DESIGN.md §17 has the full argument.

use std::collections::BTreeSet;
use std::path::PathBuf;

use c3_sim::component::ComponentId;
use c3_sim::time::Time;
use c3_sim::trace::Tracer;

use crate::frontier::{fingerprint, SpillQueue, VisitedSet, NO_PARENT};
use crate::symmetry::{invert, Symmetric, SymmetryGroup};

/// Maximum clusters the fixed-size state supports.
pub const MAX_CLUSTERS: usize = 3;
/// Maximum addresses the fixed-size state supports.
pub const MAX_ADDRS: usize = 2;
/// Maximum private caches per cluster the fixed-size state supports.
pub const MAX_PRIVATE: usize = 2;
/// Device→host channel slots per cluster (sorted multiset).
const CHAN_CAP: usize = 8;
/// Host→device FIFO slots per cluster.
const M2S_CAP: usize = 4;
/// DCOH blocked-request queue slots per address.
const QCAP: usize = MAX_CLUSTERS;

/// Cache state of a cluster's copy (E folds into M).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum St {
    /// Invalid.
    #[default]
    I,
    /// Shared.
    S,
    /// Modified (writable; subsumes E).
    M,
}

/// Host→device message (reliable FIFO per cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum HostMsg {
    /// Read request: `(addr, exclusive, fetch sequence tag)`.
    Req {
        /// Address index.
        addr: u8,
        /// Ownership requested?
        excl: bool,
        /// Per-(cluster, addr) fetch sequence tag; retries reuse it.
        seq: u8,
    },
    /// Snoop response: `(addr, invalidated, dirty payload, epoch)`.
    Rsp {
        /// Address index.
        addr: u8,
        /// Responding to an invalidating snoop?
        inv: bool,
        /// Dirty writeback `(version, declared poison, ghost taint)`.
        dirty: Option<(u8, bool, bool)>,
        /// Epoch tag of the snoop being answered.
        epoch: u8,
    },
}

/// Device→host message (unordered, lossy).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DevMsg {
    /// Data grant.
    Data {
        /// Address index.
        addr: u8,
        /// Writable (M/E) grant?
        writable: bool,
        /// Version granted.
        ver: u8,
        /// Fetch sequence tag this grant answers.
        seq: u8,
        /// Declared (architectural) poison flag.
        decl: bool,
        /// Ghost taint bit maintained by the checker.
        taint: bool,
    },
    /// Back-invalidation snoop.
    Snp {
        /// Address index.
        addr: u8,
        /// Invalidating (`BISnpInv`) vs downgrading (`BISnpData`).
        inv: bool,
        /// Snoop instance epoch (per address, monotonic).
        epoch: u8,
        /// Last grant sequence serialized to the target before this
        /// snoop — lets the target order the snoop against its own
        /// outstanding fetch without a conflict handshake.
        after: u8,
    },
}

/// A cluster copy of one address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Copy {
    /// Cache state.
    pub st: St,
    /// Version held.
    pub ver: u8,
    /// Declared poison.
    pub decl: bool,
    /// Ghost taint (checker-maintained truth).
    pub taint: bool,
}

/// What a cluster is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Pend {
    /// Nothing outstanding.
    #[default]
    Idle,
    /// A fetch in flight.
    Fetch {
        /// Address being fetched.
        addr: u8,
        /// Store (ownership) fetch?
        excl: bool,
        /// Sequence tag of this fetch.
        seq: u8,
        /// Retries already spent on this fetch.
        retries: u8,
        /// Snoop deferred until the fill installs: `(inv, epoch)`.
        stash: Option<(bool, u8)>,
    },
}

/// Per-cluster state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ClusterSt {
    /// Remaining operation budget.
    pub budget: u8,
    /// Outstanding fetch.
    pub pend: Pend,
    /// Copy per address.
    pub copy: [Copy; MAX_ADDRS],
    /// Newest version observed per address (monotonic by construction).
    pub seen: [u8; MAX_ADDRS],
    /// Sequence of the last installed grant per address.
    pub inst_seq: [u8; MAX_ADDRS],
    /// Fetch sequence counter per address.
    pub fetch_ctr: [u8; MAX_ADDRS],
    /// Last snoop epoch accepted per address (duplicate suppression).
    pub snp_epoch: [u8; MAX_ADDRS],
    /// Private cache states per address (first `cfg.private_caches`
    /// entries active); their data is the cluster copy's.
    pub private: [[St; MAX_ADDRS]; MAX_PRIVATE],
}

/// An outstanding (blocking) snoop at the DCOH.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnoopSt {
    /// Invalidating?
    pub inv: bool,
    /// Target cluster.
    pub target: u8,
    /// Requester on whose behalf the snoop runs.
    pub requester: u8,
    /// Requester's fetch sequence (for the eventual grant).
    pub req_seq: u8,
    /// Epoch tag of this snoop instance.
    pub epoch: u8,
    /// Re-issues already spent on this snoop.
    pub resends: u8,
    /// `granted[target]` at issue time (serialization order hint).
    pub after: u8,
}

/// Per-address directory (DCOH) state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DirSt {
    /// Holder bitmap.
    pub holders: u8,
    /// Holder exclusivity.
    pub excl: bool,
    /// Device-memory version.
    pub mem_ver: u8,
    /// Device-memory declared poison.
    pub mem_decl: bool,
    /// Device-memory ghost taint.
    pub mem_taint: bool,
    /// Newest version ever written (ghost).
    pub max_ver: u8,
    /// Snoop epoch counter.
    pub epoch: u8,
    /// Last granted sequence per cluster (0 = never granted).
    pub granted: [u8; MAX_CLUSTERS],
    /// Outstanding blocking snoop.
    pub snoop: Option<SnoopSt>,
    /// Blocked requests `(cluster, excl, seq)`, FIFO.
    pub queue: [(u8, u8, u8); QCAP],
    /// Queue length.
    pub qlen: u8,
}

/// The whole model state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RState {
    /// Clusters (first `cfg.clusters` entries active).
    pub cl: [ClusterSt; MAX_CLUSTERS],
    /// Directories (first `cfg.addrs` entries active).
    pub dir: [DirSt; MAX_ADDRS],
    /// Host→device FIFO channels.
    pub m2s: [[Option<HostMsg>; M2S_CAP]; MAX_CLUSTERS],
    /// Device→host channels, kept as sorted multisets.
    pub s2m: [[Option<DevMsg>; CHAN_CAP]; MAX_CLUSTERS],
    /// Remaining fault budget.
    pub faults_left: u8,
    /// Transition-local defect latch (0 = clean); see `GHOST_*`.
    pub ghost_bug: u8,
}

/// `ghost_bug`: a shared grant delivered a version older than one the
/// cluster already observed.
pub const GHOST_STALE_SHARED: u8 = 1;
/// `ghost_bug`: an ownership grant delivered a version older than the
/// newest write (a store here would lose updates).
pub const GHOST_STALE_EXCL: u8 = 2;
/// `ghost_bug`: a message did not fit its fixed-size channel.
pub const GHOST_CHANNEL_FULL: u8 = 3;

/// Fault-injection selector: deliberately re-introduce a known bug class
/// (a PR-2 recovery bug or a §VI-A design-rule ablation) so CI can prove
/// the checker catches it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injection {
    /// Disable the DCOH's lost-grant replay: a dropped grant plus
    /// exhausted retries wedges the requester (the pre-PR-2 livelock,
    /// which this bounded model exhibits as a deadlock).
    LostGrantLivelock,
    /// Clear the declared-poison flag on outgoing grants while leaving
    /// the ghost taint: poison laundering, caught by the stickiness
    /// invariant.
    PoisonLaunder,
    /// Answer a snoop from the cluster copy before reclaiming the private
    /// copies beneath it: Rule II removed, the Fig. 4 race. Visible only
    /// with private caches.
    EarlySnoopAnswer,
    /// Ignore the snoop's `after` tag and answer at once even when the
    /// snoop was serialized after a grant still in flight: the Fig. 2
    /// race the BIConflict handshake resolves.
    IgnoreSnoopOrder,
}

impl Injection {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Injection> {
        match s {
            "lost-grant-livelock" => Some(Injection::LostGrantLivelock),
            "poison-launder" => Some(Injection::PoisonLaunder),
            "early-snoop-answer" => Some(Injection::EarlySnoopAnswer),
            "ignore-snoop-order" => Some(Injection::IgnoreSnoopOrder),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Injection::LostGrantLivelock => "lost-grant-livelock",
            Injection::PoisonLaunder => "poison-launder",
            Injection::EarlySnoopAnswer => "early-snoop-answer",
            Injection::IgnoreSnoopOrder => "ignore-snoop-order",
        }
    }

    /// Every known injection.
    pub const ALL: [Injection; 4] = [
        Injection::LostGrantLivelock,
        Injection::PoisonLaunder,
        Injection::EarlySnoopAnswer,
        Injection::IgnoreSnoopOrder,
    ];
}

/// Checker configuration.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Number of host clusters (1..=[`MAX_CLUSTERS`]).
    pub clusters: usize,
    /// Number of shared addresses (1..=[`MAX_ADDRS`]).
    pub addrs: usize,
    /// Operation budget per cluster.
    pub ops_per_cluster: u8,
    /// Private caches under each cluster copy (0..=[`MAX_PRIVATE`]); the
    /// same in every cluster, so clusters stay interchangeable.
    pub private_caches: usize,
    /// Total fault budget (drops + duplications + corruptions).
    pub max_faults: u8,
    /// Retry budget per fetch; must be ≥ `max_faults` or lost grants
    /// become unrecoverable and the deadlock check fires spuriously.
    pub max_retries: u8,
    /// Canonical-form symmetry reduction on/off.
    pub symmetry: bool,
    /// Exploration budget; exceeding it reports truncation.
    pub max_states: usize,
    /// Spill file for the frontier (None = in-memory only).
    pub spill_path: Option<PathBuf>,
    /// In-memory frontier records before spilling.
    pub spill_mem_cap: usize,
    /// Seeded bug injection.
    pub inject: Option<Injection>,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            clusters: 2,
            addrs: 1,
            ops_per_cluster: 1,
            private_caches: 0,
            max_faults: 1,
            max_retries: 1,
            symmetry: true,
            max_states: 50_000_000,
            spill_path: None,
            spill_mem_cap: 1 << 20,
            inject: None,
        }
    }
}

/// A violation of one of the checked invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RViolation {
    /// Two writable copies, or a writable copy alongside readers.
    Swmr(String),
    /// A private copy with more permission than its cluster copy.
    Inclusion(String),
    /// A grant delivered stale data, or a writable copy is not the
    /// newest version.
    Stale(String),
    /// A quiescent state retains an outdated copy.
    Divergence(String),
    /// Declared poison diverged from the ghost taint (poison was lost
    /// or laundered somewhere).
    Poison(String),
    /// A non-final state with no enabled transition.
    Deadlock(String),
    /// A transition overflowed one of the model's fixed-size channels;
    /// the budgets exceed what the model represents.
    Bound(String),
}

impl std::fmt::Display for RViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RViolation::Swmr(s) => write!(f, "SWMR violated: {s}"),
            RViolation::Inclusion(s) => write!(f, "inclusion violated: {s}"),
            RViolation::Stale(s) => write!(f, "stale data: {s}"),
            RViolation::Divergence(s) => write!(f, "divergence: {s}"),
            RViolation::Poison(s) => write!(f, "poison stickiness violated: {s}"),
            RViolation::Deadlock(s) => write!(f, "deadlock: {s}"),
            RViolation::Bound(s) => write!(f, "model bound exceeded, not exhaustive: {s}"),
        }
    }
}

/// A counterexample: the shortest concrete path to the violating state,
/// replayed through the [`Tracer`] for a readable post-mortem.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Human-readable step labels, `(component index, description)`;
    /// component indices are clusters `0..n`, then the DCOH, then the
    /// fault fabric.
    pub steps: Vec<(usize, String)>,
    /// The tracer's text rendering of the replay.
    pub trace: String,
}

/// Result of a resilient-model run.
#[derive(Debug)]
pub struct ResilientResult {
    /// Canonical (representative) states explored.
    pub canonical_states: usize,
    /// Transitions examined.
    pub edges: u64,
    /// Exact unreduced reachable-state count (Σ orbit sizes).
    pub unreduced_states: u128,
    /// `unreduced_states / canonical_states`.
    pub reduction_factor: f64,
    /// Symmetry group order used.
    pub group_order: usize,
    /// First violation found, with its counterexample.
    pub violation: Option<(RViolation, Counterexample)>,
    /// Whether exploration hit `max_states`.
    pub truncated: bool,
    /// Every `(controller, state, event)` the explorer exercised on the
    /// strict-protocol paths — cross-checked against the PR-5 tables by
    /// `static_checks::check_model_conformance`.
    pub witnesses: Vec<(&'static str, &'static str, &'static str)>,
    /// Frontier records spilled to disk.
    pub spilled: u64,
    /// Peak in-memory frontier length.
    pub peak_frontier: usize,
}

// ---------------------------------------------------------------------
// Channel helpers
// ---------------------------------------------------------------------

/// Append to cluster `ci`'s host→device FIFO; a full FIFO latches
/// [`GHOST_CHANNEL_FULL`] instead.
fn m2s_push(n: &mut RState, ci: usize, m: HostMsg) {
    match n.m2s[ci].iter_mut().find(|s| s.is_none()) {
        Some(slot) => *slot = Some(m),
        None => n.ghost_bug = GHOST_CHANNEL_FULL,
    }
}

fn m2s_pop(fifo: &mut [Option<HostMsg>; M2S_CAP]) -> Option<HostMsg> {
    let head = fifo[0].take()?;
    for i in 1..M2S_CAP {
        fifo[i - 1] = fifo[i].take();
    }
    Some(head)
}

/// Insert into cluster `ci`'s device→host channel, a sorted multiset
/// with `None`s at the tail; a full channel latches
/// [`GHOST_CHANNEL_FULL`] instead.
fn s2m_push(n: &mut RState, ci: usize, m: DevMsg) {
    let chan = &mut n.s2m[ci];
    let mut len = 0;
    while len < CHAN_CAP && chan[len].is_some() {
        len += 1;
    }
    if len == CHAN_CAP {
        n.ghost_bug = GHOST_CHANNEL_FULL;
        return;
    }
    let mut i = len;
    while i > 0 && chan[i - 1].map(|x| x > m) == Some(true) {
        chan[i] = chan[i - 1];
        i -= 1;
    }
    chan[i] = Some(m);
}

fn s2m_remove(chan: &mut [Option<DevMsg>; CHAN_CAP], idx: usize) -> DevMsg {
    let m = chan[idx].take().expect("remove from empty slot");
    for i in idx + 1..CHAN_CAP {
        chan[i - 1] = chan[i].take();
    }
    m
}

fn s2m_contains(chan: &[Option<DevMsg>; CHAN_CAP], pred: impl Fn(&DevMsg) -> bool) -> bool {
    chan.iter().flatten().any(pred)
}

// ---------------------------------------------------------------------
// State construction and predicates
// ---------------------------------------------------------------------

/// `(writable, readable)` counts of `copies` when they break
/// single-writer/multiple-reader.
fn swmr_broken(copies: impl Iterator<Item = St>) -> Option<(usize, usize)> {
    let (mut w, mut r) = (0, 0);
    for st in copies {
        w += (st == St::M) as usize;
        r += (st != St::I) as usize;
    }
    (w > 1 || (w == 1 && r > 1)).then_some((w, r))
}

impl RState {
    /// The initial state: all caches invalid, all budgets full, the
    /// full fault budget unspent. Identical per cluster and per address
    /// — the root of the symmetry argument.
    pub fn initial(cfg: &ResilientConfig) -> RState {
        assert!(cfg.clusters >= 1 && cfg.clusters <= MAX_CLUSTERS);
        assert!(cfg.addrs >= 1 && cfg.addrs <= MAX_ADDRS);
        assert!(
            cfg.max_retries >= cfg.max_faults,
            "max_retries must cover max_faults or lost grants deadlock"
        );
        assert!(cfg.private_caches <= MAX_PRIVATE);
        let mut s = RState {
            faults_left: cfg.max_faults,
            ..RState::default()
        };
        // Inactive clusters stay all-zero so the encode/decode pair
        // round-trips the full fixed-size arrays exactly.
        for c in &mut s.cl[..cfg.clusters] {
            c.budget = cfg.ops_per_cluster;
        }
        s
    }

    /// Final (quiescent) state: all work done, nothing in flight.
    pub fn done(&self, cfg: &ResilientConfig) -> bool {
        self.cl[..cfg.clusters]
            .iter()
            .all(|c| c.budget == 0 && c.pend == Pend::Idle)
            && self.dir[..cfg.addrs]
                .iter()
                .all(|d| d.snoop.is_none() && d.qlen == 0)
            && self.m2s[..cfg.clusters]
                .iter()
                .all(|f| f.iter().all(|m| m.is_none()))
            && self.s2m[..cfg.clusters]
                .iter()
                .all(|c| c.iter().all(|m| m.is_none()))
    }

    /// Invariants checked in every reachable state.
    pub fn check(&self, cfg: &ResilientConfig) -> Option<RViolation> {
        match self.ghost_bug {
            GHOST_STALE_SHARED => {
                return Some(RViolation::Stale(
                    "a shared grant delivered a version older than one \
                     already observed by the requester"
                        .into(),
                ))
            }
            GHOST_STALE_EXCL => {
                return Some(RViolation::Stale(
                    "an ownership grant delivered a version older than the \
                     newest write; a store would lose updates"
                        .into(),
                ))
            }
            GHOST_CHANNEL_FULL => {
                return Some(RViolation::Bound(
                    "a message did not fit its fixed-size channel; lower the \
                     retry or fault budget"
                        .into(),
                ))
            }
            _ => {}
        }
        let clusters = &self.cl[..cfg.clusters];
        for a in 0..cfg.addrs {
            if let Some((w, r)) = swmr_broken(clusters.iter().map(|c| c.copy[a].st)) {
                return Some(RViolation::Swmr(format!(
                    "addr {a}: {w} writable / {r} readable copies"
                )));
            }
            if cfg.private_caches > 0 {
                for (ci, c) in clusters.iter().enumerate() {
                    for (k, pc) in c.private[..cfg.private_caches].iter().enumerate() {
                        if pc[a] > c.copy[a].st {
                            return Some(RViolation::Inclusion(format!(
                                "addr {a}: cluster {ci} private cache {k} holds {:?} \
                                 over a cluster copy in {:?}",
                                pc[a], c.copy[a].st
                            )));
                        }
                    }
                }
                let privates = clusters
                    .iter()
                    .flat_map(|c| c.private[..cfg.private_caches].iter().map(move |pc| pc[a]));
                if let Some((w, r)) = swmr_broken(privates) {
                    return Some(RViolation::Swmr(format!(
                        "addr {a}: {w} writable / {r} readable private copies"
                    )));
                }
            }
            // A writable copy must hold the newest version.
            for (ci, c) in clusters.iter().enumerate() {
                if c.copy[a].st == St::M && c.copy[a].ver != self.dir[a].max_ver {
                    return Some(RViolation::Stale(format!(
                        "addr {a}: cluster {ci} writable at v{} but newest is v{}",
                        c.copy[a].ver, self.dir[a].max_ver
                    )));
                }
            }
            // Poison stickiness: declared == taint on every copy, the
            // memory image, and every in-flight data-carrying message.
            let d = &self.dir[a];
            if d.mem_decl != d.mem_taint {
                return Some(RViolation::Poison(format!(
                    "addr {a}: memory declared={} taint={}",
                    d.mem_decl, d.mem_taint
                )));
            }
            for (ci, c) in clusters.iter().enumerate() {
                if c.copy[a].st != St::I && c.copy[a].decl != c.copy[a].taint {
                    return Some(RViolation::Poison(format!(
                        "addr {a}: cluster {ci} copy declared={} taint={}",
                        c.copy[a].decl, c.copy[a].taint
                    )));
                }
            }
        }
        for ci in 0..cfg.clusters {
            for m in self.s2m[ci].iter().flatten() {
                if let DevMsg::Data {
                    addr, decl, taint, ..
                } = m
                {
                    if decl != taint {
                        return Some(RViolation::Poison(format!(
                            "in-flight grant for addr {addr} to cluster {ci}: \
                             declared={decl} taint={taint}"
                        )));
                    }
                }
            }
            for m in self.m2s[ci].iter().flatten() {
                if let HostMsg::Rsp {
                    addr,
                    dirty: Some((_, decl, taint)),
                    ..
                } = m
                {
                    if decl != taint {
                        return Some(RViolation::Poison(format!(
                            "in-flight writeback for addr {addr} from cluster {ci}: \
                             declared={decl} taint={taint}"
                        )));
                    }
                }
            }
        }
        if self.done(cfg) {
            for a in 0..cfg.addrs {
                let max = self.dir[a].max_ver;
                for (ci, c) in self.cl[..cfg.clusters].iter().enumerate() {
                    if c.copy[a].st != St::I && c.copy[a].ver != max {
                        return Some(RViolation::Divergence(format!(
                            "addr {a}: cluster {ci} quiescent copy v{} != newest v{max}",
                            c.copy[a].ver
                        )));
                    }
                }
                let any_m = self.cl[..cfg.clusters]
                    .iter()
                    .any(|c| c.copy[a].st == St::M);
                if !any_m && self.dir[a].mem_ver != max {
                    return Some(RViolation::Divergence(format!(
                        "addr {a}: memory v{} != newest v{max} with no dirty owner",
                        self.dir[a].mem_ver
                    )));
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Successor generation (the transition relation)
// ---------------------------------------------------------------------

/// Component indices used in counterexample traces.
fn comp_dcoh(cfg: &ResilientConfig) -> usize {
    cfg.clusters
}
fn comp_fabric(cfg: &ResilientConfig) -> usize {
    cfg.clusters + 1
}

/// Optional per-successor instrumentation: human labels for replay,
/// `(controller, state, event)` witnesses for table conformance.
#[derive(Default)]
pub struct SuccCtx {
    /// When present, receives one `(component, label)` per successor.
    pub labels: Option<Vec<(usize, String)>>,
    /// When present, receives strict-protocol step witnesses.
    pub witnesses: Option<BTreeSet<(&'static str, &'static str, &'static str)>>,
}

impl SuccCtx {
    fn label(&mut self, comp: usize, f: impl FnOnce() -> String) {
        if let Some(l) = self.labels.as_mut() {
            l.push((comp, f()));
        }
    }
    fn witness(&mut self, controller: &'static str, state: &'static str, event: &'static str) {
        if let Some(w) = self.witnesses.as_mut() {
            w.insert((controller, state, event));
        }
    }
}

/// The PR-5 table name for the DCOH's per-address state.
fn dcoh_state_name(d: &DirSt) -> &'static str {
    match d.snoop {
        Some(SnoopSt { inv: true, .. }) => "SnpInv",
        Some(SnoopSt { inv: false, .. }) => "SnpData",
        None if d.holders == 0 => "NoHolders",
        None if d.excl => "Exclusive",
        None => "Shared",
    }
}

/// The PR-5 bridge-table name for a cluster's per-address state.
fn bridge_state_name(c: &ClusterSt, a: usize) -> &'static str {
    if let Pend::Fetch { addr, excl, .. } = c.pend {
        if addr as usize == a {
            return if excl { "FetchX" } else { "FetchS" };
        }
    }
    match c.copy[a].st {
        St::I => "I",
        St::S => "S",
        St::M => "M",
    }
}

/// All successors of `s`, in a deterministic order. `ctx` optionally
/// collects labels (for counterexample replay) and table witnesses.
pub fn successors(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    out.clear();
    if let Some(l) = ctx.labels.as_mut() {
        l.clear();
    }
    core_steps(s, cfg, out, ctx);
    retry_steps(s, cfg, out, ctx);
    resend_steps(s, cfg, out, ctx);
    dcoh_steps(s, cfg, out, ctx);
    deliver_steps(s, cfg, out, ctx);
    fault_steps(s, cfg, out, ctx);
}

/// Core operations: a cluster with budget and no outstanding fetch may
/// load or store any address (ops commit at fill for misses). Without
/// private caches the core works on the cluster copy; with them, each
/// private cache is a core that the cluster copy serves locally when it
/// can (Rule I delegates upward only what the cluster cannot serve).
fn core_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        let c = &s.cl[ci];
        if c.budget == 0 || c.pend != Pend::Idle {
            continue;
        }
        for a in 0..cfg.addrs {
            let copy = c.copy[a];
            for k in 0..cfg.private_caches.max(1) {
                let core = || match cfg.private_caches {
                    0 => format!("cl{ci}"),
                    _ => format!("cl{ci}.{k}"),
                };
                let held = match cfg.private_caches {
                    0 => copy.st,
                    _ => c.private[k][a],
                };
                if held != St::I {
                    // Load hit.
                    let mut n = s.clone();
                    n.cl[ci].budget -= 1;
                    n.cl[ci].seen[a] = n.cl[ci].seen[a].max(copy.ver);
                    ctx.label(ci, || format!("{}: load hit a{a} v{}", core(), copy.ver));
                    out.push(n);
                } else if copy.st != St::I {
                    // Private fill from the cluster copy; a dirty sibling
                    // demotes to shared (intra-cluster Fwd-GetS).
                    let mut n = s.clone();
                    for pc in &mut n.cl[ci].private {
                        pc[a] = pc[a].min(St::S);
                    }
                    n.cl[ci].private[k][a] = St::S;
                    n.cl[ci].budget -= 1;
                    n.cl[ci].seen[a] = n.cl[ci].seen[a].max(copy.ver);
                    ctx.label(ci, || {
                        format!("{}: load fill a{a} v{} locally", core(), copy.ver)
                    });
                    out.push(n);
                } else if k == 0 {
                    // A miss is the cluster's, whichever core took it.
                    fetch(s, ci, a, false, out, ctx);
                }
                if held == St::M || (cfg.private_caches > 0 && copy.st == St::M) {
                    // Store hit, or a private upgrade the cluster's
                    // ownership covers (local sharers invalidated).
                    let mut n = s.clone();
                    if cfg.private_caches > 0 {
                        for pc in &mut n.cl[ci].private {
                            pc[a] = St::I;
                        }
                        n.cl[ci].private[k][a] = St::M;
                    }
                    commit_store(&mut n, ci, a);
                    ctx.label(ci, || {
                        format!("{}: store hit a{a} -> v{}", core(), n.dir[a].max_ver)
                    });
                    out.push(n);
                } else if k == 0 {
                    fetch(s, ci, a, true, out, ctx);
                }
            }
        }
    }
}

/// Rule I: delegate a miss upward as a fetch of `a` (ownership when
/// `excl`).
fn fetch(s: &RState, ci: usize, a: usize, excl: bool, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    let mut n = s.clone();
    let seq = n.cl[ci].fetch_ctr[a] + 1;
    n.cl[ci].fetch_ctr[a] = seq;
    n.cl[ci].pend = Pend::Fetch {
        addr: a as u8,
        excl,
        seq,
        retries: 0,
        stash: None,
    };
    let addr = a as u8;
    m2s_push(&mut n, ci, HostMsg::Req { addr, excl, seq });
    ctx.label(ci, || match excl {
        false => format!("cl{ci}: load miss a{a}, RdS seq{seq}"),
        true => format!("cl{ci}: store miss a{a}, RdA seq{seq}"),
    });
    out.push(n);
}

/// Commit a store to cluster `ci`'s copy of `a`: a new version, poison
/// cleared (full-line write of fresh data).
fn commit_store(n: &mut RState, ci: usize, a: usize) {
    n.dir[a].max_ver += 1;
    let v = n.dir[a].max_ver;
    let c = &mut n.cl[ci];
    c.budget -= 1;
    c.copy[a].ver = v;
    c.copy[a].decl = false;
    c.copy[a].taint = false;
    c.seen[a] = v;
}

/// Deadline/backoff retry: re-send the request of a pending fetch whose
/// grant was issued and lost (no copy left in flight).
fn retry_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        let Pend::Fetch {
            addr,
            excl,
            seq,
            retries,
            stash,
        } = s.cl[ci].pend
        else {
            continue;
        };
        let a = addr as usize;
        if retries >= cfg.max_retries {
            continue;
        }
        // The grant must have been serialized (so a grant existed) and
        // no copy of it may remain in flight: the timeout abstraction.
        if s.dir[a].granted[ci] < seq {
            continue;
        }
        if s2m_contains(
            &s.s2m[ci],
            |m| matches!(m, DevMsg::Data { addr: ma, seq: ms, .. } if *ma == addr && *ms == seq),
        ) {
            continue;
        }
        let mut n = s.clone();
        n.cl[ci].pend = Pend::Fetch {
            addr,
            excl,
            seq,
            retries: retries + 1,
            stash,
        };
        m2s_push(&mut n, ci, HostMsg::Req { addr, excl, seq });
        ctx.label(ci, || {
            format!(
                "cl{ci}: retry {} a{a} seq{seq} (attempt {})",
                if excl { "RdA" } else { "RdS" },
                retries + 1
            )
        });
        out.push(n);
    }
}

/// BISnp re-issue: re-send an outstanding snoop that was lost before
/// the target accepted it.
fn resend_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for a in 0..cfg.addrs {
        let Some(sn) = s.dir[a].snoop else { continue };
        if sn.resends >= cfg.max_faults {
            continue;
        }
        let t = sn.target as usize;
        // Lost means: the target has not accepted this epoch and no
        // copy is still in flight.
        if s.cl[t].snp_epoch[a] >= sn.epoch {
            continue;
        }
        if s2m_contains(
            &s.s2m[t],
            |m| matches!(m, DevMsg::Snp { addr: ma, epoch: me, .. } if *ma as usize == a && *me == sn.epoch),
        ) {
            continue;
        }
        let mut n = s.clone();
        let mut nsn = sn;
        nsn.resends += 1;
        n.dir[a].snoop = Some(nsn);
        s2m_push(
            &mut n,
            t,
            DevMsg::Snp {
                addr: a as u8,
                inv: sn.inv,
                epoch: sn.epoch,
                after: sn.after,
            },
        );
        ctx.label(comp_dcoh(cfg), || {
            format!(
                "dcoh: re-issue {} a{a} to cl{t} (epoch {}, resend {})",
                if sn.inv { "BISnpInv" } else { "BISnpData" },
                sn.epoch,
                sn.resends + 1
            )
        });
        out.push(n);
    }
}

/// Send a grant to `ci` and record it in the directory.
fn grant(n: &mut RState, a: usize, ci: usize, writable: bool, seq: u8, cfg: &ResilientConfig) {
    if writable {
        n.dir[a].holders = 1 << ci;
        n.dir[a].excl = true;
    } else {
        n.dir[a].holders |= 1 << ci;
        n.dir[a].excl = false;
    }
    n.dir[a].granted[ci] = seq;
    send_data(n, a, ci, writable, seq, cfg);
}

/// Send cluster `ci` a data grant of `a` from device memory.
fn send_data(n: &mut RState, a: usize, ci: usize, writable: bool, seq: u8, cfg: &ResilientConfig) {
    let d = &n.dir[a];
    let launder = cfg.inject == Some(Injection::PoisonLaunder);
    let msg = DevMsg::Data {
        addr: a as u8,
        writable,
        ver: d.mem_ver,
        seq,
        decl: d.mem_decl && !launder,
        taint: d.mem_taint,
    };
    s2m_push(n, ci, msg);
}

/// Open a blocking snoop transaction against `target`.
fn issue_snoop(n: &mut RState, a: usize, inv: bool, target: usize, requester: usize, req_seq: u8) {
    n.dir[a].epoch += 1;
    let epoch = n.dir[a].epoch;
    let after = n.dir[a].granted[target];
    n.dir[a].snoop = Some(SnoopSt {
        inv,
        target: target as u8,
        requester: requester as u8,
        req_seq,
        epoch,
        resends: 0,
        after,
    });
    s2m_push(
        n,
        target,
        DevMsg::Snp {
            addr: a as u8,
            inv,
            epoch,
            after,
        },
    );
}

/// Admit a request at an unblocked line: grant directly or open the
/// snoop transaction that clears the way.
fn admit(n: &mut RState, a: usize, ci: usize, excl: bool, seq: u8, cfg: &ResilientConfig) {
    debug_assert!(n.dir[a].snoop.is_none());
    let others = n.dir[a].holders & !(1 << ci);
    if excl {
        if others == 0 {
            grant(n, a, ci, true, seq, cfg);
        } else {
            let target = others.trailing_zeros() as usize;
            issue_snoop(n, a, true, target, ci, seq);
        }
    } else if n.dir[a].excl && others != 0 {
        let owner = others.trailing_zeros() as usize;
        issue_snoop(n, a, false, owner, ci, seq);
    } else {
        // Shared grant; sole holder gets the writable (E) optimization.
        let writable = n.dir[a].holders | (1 << ci) == 1 << ci;
        grant(n, a, ci, writable, seq, cfg);
    }
}

/// Re-admit blocked requests until the line blocks again or the queue
/// empties.
fn drain_queue(n: &mut RState, a: usize, cfg: &ResilientConfig) {
    while n.dir[a].snoop.is_none() && n.dir[a].qlen > 0 {
        let (qc, qe, qs) = n.dir[a].queue[0];
        for i in 1..QCAP {
            n.dir[a].queue[i - 1] = n.dir[a].queue[i];
        }
        n.dir[a].queue[QCAP - 1] = (0, 0, 0);
        n.dir[a].qlen -= 1;
        admit(n, a, qc as usize, qe == 1, qs, cfg);
    }
}

/// DCOH actions: consume the head of each host→device FIFO.
fn dcoh_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        let Some(head) = s.m2s[ci][0] else { continue };
        let mut n = s.clone();
        m2s_pop(&mut n.m2s[ci]);
        match head {
            HostMsg::Req { addr, excl, seq } => {
                let a = addr as usize;
                let ev = if excl { "MemRdA" } else { "MemRdS" };
                if seq <= s.dir[a].granted[ci] {
                    // Duplicate of an already-serialized request: the
                    // recorded holder lost its grant (or retried
                    // spuriously). PR-2's lost-grant replay re-sends the
                    // grant instead of snooping the requester itself.
                    if cfg.inject == Some(Injection::LostGrantLivelock) {
                        ctx.label(comp_dcoh(cfg), || {
                            format!("dcoh: IGNORE dup {ev} a{a} cl{ci} seq{seq} (replay disabled)")
                        });
                        out.push(n);
                        continue;
                    }
                    ctx.witness("dcoh", dcoh_state_name(&s.dir[a]), ev);
                    debug_assert!(n.dir[a].holders & (1 << ci) != 0);
                    let writable = n.dir[a].holders == 1 << ci && n.dir[a].excl;
                    let granted = n.dir[a].granted[ci];
                    send_data(&mut n, a, ci, writable, granted, cfg);
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: replay grant a{a} to cl{ci} seq{seq}")
                    });
                    out.push(n);
                    continue;
                }
                let queued = (0..s.dir[a].qlen as usize).any(|i| s.dir[a].queue[i].0 == ci as u8);
                let snooping_for_us = s.dir[a].snoop.is_some_and(|sn| sn.requester as usize == ci);
                if queued || snooping_for_us {
                    // Duplicate of a request already in service.
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: suppress dup {ev} a{a} cl{ci} seq{seq}")
                    });
                    out.push(n);
                    continue;
                }
                ctx.witness("dcoh", dcoh_state_name(&s.dir[a]), ev);
                if s.dir[a].snoop.is_some() {
                    // Line blocked: convoy the request.
                    let qi = n.dir[a].qlen as usize;
                    assert!(qi < QCAP, "DCOH queue overflow");
                    n.dir[a].queue[qi] = (ci as u8, excl as u8, seq);
                    n.dir[a].qlen += 1;
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: queue {ev} a{a} cl{ci} seq{seq} (line blocked)")
                    });
                } else {
                    admit(&mut n, a, ci, excl, seq, cfg);
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: admit {ev} a{a} cl{ci} seq{seq}")
                    });
                }
                out.push(n);
            }
            HostMsg::Rsp {
                addr,
                inv,
                dirty,
                epoch,
            } => {
                let a = addr as usize;
                let ev = if inv { "BiRspI" } else { "BiRspS" };
                // Writeback data is real regardless of epoch staleness.
                if let Some((ver, decl, taint)) = dirty {
                    if ver >= n.dir[a].mem_ver {
                        n.dir[a].mem_ver = ver;
                        n.dir[a].mem_decl = decl;
                        n.dir[a].mem_taint = taint;
                    }
                }
                let matches_snoop = s.dir[a]
                    .snoop
                    .is_some_and(|sn| sn.epoch == epoch && sn.target as usize == ci);
                if !matches_snoop {
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: stale {ev} a{a} from cl{ci} (epoch {epoch})")
                    });
                    out.push(n);
                    continue;
                }
                ctx.witness("dcoh", dcoh_state_name(&s.dir[a]), ev);
                let sn = s.dir[a].snoop.unwrap();
                n.dir[a].snoop = None;
                let req = sn.requester as usize;
                if sn.inv {
                    n.dir[a].holders &= !(1 << ci);
                    n.dir[a].excl = false;
                    let remaining = n.dir[a].holders & !(1 << req);
                    if remaining != 0 {
                        // More holders to invalidate before granting.
                        let target = remaining.trailing_zeros() as usize;
                        issue_snoop(&mut n, a, true, target, req, sn.req_seq);
                    } else {
                        grant(&mut n, a, req, true, sn.req_seq, cfg);
                        drain_queue(&mut n, a, cfg);
                    }
                } else {
                    // Downgrade: the old owner keeps a shared copy.
                    n.dir[a].excl = false;
                    grant(&mut n, a, req, false, sn.req_seq, cfg);
                    drain_queue(&mut n, a, cfg);
                }
                ctx.label(comp_dcoh(cfg), || {
                    format!("dcoh: {ev} a{a} from cl{ci}, resolve snoop epoch {epoch}")
                });
                out.push(n);
            }
        }
    }
}

/// Deliver any device→host message (unordered channel: each pending
/// message is its own successor).
fn deliver_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        for slot in 0..CHAN_CAP {
            let Some(msg) = s.s2m[ci][slot] else { continue };
            // Identical duplicates are adjacent in the sorted multiset;
            // delivering either yields the same successor.
            if slot > 0 && s.s2m[ci][slot - 1] == Some(msg) {
                continue;
            }
            let mut n = s.clone();
            s2m_remove(&mut n.s2m[ci], slot);
            host_receive(&mut n, s, ci, msg, cfg, ctx);
            out.push(n);
        }
    }
}

/// Host reaction to a delivered device message. `pre` is the state the
/// message was delivered in (for witness naming).
fn host_receive(
    n: &mut RState,
    pre: &RState,
    ci: usize,
    msg: DevMsg,
    cfg: &ResilientConfig,
    ctx: &mut SuccCtx,
) {
    match msg {
        DevMsg::Data {
            addr,
            writable,
            ver,
            seq,
            decl,
            taint,
        } => {
            let a = addr as usize;
            let current = matches!(
                n.cl[ci].pend,
                Pend::Fetch { addr: pa, seq: ps, .. } if pa == addr && ps == seq
            );
            if !current {
                // Stale or duplicate grant: suppressed by the seq tag.
                ctx.label(ci, || format!("cl{ci}: suppress stale grant a{a} seq{seq}"));
                return;
            }
            ctx.witness("bridge", bridge_state_name(&pre.cl[ci], a), "MemData");
            let Pend::Fetch { excl, stash, .. } = n.cl[ci].pend else {
                unreachable!()
            };
            debug_assert!(!excl || writable, "ownership fetch got a read-only grant");
            // Install.
            n.cl[ci].copy[a] = Copy {
                st: if writable { St::M } else { St::S },
                ver,
                decl,
                taint,
            };
            n.cl[ci].inst_seq[a] = seq;
            // Commit the operation that opened the fetch (MSHR retire).
            if excl {
                if ver != n.dir[a].max_ver {
                    n.ghost_bug = GHOST_STALE_EXCL;
                }
                // The store lands in the cluster copy; private copies of
                // the old data go.
                for pc in &mut n.cl[ci].private {
                    pc[a] = St::I;
                }
                commit_store(n, ci, a);
            } else {
                if ver < n.cl[ci].seen[a] {
                    n.ghost_bug = GHOST_STALE_SHARED;
                }
                n.cl[ci].seen[a] = n.cl[ci].seen[a].max(ver);
                n.cl[ci].budget -= 1;
            }
            n.cl[ci].pend = Pend::Idle;
            ctx.label(ci, || {
                format!(
                    "cl{ci}: install a{a} {} v{} seq{seq}, commit {}",
                    if writable { "M" } else { "S" },
                    n.cl[ci].copy[a].ver,
                    if excl { "store" } else { "load" }
                )
            });
            // A snoop serialized after our grant was deferred until now.
            if let Some((inv, epoch)) = stash {
                respond_snoop(n, ci, a, inv, epoch, cfg);
            }
        }
        DevMsg::Snp {
            addr,
            inv,
            epoch,
            after,
        } => {
            let a = addr as usize;
            if epoch <= n.cl[ci].snp_epoch[a] {
                // Duplicate / re-issued snoop already accepted.
                ctx.label(ci, || {
                    format!("cl{ci}: suppress dup snoop a{a} epoch {epoch}")
                });
                return;
            }
            n.cl[ci].snp_epoch[a] = epoch;
            let ev = if inv { "BiSnpInv" } else { "BiSnpData" };
            ctx.witness("bridge", bridge_state_name(&pre.cl[ci], a), ev);
            let fetching_here = matches!(
                n.cl[ci].pend,
                Pend::Fetch { addr: pa, .. } if pa == addr
            );
            let ignore_order = cfg.inject == Some(Injection::IgnoreSnoopOrder);
            if fetching_here && n.cl[ci].inst_seq[a] < after && !ignore_order {
                // The snoop was serialized after a grant we have not
                // installed yet: defer it until the fill (the seq-tag
                // resolution of the Fig. 2 race).
                let Pend::Fetch {
                    addr: pa,
                    excl,
                    seq,
                    retries,
                    stash,
                } = n.cl[ci].pend
                else {
                    unreachable!()
                };
                debug_assert!(stash.is_none(), "second snoop while one is stashed");
                n.cl[ci].pend = Pend::Fetch {
                    addr: pa,
                    excl,
                    seq,
                    retries,
                    stash: Some((inv, epoch)),
                };
                ctx.label(ci, || {
                    format!("cl{ci}: stash {ev} a{a} epoch {epoch} until fill (after seq{after})")
                });
            } else {
                debug_assert!(
                    n.cl[ci].inst_seq[a] >= after || ignore_order,
                    "snoop after an uninstalled grant with no fetch pending"
                );
                respond_snoop(n, ci, a, inv, epoch, cfg);
                ctx.label(ci, || format!("cl{ci}: answer {ev} a{a} epoch {epoch}"));
            }
        }
    }
}

/// Answer a snoop from the current copy; dirty data is written back.
/// Rule II: the private copies are reclaimed first.
fn respond_snoop(n: &mut RState, ci: usize, a: usize, inv: bool, epoch: u8, cfg: &ResilientConfig) {
    let keep = if inv { St::I } else { St::S };
    if cfg.inject != Some(Injection::EarlySnoopAnswer) {
        for pc in &mut n.cl[ci].private {
            pc[a] = pc[a].min(keep);
        }
    }
    let c = n.cl[ci].copy[a];
    let dirty = (c.st == St::M).then_some((c.ver, c.decl, c.taint));
    n.cl[ci].copy[a].st = c.st.min(keep);
    m2s_push(
        n,
        ci,
        HostMsg::Rsp {
            addr: a as u8,
            inv,
            dirty,
            epoch,
        },
    );
}

/// Nondeterministic link faults on the device→host channel, bounded by
/// the fault budget: drop, duplicate, or poison-corrupt one message.
fn fault_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    if s.faults_left == 0 {
        return;
    }
    for ci in 0..cfg.clusters {
        for slot in 0..CHAN_CAP {
            let Some(msg) = s.s2m[ci][slot] else { continue };
            if slot > 0 && s.s2m[ci][slot - 1] == Some(msg) {
                continue; // identical duplicates: same successors
            }
            // Drop.
            let mut n = s.clone();
            s2m_remove(&mut n.s2m[ci], slot);
            n.faults_left -= 1;
            ctx.label(comp_fabric(cfg), || {
                format!("fault: drop {msg:?} -> cl{ci}")
            });
            out.push(n);
            // Duplicate (if the channel has room).
            let slots_used = s.s2m[ci].iter().flatten().count();
            if slots_used < CHAN_CAP {
                let mut n = s.clone();
                s2m_push(&mut n, ci, msg);
                n.faults_left -= 1;
                ctx.label(comp_fabric(cfg), || format!("fault: dup {msg:?} -> cl{ci}"));
                out.push(n);
            }
            // Poison-corrupt a clean data grant (detected link error).
            if let DevMsg::Data {
                addr,
                writable,
                ver,
                seq,
                decl: false,
                taint: _,
            } = msg
            {
                let mut n = s.clone();
                s2m_remove(&mut n.s2m[ci], slot);
                s2m_push(
                    &mut n,
                    ci,
                    DevMsg::Data {
                        addr,
                        writable,
                        ver,
                        seq,
                        decl: true,
                        taint: true,
                    },
                );
                n.faults_left -= 1;
                ctx.label(comp_fabric(cfg), || {
                    format!("fault: poison grant a{addr} seq{seq} -> cl{ci}")
                });
                out.push(n);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serialization and symmetry
// ---------------------------------------------------------------------

fn encode_pend(p: &Pend, aperm: &[u8], out: &mut Vec<u8>) {
    match *p {
        Pend::Idle => out.extend_from_slice(&[0; 8]),
        Pend::Fetch {
            addr,
            excl,
            seq,
            retries,
            stash,
        } => {
            let (stag, sinv, sepoch) = match stash {
                None => (0, 0, 0),
                Some((inv, epoch)) => (1, inv as u8, epoch),
            };
            out.extend_from_slice(&[
                1,
                aperm[addr as usize],
                excl as u8,
                seq,
                retries,
                stag,
                sinv,
                sepoch,
            ]);
        }
    }
}

fn encode_host_msg(m: Option<&HostMsg>, aperm: &[u8], out: &mut Vec<u8>) {
    match m {
        None => out.extend_from_slice(&[0; 8]),
        Some(HostMsg::Req { addr, excl, seq }) => {
            out.extend_from_slice(&[1, aperm[*addr as usize], *excl as u8, *seq, 0, 0, 0, 0])
        }
        Some(HostMsg::Rsp {
            addr,
            inv,
            dirty,
            epoch,
        }) => {
            let (dtag, dver, ddecl, dtaint) = match dirty {
                None => (0, 0, 0, 0),
                Some((v, d, t)) => (1, *v, *d as u8, *t as u8),
            };
            out.extend_from_slice(&[
                2,
                aperm[*addr as usize],
                *inv as u8,
                dtag,
                dver,
                ddecl,
                dtaint,
                *epoch,
            ]);
        }
    }
}

fn encode_dev_msg(m: &DevMsg, out: &mut Vec<u8>) {
    match *m {
        DevMsg::Data {
            addr,
            writable,
            ver,
            seq,
            decl,
            taint,
        } => out.extend_from_slice(&[
            1,
            addr,
            writable as u8,
            ver,
            seq,
            decl as u8,
            taint as u8,
            0,
        ]),
        DevMsg::Snp {
            addr,
            inv,
            epoch,
            after,
        } => out.extend_from_slice(&[2, addr, inv as u8, epoch, after, 0, 0, 0]),
    }
}

/// Relabel a DevMsg's address under `aperm`.
fn relabel_dev_msg(m: &DevMsg, aperm: &[u8]) -> DevMsg {
    match *m {
        DevMsg::Data {
            addr,
            writable,
            ver,
            seq,
            decl,
            taint,
        } => DevMsg::Data {
            addr: aperm[addr as usize],
            writable,
            ver,
            seq,
            decl,
            taint,
        },
        DevMsg::Snp {
            addr,
            inv,
            epoch,
            after,
        } => DevMsg::Snp {
            addr: aperm[addr as usize],
            inv,
            epoch,
            after,
        },
    }
}

/// A cluster's block of the encoding: budget, outstanding fetch and
/// the per-address fields in new address order (`inv_a[new] = old`).
fn encode_cluster(c: &ClusterSt, aperm: &[u8], inv_a: &[usize], out: &mut Vec<u8>) {
    out.push(c.budget);
    encode_pend(&c.pend, aperm, out);
    for &oa in inv_a {
        out.extend_from_slice(&[
            c.copy[oa].st as u8,
            c.copy[oa].ver,
            c.copy[oa].decl as u8,
            c.copy[oa].taint as u8,
            c.seen[oa],
            c.inst_seq[oa],
            c.fetch_ctr[oa],
            c.snp_epoch[oa],
        ]);
    }
}

impl Symmetric for RState {
    fn cluster_key(&self, c: usize, aperm: &[u8], out: &mut Vec<u8>) {
        let mut inv_a = [0; MAX_ADDRS];
        invert(aperm, &mut inv_a);
        encode_cluster(&self.cl[c], aperm, &inv_a[..aperm.len()], out);
    }

    fn encode_perm(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>) {
        let clusters = cperm.len();
        let addrs = aperm.len();
        // Inverse permutations: write fields in *new* index order.
        let (mut inv_c, mut inv_a) = ([0; MAX_CLUSTERS], [0; MAX_ADDRS]);
        invert(cperm, &mut inv_c);
        invert(aperm, &mut inv_a);
        out.push(self.ghost_bug);
        out.push(self.faults_left);
        for &oc in inv_c.iter().take(clusters) {
            encode_cluster(&self.cl[oc], aperm, &inv_a[..addrs], out);
        }
        for &oa in inv_a.iter().take(addrs) {
            let d = &self.dir[oa];
            let mut holders = 0u8;
            for (oc, &ncl) in cperm.iter().enumerate() {
                if d.holders & (1 << oc) != 0 {
                    holders |= 1 << ncl;
                }
            }
            out.extend_from_slice(&[
                holders,
                d.excl as u8,
                d.mem_ver,
                d.mem_decl as u8,
                d.mem_taint as u8,
                d.max_ver,
                d.epoch,
            ]);
            for &oc in inv_c.iter().take(clusters) {
                out.push(d.granted[oc]);
            }
            match d.snoop {
                None => out.extend_from_slice(&[0; 8]),
                Some(sn) => out.extend_from_slice(&[
                    1,
                    sn.inv as u8,
                    cperm[sn.target as usize],
                    cperm[sn.requester as usize],
                    sn.req_seq,
                    sn.epoch,
                    sn.resends,
                    sn.after,
                ]),
            }
            out.push(d.qlen);
            for i in 0..QCAP {
                if i < d.qlen as usize {
                    let (qc, qe, qs) = d.queue[i];
                    out.extend_from_slice(&[cperm[qc as usize], qe, qs]);
                } else {
                    out.extend_from_slice(&[0, 0, 0]);
                }
            }
        }
        for &oc in inv_c.iter().take(clusters) {
            let fifo = &self.m2s[oc];
            for slot in fifo.iter() {
                encode_host_msg(slot.as_ref(), aperm, out);
            }
        }
        for &oc in inv_c.iter().take(clusters) {
            let mut relabeled = [None; CHAN_CAP];
            let mut n = 0;
            for m in self.s2m[oc].iter().flatten() {
                relabeled[n] = Some(relabel_dev_msg(m, aperm));
                n += 1;
            }
            relabeled[..n].sort_unstable();
            for m in relabeled[..n].iter().flatten() {
                encode_dev_msg(m, out);
            }
            for _ in n..CHAN_CAP {
                out.extend_from_slice(&[0; 8]);
            }
        }
        // Appended only while a private copy is valid, so a model without
        // private caches keeps its encoding byte for byte.
        if self
            .cl
            .iter()
            .any(|c| c.private != [[St::I; MAX_ADDRS]; MAX_PRIVATE])
        {
            for &oc in inv_c.iter().take(clusters) {
                for p in &self.cl[oc].private {
                    out.extend(inv_a.iter().take(addrs).map(|&oa| p[oa] as u8));
                }
            }
        }
    }
}

impl RState {
    /// Parse an encoding produced by [`Symmetric::encode_perm`] (any
    /// permutation image decodes to a well-formed, reachability-
    /// equivalent state; the identity image round-trips exactly).
    pub fn decode(bytes: &[u8], clusters: usize, addrs: usize) -> RState {
        let p = std::cell::Cell::new(0usize);
        let next = |n: usize| {
            let at = p.replace(p.get() + n);
            &bytes[at..at + n]
        };
        let st_of = |b: u8| match b {
            0 => St::I,
            1 => St::S,
            2 => St::M,
            _ => panic!("bad state byte"),
        };
        let mut s = RState {
            ghost_bug: next(1)[0],
            faults_left: next(1)[0],
            ..RState::default()
        };
        for ci in 0..clusters {
            s.cl[ci].budget = next(1)[0];
            let pb = next(8);
            s.cl[ci].pend = match pb[0] {
                0 => Pend::Idle,
                1 => Pend::Fetch {
                    addr: pb[1],
                    excl: pb[2] != 0,
                    seq: pb[3],
                    retries: pb[4],
                    stash: (pb[5] != 0).then_some((pb[6] != 0, pb[7])),
                },
                _ => panic!("bad pend tag"),
            };
            for a in 0..addrs {
                let b = next(8);
                s.cl[ci].copy[a] = Copy {
                    st: st_of(b[0]),
                    ver: b[1],
                    decl: b[2] != 0,
                    taint: b[3] != 0,
                };
                s.cl[ci].seen[a] = b[4];
                s.cl[ci].inst_seq[a] = b[5];
                s.cl[ci].fetch_ctr[a] = b[6];
                s.cl[ci].snp_epoch[a] = b[7];
            }
        }
        for a in 0..addrs {
            let b = next(7);
            s.dir[a].holders = b[0];
            s.dir[a].excl = b[1] != 0;
            s.dir[a].mem_ver = b[2];
            s.dir[a].mem_decl = b[3] != 0;
            s.dir[a].mem_taint = b[4] != 0;
            s.dir[a].max_ver = b[5];
            s.dir[a].epoch = b[6];
            for ci in 0..clusters {
                s.dir[a].granted[ci] = next(1)[0];
            }
            let sb = next(8);
            s.dir[a].snoop = (sb[0] != 0).then_some(SnoopSt {
                inv: sb[1] != 0,
                target: sb[2],
                requester: sb[3],
                req_seq: sb[4],
                epoch: sb[5],
                resends: sb[6],
                after: sb[7],
            });
            s.dir[a].qlen = next(1)[0];
            for i in 0..QCAP {
                let q = next(3);
                s.dir[a].queue[i] = if i < s.dir[a].qlen as usize {
                    (q[0], q[1], q[2])
                } else {
                    (0, 0, 0)
                };
            }
        }
        for ci in 0..clusters {
            for slot in 0..M2S_CAP {
                let b = next(8);
                s.m2s[ci][slot] = match b[0] {
                    0 => None,
                    1 => Some(HostMsg::Req {
                        addr: b[1],
                        excl: b[2] != 0,
                        seq: b[3],
                    }),
                    2 => Some(HostMsg::Rsp {
                        addr: b[1],
                        inv: b[2] != 0,
                        dirty: (b[3] != 0).then_some((b[4], b[5] != 0, b[6] != 0)),
                        epoch: b[7],
                    }),
                    _ => panic!("bad host-msg tag"),
                };
            }
        }
        for ci in 0..clusters {
            for slot in 0..CHAN_CAP {
                let b = next(8);
                s.s2m[ci][slot] = match b[0] {
                    0 => None,
                    1 => Some(DevMsg::Data {
                        addr: b[1],
                        writable: b[2] != 0,
                        ver: b[3],
                        seq: b[4],
                        decl: b[5] != 0,
                        taint: b[6] != 0,
                    }),
                    2 => Some(DevMsg::Snp {
                        addr: b[1],
                        inv: b[2] != 0,
                        epoch: b[3],
                        after: b[4],
                    }),
                    _ => panic!("bad dev-msg tag"),
                };
            }
        }
        // The private-cache block is present only while a private copy
        // is valid.
        if p.get() < bytes.len() {
            for c in &mut s.cl[..clusters] {
                for pc in &mut c.private {
                    for (a, b) in next(addrs).iter().enumerate() {
                        pc[a] = st_of(*b);
                    }
                }
            }
        }
        assert_eq!(p.get(), bytes.len(), "trailing bytes in state encoding");
        s
    }
}

// ---------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------

fn group_for(cfg: &ResilientConfig) -> SymmetryGroup {
    if cfg.symmetry {
        SymmetryGroup::new(cfg.clusters, cfg.addrs)
    } else {
        SymmetryGroup::identity(cfg.clusters, cfg.addrs)
    }
}

/// Exhaustively explore the resilient protocol under `cfg` (BFS over
/// canonical representatives) and check every invariant in every
/// reachable state.
pub fn check_resilient(cfg: &ResilientConfig) -> ResilientResult {
    let mut group = group_for(cfg);
    let group_order = group.order();
    let mut visited = VisitedSet::new();
    let mut frontier = SpillQueue::new(cfg.spill_path.clone(), cfg.spill_mem_cap);
    let mut ctx = SuccCtx {
        labels: None,
        witnesses: Some(BTreeSet::new()),
    };
    let mut canon = Vec::new();
    // Frontier record `id ‖ canonical bytes`, refilled for every push.
    let mut rec = Vec::new();
    let mut succs: Vec<RState> = Vec::new();
    let mut orbit_sum: u128 = 0;
    let mut edges: u64 = 0;
    let mut truncated = false;
    let mut violation: Option<(RViolation, u32)> = None;

    let init = RState::initial(cfg);
    let orbit = group.canonical(&init, &mut canon);
    orbit_sum += orbit as u128;
    let init_id = visited
        .insert(fingerprint(&canon), NO_PARENT, 0)
        .expect("fresh visited set");
    if let Some(v) = init.check(cfg) {
        violation = Some((v, init_id));
    } else {
        rec.extend_from_slice(&init_id.to_le_bytes());
        rec.extend_from_slice(&canon);
        frontier.push(&rec);
    }

    'bfs: while violation.is_none() && !truncated {
        let Some(popped) = frontier.pop() else { break };
        let id = u32::from_le_bytes(popped[..4].try_into().unwrap());
        let s = RState::decode(&popped[4..], cfg.clusters, cfg.addrs);
        successors(&s, cfg, &mut succs, &mut ctx);
        if succs.is_empty() {
            if !s.done(cfg) {
                violation = Some((
                    RViolation::Deadlock(
                        "no transition enabled but work remains outstanding".into(),
                    ),
                    id,
                ));
            }
            continue;
        }
        for (i, succ) in succs.iter().enumerate() {
            edges += 1;
            let orbit = group.canonical(succ, &mut canon);
            let Some(tid) = visited.insert(fingerprint(&canon), id, i as u16) else {
                continue;
            };
            orbit_sum += orbit as u128;
            let t = RState::decode(&canon, cfg.clusters, cfg.addrs);
            if let Some(v) = t.check(cfg) {
                violation = Some((v, tid));
                break 'bfs;
            }
            if visited.len() >= cfg.max_states {
                truncated = true;
                break 'bfs;
            }
            rec.clear();
            rec.extend_from_slice(&tid.to_le_bytes());
            rec.extend_from_slice(&canon);
            frontier.push(&rec);
        }
    }

    let canonical_states = visited.len();
    let violation = violation.map(|(v, vid)| build_counterexample(cfg, &visited, vid, v));
    let witnesses: Vec<_> = ctx.witnesses.take().unwrap().into_iter().collect();
    ResilientResult {
        canonical_states,
        edges,
        unreduced_states: orbit_sum,
        reduction_factor: orbit_sum as f64 / canonical_states.max(1) as f64,
        group_order,
        violation,
        truncated,
        witnesses,
        spilled: frontier.spilled,
        peak_frontier: frontier.peak_mem,
    }
}

/// Replay the shortest path to `vid` on concrete states and render it
/// through the [`Tracer`].
///
/// The visited set records, for each step, an ordinal into the
/// successors of the *canonical* parent. The replay keeps a concrete
/// state beside that representative and, at each step, moves to the
/// first concrete successor with the recorded successor's canonical
/// form; one exists by equivariance. Steps are labelled from the
/// concrete successors, and the violation is re-derived from the final
/// concrete state, so every cluster a step or the violation names is
/// the one that acted.
fn build_counterexample(
    cfg: &ResilientConfig,
    visited: &VisitedSet,
    vid: u32,
    what: RViolation,
) -> (RViolation, Counterexample) {
    let mut group = group_for(cfg);
    let mut state = RState::initial(cfg);
    let mut canon = Vec::new();
    group.canonical(&state, &mut canon);
    let mut rep = RState::decode(&canon, cfg.clusters, cfg.addrs);
    let mut ctx = SuccCtx {
        labels: Some(Vec::new()),
        witnesses: None,
    };
    let (mut succs, mut want) = (Vec::new(), Vec::new());
    let mut steps: Vec<(usize, String)> = Vec::new();
    for o in visited.path_to(vid) {
        successors(&rep, cfg, &mut succs, &mut SuccCtx::default());
        group.canonical(&succs[o as usize], &mut want);
        rep = RState::decode(&want, cfg.clusters, cfg.addrs);
        successors(&state, cfg, &mut succs, &mut ctx);
        let i = succs
            .iter()
            .position(|t| {
                group.canonical(t, &mut canon);
                canon == want
            })
            .expect("equivariance: a concrete successor in the recorded orbit");
        let labels = ctx.labels.as_mut().expect("labels enabled");
        steps.push(std::mem::take(&mut labels[i]));
        state = succs.swap_remove(i);
    }
    // A deadlocked state passes `check`: keep the explorer's verdict.
    let what = state.check(cfg).unwrap_or(what);
    let mut tracer = Tracer::enabled(steps.len() + 2);
    let mut names: Vec<String> = (0..cfg.clusters).map(|c| format!("cluster{c}")).collect();
    names.push("dcoh".into());
    names.push("fault-fabric".into());
    for (i, (comp, label)) in steps.iter().enumerate() {
        tracer.instant(
            Time::from_ns(i as u64 + 1),
            ComponentId(*comp as u32),
            "modelcheck",
            label.clone(),
        );
    }
    tracer.instant(
        Time::from_ns(steps.len() as u64 + 1),
        ComponentId(comp_fabric(cfg) as u32),
        "violation",
        format!("INVARIANT VIOLATED: {what}"),
    );
    let trace = tracer.text_dump(&names);
    (what, Counterexample { steps, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(clusters: usize, addrs: usize) -> ResilientConfig {
        ResilientConfig {
            clusters,
            addrs,
            ops_per_cluster: 1,
            max_faults: 1,
            max_retries: 1,
            ..ResilientConfig::default()
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let private = ResilientConfig {
            ops_per_cluster: 2,
            private_caches: 2,
            ..tiny(2, 2)
        };
        for cfg in [tiny(2, 2), private] {
            let mut s = RState::initial(&cfg);
            let mut ctx = SuccCtx::default();
            let mut succs = Vec::new();
            let mut saw_private = false;
            // Walk a few deterministic steps (cl0 misses, is granted,
            // installs, then serves itself locally) to populate channels,
            // directory and private state, round-tripping every
            // successor at each depth.
            for pick in [0usize, 8, 8, 0, 2, 1] {
                successors(&s, &cfg, &mut succs, &mut ctx);
                for t in &succs {
                    let mut enc = Vec::new();
                    t.encode_perm(&[0, 1], &[0, 1], &mut enc);
                    assert_eq!(&RState::decode(&enc, 2, 2), t);
                    saw_private |=
                        t.cl.iter()
                            .any(|c| c.private != ClusterSt::default().private);
                }
                if succs.is_empty() {
                    break;
                }
                s = succs[pick.min(succs.len() - 1)].clone();
            }
            assert_eq!(saw_private, cfg.private_caches > 0);
        }
    }

    /// Every state reachable under `cfg`, one per symmetry orbit.
    fn reachable(cfg: &ResilientConfig) -> Vec<RState> {
        let mut group = group_for(cfg);
        let mut canon = Vec::new();
        let mut states = vec![RState::initial(cfg)];
        group.canonical(&states[0], &mut canon);
        let mut seen = BTreeSet::from([canon.clone()]);
        let mut succs = Vec::new();
        let mut i = 0;
        while i < states.len() {
            successors(&states[i], cfg, &mut succs, &mut SuccCtx::default());
            for t in &succs {
                group.canonical(t, &mut canon);
                if seen.insert(canon.clone()) {
                    states.push(RState::decode(&canon, cfg.clusters, cfg.addrs));
                }
            }
            i += 1;
        }
        states
    }

    #[test]
    fn key_sorted_canonical_matches_all_images_reference() {
        let private = ResilientConfig {
            ops_per_cluster: 2,
            private_caches: 2,
            max_faults: 0,
            max_retries: 0,
            ..tiny(3, 1)
        };
        for cfg in [tiny(3, 2), private] {
            let mut groups = [
                SymmetryGroup::new(cfg.clusters, cfg.addrs),
                SymmetryGroup::identity(cfg.clusters, cfg.addrs),
            ];
            let (mut succs, mut canon, mut checked) = (Vec::new(), Vec::new(), 0);
            for s in reachable(&cfg) {
                successors(&s, &cfg, &mut succs, &mut SuccCtx::default());
                for t in &succs {
                    for g in &mut groups {
                        let orbit = g.canonical(t, &mut canon);
                        assert_eq!((canon.clone(), orbit), g.canonical_reference(t));
                    }
                    checked += 1;
                }
            }
            assert!(checked > 1000, "only {checked} successors checked");
        }
    }

    #[test]
    fn counterexamples_replay_on_concrete_clusters() {
        let rules = |ops| ResilientConfig {
            ops_per_cluster: ops,
            private_caches: 1,
            max_faults: 0,
            max_retries: 0,
            ..tiny(2, 1)
        };
        for inj in Injection::ALL {
            for clusters in [2, 3] {
                let cfg = match inj {
                    Injection::LostGrantLivelock | Injection::PoisonLaunder => tiny(clusters, 1),
                    _ => ResilientConfig {
                        clusters,
                        ..rules(2)
                    },
                };
                let cfg = ResilientConfig {
                    inject: Some(inj),
                    ..cfg
                };
                let (v, cex) = check_resilient(&cfg).violation.expect("caught");
                // Each step is enabled in the concrete state before it.
                let mut state = RState::initial(&cfg);
                let mut ctx = SuccCtx {
                    labels: Some(Vec::new()),
                    witnesses: None,
                };
                let mut succs = Vec::new();
                for step in &cex.steps {
                    successors(&state, &cfg, &mut succs, &mut ctx);
                    let labels = ctx.labels.as_ref().unwrap();
                    let i = labels.iter().position(|l| l == step).unwrap_or_else(|| {
                        panic!("{}: step {step:?} not enabled in {labels:?}", inj.name())
                    });
                    if step.0 < cfg.clusters {
                        assert!(step.1.starts_with(&format!("cl{}", step.0)), "{step:?}");
                    }
                    state = succs.swap_remove(i);
                }
                match state.check(&cfg) {
                    Some(found) => assert_eq!(found, v, "{}", inj.name()),
                    None => {
                        successors(&state, &cfg, &mut succs, &mut ctx);
                        assert!(succs.is_empty() && !state.done(&cfg), "{}", inj.name());
                    }
                }
            }
        }
        // The Fig. 2 race of `c3 verify`: both clusters miss, and the
        // trace names each of them once.
        let cfg = ResilientConfig {
            inject: Some(Injection::IgnoreSnoopOrder),
            ..rules(2)
        };
        let trace = check_resilient(&cfg).violation.expect("caught").1.trace;
        for cl in ["cl0", "cl1"] {
            let miss = format!("{cl}: load miss a0, RdS seq1");
            assert_eq!(trace.matches(&miss).count(), 1, "{miss}\n{trace}");
        }
    }

    #[test]
    fn single_cluster_is_clean() {
        let cfg = ResilientConfig {
            ops_per_cluster: 2,
            ..tiny(1, 1)
        };
        let r = check_resilient(&cfg);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
        assert!(r.canonical_states > 1);
    }

    #[test]
    fn two_clusters_resilient_clean_and_reduced() {
        let cfg = tiny(2, 2);
        let r = check_resilient(&cfg);
        assert!(
            r.violation.is_none(),
            "unexpected violation: {}\n{}",
            r.violation.as_ref().unwrap().0,
            r.violation.as_ref().unwrap().1.trace
        );
        assert!(!r.truncated);
        assert!(
            r.reduction_factor > 1.5,
            "reduction factor {} too small",
            r.reduction_factor
        );
        assert!(!r.witnesses.is_empty());
    }
}
