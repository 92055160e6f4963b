//! The DCOH — CXL 3.0 **device coherency engine**.
//!
//! The multi-headed memory device's directory for CXL.mem HDM-DB: it
//! tracks, per line, which *hosts* (C³ bridges) hold copies, drives the
//! Table-I flows (`MemRd`, `MemWr`, `BISnp*`), and answers the
//! `BIConflict` handshake of Fig. 2.
//!
//! Two properties distinguish it from the textbook MESI directory and are
//! the source of the paper's measured CXL slowdowns (§VI-C1):
//!
//! * **Blocking transient states** — while a back-invalidation snoop is in
//!   flight the line is blocked; same-line requests queue (the *convoy
//!   effect*). There are no 3-hop peer-to-peer transfers: dirty data always
//!   funnels through the device (6 message delays for a dirty-owner write
//!   vs MESI's 3).
//! * **Explicit conflict resolution** — the fabric reorders S2M messages,
//!   so a host that observes a `BISnp*` while it has a request outstanding
//!   cannot infer the serialization order; it asks with `BIConflict` and
//!   the DCOH answers whether the host's request was already serialized.
//!
//! Ordering assumption (documented in DESIGN.md): the host→device (M2S)
//! direction is FIFO per host, the device→host (S2M) direction is
//! unordered. This matches the CXL channel rules that make `BIConflict`
//! resolution sound while still exhibiting the Fig. 2 races.

use std::collections::{BTreeSet, VecDeque};

use c3_protocol::msg::{CxlGrant, CxlMsg};
use c3_protocol::ops::Addr;
use c3_protocol::table::{Action, TransitionRow, TransitionTable, Vnet};
use c3_sim::component::ComponentId;
use c3_sim::region::{Footprint, RegionEntry, RegionMap};
use c3_sim::time::{Delay, Time};
use c3_sim::trace::InflightTxn;

/// Which hosts hold a line, from the device's point of view.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum CxlHolders {
    /// No host holds the line; device memory is current.
    #[default]
    None,
    /// Hosts with shared, clean copies.
    Shared(BTreeSet<ComponentId>),
    /// One host holds the line exclusively (E or M).
    Exclusive(ComponentId),
}

impl CxlHolders {
    /// Whether any host holds the line.
    pub fn any(&self) -> bool {
        !matches!(self, CxlHolders::None)
    }
}

/// One row of the §VI-C1 hot-spot profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotLine {
    /// The line.
    pub addr: Addr,
    /// Read (`MemRd,S`) requests served.
    pub reads: u64,
    /// Ownership (`MemRd,A`) requests served.
    pub writes: u64,
    /// Number of distinct hosts that requested the line.
    pub sharers: usize,
}

/// An action the DCOH asks its component wrapper to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DcohEffect {
    /// Send a CXL.mem message to a host.
    Send {
        /// Destination host (C³ bridge).
        dst: ComponentId,
        /// The message.
        msg: CxlMsg,
        /// Whether a device-memory access precedes the send (DDR latency).
        needs_memory: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SnoopKind {
    Inv,
    Data,
}

#[derive(Clone, Debug)]
struct Snoop {
    kind: SnoopKind,
    waiting: BTreeSet<ComponentId>,
    /// The request that triggered the snoop, completed once it resolves.
    requester: ComponentId,
    grant: CxlGrant,
    /// When the snoop was issued (known only when the component wrapper
    /// drives the engine through [`DcohEngine::handle_at`]); reset on
    /// every re-issue.
    since: Option<Time>,
    /// `BISnp` re-issues so far (see [`DcohEngine::expire_snoops`]).
    retries: u32,
}

/// Compact holder set: a bitmask over the engine's first-contact host
/// registry (`DcohEngine::hosts`). `mask == 0` means no holders;
/// `exclusive` implies exactly one bit set. CXL hosts may drop clean
/// lines *silently* (HDM-DB), so recorded holders are stable state the
/// DCOH carries indefinitely — keeping it `Copy` lets a line demote to
/// its flat summary while still held, which is what bounds resident
/// records by *concurrency* instead of *footprint*.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
struct HolderMask {
    mask: u64,
    exclusive: bool,
}

impl HolderMask {
    const NONE: HolderMask = HolderMask {
        mask: 0,
        exclusive: false,
    };

    fn exclusive(bit: u64) -> HolderMask {
        HolderMask {
            mask: bit,
            exclusive: true,
        }
    }

    fn shared(mask: u64) -> HolderMask {
        HolderMask {
            mask,
            exclusive: false,
        }
    }

    fn is_none(self) -> bool {
        self.mask == 0
    }

    fn is_exclusively(self, bit: u64) -> bool {
        self.exclusive && self.mask == bit
    }
}

/// Expand a holder bitmask to the public [`CxlHolders`] form. The
/// `BTreeSet` sorts by `ComponentId`, so holder iteration order is
/// independent of registry slot order (identical to the pre-mask
/// representation).
fn mask_to_holders(hosts: &[ComponentId], m: HolderMask) -> CxlHolders {
    if m.is_none() {
        return CxlHolders::None;
    }
    if m.exclusive {
        return CxlHolders::Exclusive(hosts[m.mask.trailing_zeros() as usize]);
    }
    CxlHolders::Shared(mask_to_set(hosts, m.mask))
}

/// The `ComponentId`s of a bitmask, as an (inherently sorted) set.
fn mask_to_set(hosts: &[ComponentId], mut mask: u64) -> BTreeSet<ComponentId> {
    let mut set = BTreeSet::new();
    while mask != 0 {
        let slot = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        set.insert(hosts[slot]);
    }
    set
}

#[derive(Clone, Debug, Default)]
struct Line {
    holders: HolderMask,
    data: u64,
    /// The device copy is known-corrupt: a poisoned MemWr landed here and
    /// no clean write has replaced it yet. Served fills carry the mark.
    poisoned: bool,
    snoop: Option<Snoop>,
    queue: VecDeque<(ComponentId, CxlMsg)>,
    /// Profiling (§VI-C1): read/write request counts and requesting hosts
    /// (a bitmask over the engine's first-contact host registry, so a
    /// quiescent line can demote to a flat summary).
    reads: u64,
    writes: u64,
    req_mask: u64,
}

/// The quiescent form of a DCOH line: no snoop in flight, no convoy
/// queue. Stable holders, data, the sticky poison mark, and the §VI-C1
/// profiling counters all survive demotion — only *transactional* state
/// (a blocking snoop, a convoy queue) forces a resident record.
#[derive(Clone, Copy, PartialEq, Default, Debug)]
struct LineSummary {
    holders: HolderMask,
    data: u64,
    reads: u64,
    writes: u64,
    req_mask: u64,
    poisoned: bool,
}

impl RegionEntry for Line {
    type Summary = LineSummary;

    fn try_demote(&self) -> Option<LineSummary> {
        let quiescent = self.snoop.is_none() && self.queue.is_empty();
        quiescent.then_some(LineSummary {
            holders: self.holders,
            data: self.data,
            reads: self.reads,
            writes: self.writes,
            req_mask: self.req_mask,
            poisoned: self.poisoned,
        })
    }

    fn restore(&mut self, s: LineSummary) {
        self.holders = s.holders;
        self.data = s.data;
        self.poisoned = s.poisoned;
        self.snoop = None;
        self.queue.clear();
        self.reads = s.reads;
        self.writes = s.writes;
        self.req_mask = s.req_mask;
    }
}

/// The device coherency engine (pure state machine; the simulator
/// component wrapping it is [`crate::CxlDirectory`]).
///
/// # Examples
///
/// ```
/// use c3_cxl::dcoh::DcohEngine;
/// use c3_protocol::msg::CxlMsg;
/// use c3_protocol::ops::Addr;
/// use c3_sim::component::ComponentId;
///
/// let mut dcoh = DcohEngine::new();
/// let effects = dcoh.handle(ComponentId(1), CxlMsg::MemRdA { addr: Addr(7) });
/// assert_eq!(effects.len(), 1); // MemData granting M
/// ```
#[derive(Debug, Default)]
pub struct DcohEngine {
    lines: RegionMap<Line>,
    /// First-contact host registry backing each line's `req_mask`: host
    /// `hosts[i]` owns bit `i`. Deterministic (engine processing order)
    /// and tiny — one entry per bridge, linear scan beats hashing.
    hosts: Vec<ComponentId>,
    /// Requests that found the line blocked and queued (convoy effect).
    pub stalled_requests: u64,
    /// Back-invalidation snoops issued.
    pub bisnp_sent: u64,
    /// Conflict handshakes answered.
    pub conflicts: u64,
    /// Writebacks received.
    pub writebacks: u64,
    /// Resilient mode: tolerate duplicated / stale messages (a lossy
    /// fabric with host-side retry replays them) instead of treating them
    /// as protocol bugs. Off by default — fail-stop behaviour is the
    /// better debugging default on a reliable fabric.
    pub resilient: bool,
    /// Resilient mode: duplicate requests suppressed.
    pub dup_suppressed: u64,
    /// Resilient mode: exclusive grants replayed because the recorded
    /// owner re-requested a line — the original `MemData` was lost.
    pub grants_replayed: u64,
    /// Resilient mode: writebacks from a non-holder whose data was NOT
    /// applied (stale epoch).
    pub stale_writebacks: u64,
    /// Resilient mode: `BISnp` re-issues after a response timeout.
    pub bisnp_resent: u64,
    /// Resilient mode: blocking snoops force-completed after retry
    /// exhaustion (the blocked requester got poisoned data).
    pub snoops_forced: u64,
}

impl DcohEngine {
    /// Fresh engine; all memory reads as zero until written.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current device-memory contents of a line.
    pub fn data(&self, addr: Addr) -> u64 {
        if let Some(l) = self.lines.get(addr.0) {
            l.data
        } else {
            self.lines.summary(addr.0).map(|s| s.data).unwrap_or(0)
        }
    }

    /// Seed device memory (initialization). Seeded data is clean, and
    /// goes straight to the demoted summary form — seeding a large
    /// footprint must not materialize per-line records.
    pub fn seed_data(&mut self, addr: Addr, data: u64) {
        let line = self.lines.entry(addr.0);
        line.data = data;
        line.poisoned = false;
        self.demote_quiesced(addr);
    }

    /// Lines whose device copy is poison-marked, sorted. Poison is
    /// sticky across demotion, so both resident lines and summaries
    /// contribute.
    pub fn poisoned_addrs(&self) -> Vec<Addr> {
        let mut out: Vec<Addr> = self
            .lines
            .iter_live()
            .filter(|(_, l)| l.poisoned)
            .map(|(k, _)| Addr(k))
            .chain(
                self.lines
                    .iter_summaries()
                    .filter(|(_, s)| s.poisoned)
                    .map(|(k, _)| Addr(k)),
            )
            .collect();
        out.sort_by_key(|a| a.0);
        out
    }

    /// Host-level holders of a line. Demoted (quiescent) lines keep
    /// their stable holders in the summary.
    pub fn holders(&self, addr: Addr) -> CxlHolders {
        let m = self
            .lines
            .get(addr.0)
            .map(|l| l.holders)
            .or_else(|| self.lines.summary(addr.0).map(|s| s.holders))
            .unwrap_or(HolderMask::NONE);
        mask_to_holders(&self.hosts, m)
    }

    /// The table-level state of `addr` (see [`dcoh_transition_table`]):
    /// the blocking snoop kind if one is in flight, else the holder class
    /// (from the summary when the line is demoted).
    #[cfg(debug_assertions)]
    fn table_state(&self, addr: Addr) -> &'static str {
        let class = |m: HolderMask| {
            if m.is_none() {
                "NoHolders"
            } else if m.exclusive {
                "Exclusive"
            } else {
                "Shared"
            }
        };
        match self.lines.get(addr.0) {
            None => self
                .lines
                .summary(addr.0)
                .map(|s| class(s.holders))
                .unwrap_or("NoHolders"),
            Some(l) => match &l.snoop {
                Some(s) => match s.kind {
                    SnoopKind::Inv => "SnpInv",
                    SnoopKind::Data => "SnpData",
                },
                None => class(l.holders),
            },
        }
    }

    /// Demote `addr` to its flat summary if quiescent, cross-checking
    /// demotability against the table's `Quiesce` rows: a line the code
    /// considers demotable must have a permitting self-loop row, and a
    /// transactional (snoop/convoy) line must hit a forbidden row.
    fn demote_quiesced(&mut self, addr: Addr) {
        #[cfg(debug_assertions)]
        if let Some(l) = self.lines.get(addr.0) {
            let demotable = l.snoop.is_none() && l.queue.is_empty();
            let state = self.table_state(addr);
            debug_assert_eq!(
                dcoh_cached_table().permits(state, "Quiesce"),
                demotable,
                "dcoh: demotability of {addr} in {state} disagrees with the Quiesce table rows",
            );
        }
        self.lines.demote(addr.0);
    }

    /// Whether the engine is quiescent. Demoted lines are quiescent by
    /// construction, so only resident records need checking.
    pub fn idle(&self) -> bool {
        self.lines
            .iter_live()
            .all(|(_, l)| l.snoop.is_none() && l.queue.is_empty())
    }

    /// Telemetry occupancy snapshot, one allocation-free pass:
    /// `(lines, blocking_snoops, queued, bisnp_waiting)` — entries
    /// tracked, lines blocked behind an outstanding BISnp, requests
    /// parked in per-line queues, and the total BISnp fan-out (hosts
    /// still owed a response across all outstanding snoops).
    pub fn occupancy(&self) -> (usize, usize, usize, usize) {
        let mut blocking = 0;
        let mut queued = 0;
        let mut fanout = 0;
        for (_, l) in self.lines.iter_live() {
            if let Some(s) = &l.snoop {
                blocking += 1;
                fanout += s.waiting.len();
            }
            queued += l.queue.len();
        }
        (
            self.lines.touched_lines() as usize,
            blocking,
            queued,
            fanout,
        )
    }

    /// Region-store footprint snapshot: touched/resident line counts and
    /// the (estimated) coherence-state bytes, with peaks.
    pub fn footprint(&self) -> Footprint {
        self.lines.footprint()
    }

    /// The §VI-C1 address-frequency analysis: the `n` most-accessed lines,
    /// with read/write counts and the number of distinct requesting hosts
    /// — contended lines requested by multiple hosts are the hot-spots
    /// behind the convoy effect.
    pub fn hottest(&self, n: usize) -> Vec<HotLine> {
        let mut v: Vec<HotLine> = self
            .lines
            .iter_live()
            .map(|(k, l)| HotLine {
                addr: Addr(k),
                reads: l.reads,
                writes: l.writes,
                sharers: l.req_mask.count_ones() as usize,
            })
            .chain(self.lines.iter_summaries().map(|(k, s)| HotLine {
                addr: Addr(k),
                reads: s.reads,
                writes: s.writes,
                sharers: s.req_mask.count_ones() as usize,
            }))
            .collect();
        // Ties broken by address so the profile does not depend on
        // region-table iteration order.
        v.sort_by_key(|h| (std::cmp::Reverse(h.reads + h.writes), h.addr));
        v.truncate(n);
        v
    }

    /// Lines with a blocking snoop in flight or queued requests, in
    /// address order (the live walk's slab order is allocation history,
    /// not something diagnostics should show).
    fn blocked_lines(&self) -> Vec<(u64, &Line)> {
        let mut blocked: Vec<(u64, &Line)> = self
            .lines
            .iter_live()
            .filter(|(_, l)| l.snoop.is_some() || !l.queue.is_empty())
            .collect();
        blocked.sort_by_key(|(a, _)| *a);
        blocked
    }

    /// Human-readable dump of blocked lines, in address order (deadlock
    /// diagnostics).
    pub fn pending_summary(&self) -> String {
        let mut out = String::from("dcoh:");
        for (k, l) in self.blocked_lines() {
            let a = Addr(k);
            out.push_str(&format!(" [{a}: snoop={:?} queue={:?}]", l.snoop, l.queue));
        }
        out
    }

    /// Every line with a blocking snoop in flight or queued requests,
    /// in address order — the engine's contribution to a deadlock
    /// post-mortem. `self_id` stamps the owning component into the
    /// captured entries.
    pub fn inflight(&self, self_id: ComponentId) -> Vec<InflightTxn> {
        let mut out = Vec::new();
        for (addr, l) in self.blocked_lines() {
            if let Some(s) = &l.snoop {
                // A blocking transient state: the line is held hostage by
                // the hosts that have not answered the BISnp yet.
                let first_waiter = s.waiting.iter().next().copied();
                out.push(InflightTxn {
                    component: self_id,
                    addr: Some(addr),
                    kind: format!("BISnp{:?} for {}", s.kind, s.requester),
                    since: s.since,
                    waiting_on: first_waiter,
                    detail: format!(
                        "awaiting BIRsp from {:?}; {} queued request(s)",
                        s.waiting,
                        l.queue.len()
                    ),
                });
            } else {
                out.push(InflightTxn {
                    component: self_id,
                    addr: Some(addr),
                    kind: "queued requests".into(),
                    since: None,
                    waiting_on: None,
                    detail: format!("{} request(s) convoyed behind the line", l.queue.len()),
                });
            }
        }
        out
    }

    /// Process one CXL.mem message from host `src`.
    pub fn handle(&mut self, src: ComponentId, msg: CxlMsg) -> Vec<DcohEffect> {
        self.handle_at(src, msg, None)
    }

    /// Like [`DcohEngine::handle`], with the current simulated time so
    /// blocking snoops can be age-stamped for post-mortems.
    pub fn handle_at(
        &mut self,
        src: ComponentId,
        msg: CxlMsg,
        now: Option<Time>,
    ) -> Vec<DcohEffect> {
        let addr = msg.addr();
        #[cfg(debug_assertions)]
        if !self.resilient {
            if let Some(ev) = device_event_name(&msg) {
                let state = self.table_state(addr);
                debug_assert!(
                    dcoh_cached_table().permits(state, ev),
                    "dcoh: dynamic step ({state} x {ev}) for {addr} matches no table row",
                );
            }
        }
        let mut out = Vec::new();
        match msg {
            // ---- requests: blocked while a snoop is in flight ----
            CxlMsg::MemRdA { .. } | CxlMsg::MemRdS { .. } => {
                let req_bit = host_bit(&mut self.hosts, src);
                let line = self.lines.entry(addr.0);
                if self.resilient {
                    // A retried (or fabric-duplicated) request from a host
                    // whose original is still being served — either the
                    // snoop it triggered is in flight or the original sits
                    // in the convoy queue. Admitting it twice would grant
                    // the line twice.
                    let dup = line.snoop.as_ref().is_some_and(|s| s.requester == src)
                        || line.queue.iter().any(|(h, m)| *h == src && *m == msg);
                    if dup {
                        self.dup_suppressed += 1;
                        return out;
                    }
                    // A retry from the line's recorded exclusive owner:
                    // the grant we sent was lost in the fabric. Replay it
                    // directly — queueing it would deadlock whenever the
                    // in-flight snoop targets that same owner, because the
                    // owner cannot answer a snoop for a fill it never got.
                    if line.holders.is_exclusively(req_bit) {
                        self.grants_replayed += 1;
                        out.push(DcohEffect::Send {
                            dst: src,
                            msg: CxlMsg::MemData {
                                addr,
                                data: line.data,
                                grant: if matches!(msg, CxlMsg::MemRdA { .. }) {
                                    CxlGrant::M
                                } else {
                                    CxlGrant::E
                                },
                                poisoned: line.poisoned,
                            },
                            needs_memory: true,
                        });
                        return out;
                    }
                }
                if matches!(msg, CxlMsg::MemRdA { .. }) {
                    line.writes += 1;
                } else {
                    line.reads += 1;
                }
                line.req_mask |= req_bit;
                if line.snoop.is_some() {
                    self.stalled_requests += 1;
                    line.queue.push_back((src, msg));
                } else {
                    self.admit(src, msg, now, &mut out);
                }
            }
            // ---- writebacks: always accepted (may be a snoop's dirty
            // response or an eviction racing one) ----
            CxlMsg::MemWrI { data, poisoned, .. } => {
                self.writebacks += 1;
                let src_bit = host_bit(&mut self.hosts, src);
                let line = self.lines.entry(addr.0);
                if self.resilient && Self::writeback_is_stale(line.holders, src_bit) {
                    // A replayed or out-of-epoch MemWr: the line moved on
                    // (another host owns it). Applying the stale data
                    // would clobber the newer copy; still complete the
                    // sender so it can make progress.
                    self.stale_writebacks += 1;
                } else {
                    line.data = data;
                    line.poisoned = poisoned;
                    if line.holders.is_exclusively(src_bit) {
                        line.holders = HolderMask::NONE;
                    }
                }
                out.push(DcohEffect::Send {
                    dst: src,
                    msg: CxlMsg::Cmp { addr },
                    needs_memory: true,
                });
            }
            CxlMsg::MemWrS { data, poisoned, .. } => {
                self.writebacks += 1;
                let src_bit = host_bit(&mut self.hosts, src);
                let line = self.lines.entry(addr.0);
                if self.resilient && Self::writeback_is_stale(line.holders, src_bit) {
                    self.stale_writebacks += 1;
                } else {
                    line.data = data;
                    line.poisoned = poisoned;
                    if line.holders.is_exclusively(src_bit) {
                        line.holders = HolderMask::shared(src_bit);
                    }
                }
                out.push(DcohEffect::Send {
                    dst: src,
                    msg: CxlMsg::Cmp { addr },
                    needs_memory: true,
                });
            }
            // ---- snoop responses ----
            CxlMsg::BiRspI { .. } => self.snoop_response(src, addr, false, now, &mut out),
            CxlMsg::BiRspS { .. } => self.snoop_response(src, addr, true, now, &mut out),
            // ---- conflict handshake ----
            CxlMsg::BiConflict { .. } => {
                self.conflicts += 1;
                let line = self.lines.entry(addr.0);
                // M2S is FIFO per host: if the conflicting host's own
                // request is still queued here, it was NOT serialized
                // before the snoop; otherwise it was already processed.
                let queued = line.queue.iter().any(|(h, _)| *h == src);
                out.push(DcohEffect::Send {
                    dst: src,
                    msg: CxlMsg::BiConflictAck {
                        addr,
                        request_was_serialized: !queued,
                    },
                    needs_memory: false,
                });
            }
            other => panic!("DCOH received device-bound message {other:?}"),
        }
        self.demote_quiesced(addr);
        out
    }

    /// Whether a writeback from the host owning `src_bit` is
    /// out-of-epoch: the directory no longer records that host as a
    /// holder, so the line has been granted to someone else since the
    /// data left it.
    fn writeback_is_stale(holders: HolderMask, src_bit: u64) -> bool {
        !holders.is_none() && holders.mask & src_bit == 0
    }

    /// Re-issue `BISnp*` for blocking snoops whose response deadline has
    /// passed (doubling the deadline each retry) and force-complete snoops
    /// that exhausted `max_retries` — the blocked requester is granted the
    /// device's current copy **marked poisoned**, since a dirty owner that
    /// never responded may hold newer data. Called periodically by the
    /// component wrapper when a retry policy is configured.
    pub fn expire_snoops(
        &mut self,
        now: Time,
        timeout: Delay,
        max_retries: u32,
    ) -> Vec<DcohEffect> {
        let mut out = Vec::new();
        // Sorted: the live walk's slab order is run-stable but an
        // artifact of allocation history, not a protocol order
        // (DESIGN.md §16.3).
        let mut expired: Vec<Addr> = self
            .lines
            .iter_live()
            .filter(|(_, l)| {
                l.snoop.as_ref().is_some_and(|s| {
                    s.since
                        .is_some_and(|t| t + timeout.times(1u64 << s.retries.min(16)) <= now)
                })
            })
            .map(|(a, _)| Addr(a))
            .collect();
        expired.sort_by_key(|a| a.0);
        for addr in expired {
            let line = self.lines.get_mut(addr.0).expect("collected above");
            let snoop = line.snoop.as_mut().expect("collected above");
            if snoop.retries < max_retries {
                snoop.retries += 1;
                snoop.since = Some(now);
                let kind = snoop.kind;
                let targets: Vec<ComponentId> = snoop.waiting.iter().copied().collect();
                self.bisnp_resent += targets.len() as u64;
                for dst in targets {
                    out.push(DcohEffect::Send {
                        dst,
                        msg: match kind {
                            SnoopKind::Inv => CxlMsg::BiSnpInv { addr },
                            SnoopKind::Data => CxlMsg::BiSnpData { addr },
                        },
                        needs_memory: false,
                    });
                }
            } else {
                // Give up on the unresponsive holder(s): unblock the line
                // with the device copy, poison-marked because a dirty
                // response may never arrive.
                let snoop = line.snoop.take().expect("collected above");
                self.snoops_forced += 1;
                let requester_bit = host_bit(&mut self.hosts, snoop.requester);
                let line = self.lines.get_mut(addr.0).expect("collected above");
                match snoop.kind {
                    SnoopKind::Inv => {
                        line.holders = HolderMask::exclusive(requester_bit);
                    }
                    SnoopKind::Data => {
                        line.holders = HolderMask::shared(requester_bit);
                    }
                }
                out.push(DcohEffect::Send {
                    dst: snoop.requester,
                    msg: CxlMsg::MemData {
                        addr,
                        data: line.data,
                        grant: snoop.grant,
                        poisoned: true,
                    },
                    needs_memory: true,
                });
                // Drain the convoy now that the line is unblocked.
                loop {
                    let line = self.lines.get_mut(addr.0).expect("line exists");
                    if line.snoop.is_some() {
                        break;
                    }
                    let Some((h, m)) = line.queue.pop_front() else {
                        break;
                    };
                    self.admit(h, m, Some(now), &mut out);
                }
            }
            self.demote_quiesced(addr);
        }
        out
    }

    fn admit(
        &mut self,
        src: ComponentId,
        msg: CxlMsg,
        now: Option<Time>,
        out: &mut Vec<DcohEffect>,
    ) {
        let addr = msg.addr();
        let exclusive = matches!(msg, CxlMsg::MemRdA { .. });
        let src_bit = host_bit(&mut self.hosts, src);
        let line = self.lines.entry(addr.0);
        debug_assert!(line.snoop.is_none());
        let holders = line.holders;
        if holders.is_none() || holders.is_exclusively(src_bit) {
            // No holders, or the recorded owner asks again (it silently
            // dropped its clean copy — HDM-DB allows that): grant
            // directly. Snooping the requester itself would deadlock.
            let grant = if exclusive { CxlGrant::M } else { CxlGrant::E };
            line.holders = HolderMask::exclusive(src_bit);
            out.push(DcohEffect::Send {
                dst: src,
                msg: CxlMsg::MemData {
                    addr,
                    data: line.data,
                    grant,
                    poisoned: line.poisoned,
                },
                needs_memory: true,
            });
        } else if !exclusive && !holders.exclusive {
            // Shared read joins the sharer set.
            line.holders = HolderMask::shared(holders.mask | src_bit);
            out.push(DcohEffect::Send {
                dst: src,
                msg: CxlMsg::MemData {
                    addr,
                    data: line.data,
                    grant: CxlGrant::S,
                    poisoned: line.poisoned,
                },
                needs_memory: true,
            });
        } else if exclusive && holders.mask & !src_bit == 0 {
            // Requester is the sole sharer: promote without a snoop.
            line.holders = HolderMask::exclusive(src_bit);
            out.push(DcohEffect::Send {
                dst: src,
                msg: CxlMsg::MemData {
                    addr,
                    data: line.data,
                    grant: CxlGrant::M,
                    poisoned: line.poisoned,
                },
                needs_memory: true,
            });
        } else {
            // Other holders stand in the way: back-invalidate (ownership
            // request) or demand data (shared read of an exclusive line).
            let kind = if exclusive {
                SnoopKind::Inv
            } else {
                SnoopKind::Data
            };
            let grant = if exclusive { CxlGrant::M } else { CxlGrant::S };
            let targets = mask_to_set(&self.hosts, holders.mask & !src_bit);
            for h in &targets {
                self.bisnp_sent += 1;
                out.push(DcohEffect::Send {
                    dst: *h,
                    msg: match kind {
                        SnoopKind::Inv => CxlMsg::BiSnpInv { addr },
                        SnoopKind::Data => CxlMsg::BiSnpData { addr },
                    },
                    needs_memory: false,
                });
            }
            let line = self.lines.get_mut(addr.0).expect("resident above");
            line.snoop = Some(Snoop {
                kind,
                waiting: targets,
                requester: src,
                grant,
                since: now,
                retries: 0,
            });
        }
    }

    fn snoop_response(
        &mut self,
        src: ComponentId,
        addr: Addr,
        retained_shared: bool,
        now: Option<Time>,
        out: &mut Vec<DcohEffect>,
    ) {
        let src_bit = host_bit(&mut self.hosts, src);
        let line = self.lines.entry(addr.0);
        let Some(snoop) = &mut line.snoop else {
            // A BIRsp can arrive for a line whose snoop already resolved
            // (e.g. the host's eviction writeback completed it); harmless.
            return;
        };
        if !snoop.waiting.remove(&src) {
            return; // duplicate / stale
        }
        if !snoop.waiting.is_empty() {
            return;
        }
        let snoop = line.snoop.take().expect("checked above");
        let requester_bit = host_bit(&mut self.hosts, snoop.requester);
        let line = self.lines.get_mut(addr.0).expect("resident above");
        // Update holders and complete the blocked request.
        match snoop.kind {
            SnoopKind::Inv => {
                line.holders = HolderMask::exclusive(requester_bit);
            }
            SnoopKind::Data => {
                let mut mask = requester_bit;
                if retained_shared {
                    // The previous owner keeps a shared copy.
                    mask |= src_bit;
                }
                line.holders = HolderMask::shared(mask);
            }
        }
        out.push(DcohEffect::Send {
            dst: snoop.requester,
            msg: CxlMsg::MemData {
                addr,
                data: line.data,
                grant: snoop.grant,
                poisoned: line.poisoned,
            },
            needs_memory: true,
        });
        // Drain queued same-line requests now that the line is unblocked.
        loop {
            let line = self.lines.get_mut(addr.0).expect("line exists");
            if line.snoop.is_some() {
                break;
            }
            let Some((h, m)) = line.queue.pop_front() else {
                break;
            };
            self.admit(h, m, now, out);
        }
    }
}

/// Registry bit for `src`, registering it on first contact. Holder
/// tracking is correctness-bearing, so more than 64 distinct hosts is a
/// hard error rather than a silent saturation; real topologies have one
/// host per bridge (a handful).
fn host_bit(hosts: &mut Vec<ComponentId>, src: ComponentId) -> u64 {
    let slot = hosts.iter().position(|h| *h == src).unwrap_or_else(|| {
        hosts.push(src);
        hosts.len() - 1
    });
    assert!(
        slot < 64,
        "DCOH holder masks support at most 64 distinct hosts"
    );
    1u64 << slot
}

/// Table-event name of a device-bound M2S message (`None` for host-bound
/// messages, which the DCOH rejects structurally).
#[cfg(debug_assertions)]
fn device_event_name(msg: &CxlMsg) -> Option<&'static str> {
    match msg {
        CxlMsg::MemRdA { .. } => Some("MemRdA"),
        CxlMsg::MemRdS { .. } => Some("MemRdS"),
        CxlMsg::MemWrI { .. } => Some("MemWrI"),
        CxlMsg::MemWrS { .. } => Some("MemWrS"),
        CxlMsg::BiRspI { .. } => Some("BiRspI"),
        CxlMsg::BiRspS { .. } => Some("BiRspS"),
        CxlMsg::BiConflict { .. } => Some("BiConflict"),
        _ => None,
    }
}

/// Cached table for the debug conformance assert in
/// [`DcohEngine::handle_at`].
#[cfg(debug_assertions)]
fn dcoh_cached_table() -> &'static TransitionTable {
    use std::sync::OnceLock;
    static TABLE: OnceLock<TransitionTable> = OnceLock::new();
    TABLE.get_or_init(dcoh_transition_table)
}

/// The DCOH's transition relation as data.
///
/// Per-line states are the holder classes (`NoHolders`/`Shared`/
/// `Exclusive`) plus the two blocking-snoop transients (`SnpInv`/
/// `SnpData`) — the source of the convoy effect: requests arriving in a
/// `Snp*` state stall until the `BIRsp*` resolves the snoop. Writebacks
/// and the `BIConflict` handshake are consumed in *every* state (the
/// response-network sink property the static deadlock analysis leans on).
#[allow(clippy::vec_init_then_push)] // row-by-row reads like the table it mirrors
pub fn dcoh_transition_table() -> TransitionTable {
    use Vnet::{Req, Resp, Snoop};
    let fill = Action::complete("MemData", Resp, "bridge");
    let cmp = Action::complete("Cmp", Resp, "bridge");
    let snp_i = Action::send("BiSnpInv", Snoop, "bridge");
    let snp_d = Action::send("BiSnpData", Snoop, "bridge");
    let ack = Action::send("BiConflictAck", Resp, "bridge");
    const ALL: [&str; 5] = ["NoHolders", "Shared", "Exclusive", "SnpInv", "SnpData"];
    let mut rows = Vec::new();

    // ---- requests (Table I: MemRd,A / MemRd,S) ----
    rows.push(TransitionRow::next(
        "NoHolders",
        "MemRdA",
        "Exclusive",
        vec![fill.clone()],
        "dcoh.rs:admit (no holders, grant M)",
    ));
    rows.push(TransitionRow::next(
        "NoHolders",
        "MemRdS",
        "Exclusive",
        vec![fill.clone()],
        "dcoh.rs:admit (no holders, grant E)",
    ));
    rows.push(TransitionRow::next(
        "Shared",
        "MemRdS",
        "Shared",
        vec![fill.clone()],
        "dcoh.rs:admit (grant S)",
    ));
    rows.push(TransitionRow::next(
        "Shared",
        "MemRdA",
        "Exclusive",
        vec![fill.clone()],
        "dcoh.rs:admit (requester is the sole sharer)",
    ));
    rows.push(
        TransitionRow::next(
            "Shared",
            "MemRdA",
            "SnpInv",
            vec![snp_i.clone()],
            "dcoh.rs:admit (invalidate sharers)",
        )
        .nested(),
    );
    for ev in ["MemRdA", "MemRdS"] {
        rows.push(TransitionRow::next(
            "Exclusive",
            ev,
            "Exclusive",
            vec![fill.clone()],
            "dcoh.rs:admit (recorded owner re-requests; snooping it would deadlock)",
        ));
    }
    rows.push(
        TransitionRow::next(
            "Exclusive",
            "MemRdA",
            "SnpInv",
            vec![snp_i.clone()],
            "dcoh.rs:admit (snoop the owner)",
        )
        .nested(),
    );
    rows.push(
        TransitionRow::next(
            "Exclusive",
            "MemRdS",
            "SnpData",
            vec![snp_d.clone()],
            "dcoh.rs:admit (snoop the owner for data)",
        )
        .nested(),
    );
    for s in ["SnpInv", "SnpData"] {
        for ev in ["MemRdA", "MemRdS"] {
            rows.push(TransitionRow::stall(
                s,
                ev,
                vec!["BiRspI", "BiRspS"],
                "dcoh.rs:handle_at (convoy queue behind blocking snoop)",
            ));
        }
    }

    // ---- writebacks: accepted in every state, never stall ----
    rows.push(TransitionRow::next(
        "Exclusive",
        "MemWrI",
        "NoHolders",
        vec![cmp.clone()],
        "dcoh.rs:handle_at/MemWrI (owner eviction)",
    ));
    rows.push(TransitionRow::next(
        "Exclusive",
        "MemWrS",
        "Shared",
        vec![cmp.clone()],
        "dcoh.rs:handle_at/MemWrS (owner retains shared)",
    ));
    for s in ["NoHolders", "Shared", "SnpInv", "SnpData"] {
        for ev in ["MemWrI", "MemWrS"] {
            rows.push(TransitionRow::next(
                s,
                ev,
                s,
                vec![cmp.clone()],
                "dcoh.rs:handle_at (writeback racing a snoop or eviction)",
            ));
        }
    }

    // ---- snoop responses ----
    for ev in ["BiRspI", "BiRspS"] {
        rows.push(TransitionRow::next(
            "SnpInv",
            ev,
            "Exclusive",
            vec![fill.clone()],
            "dcoh.rs:snoop_response (last waiter; grant the blocked request)",
        ));
        rows.push(TransitionRow::next(
            "SnpInv",
            ev,
            "SnpInv",
            vec![],
            "dcoh.rs:snoop_response (more waiters outstanding)",
        ));
        rows.push(TransitionRow::next(
            "SnpData",
            ev,
            "Shared",
            vec![fill.clone()],
            "dcoh.rs:snoop_response (downgrade resolved)",
        ));
        rows.push(TransitionRow::next(
            "SnpData",
            ev,
            "SnpData",
            vec![],
            "dcoh.rs:snoop_response (stale responder)",
        ));
        for s in ["NoHolders", "Shared", "Exclusive"] {
            rows.push(TransitionRow::next(
                s,
                ev,
                s,
                vec![],
                "dcoh.rs:snoop_response (snoop already resolved; ignored)",
            ));
        }
    }

    // ---- conflict handshake: answered immediately in any state ----
    for s in ALL {
        rows.push(TransitionRow::next(
            s,
            "BiConflict",
            s,
            vec![ack.clone()],
            "dcoh.rs:handle_at/BiConflict (M2S FIFO decides serialization)",
        ));
    }

    // ---- region-summary demotion (PR-9): an internal "Quiesce" step.
    // A line may drop to its flat summary only in a stable holder class,
    // and demotion must neither change protocol state nor emit messages
    // (self-loop, no actions). Transactional states must stay resident.
    for s in ["NoHolders", "Shared", "Exclusive"] {
        rows.push(TransitionRow::next(
            s,
            "Quiesce",
            s,
            vec![],
            "dcoh.rs:demote_quiesced (line demotes to LineSummary)",
        ));
    }
    for s in ["SnpInv", "SnpData"] {
        rows.push(TransitionRow::forbidden(
            s,
            "Quiesce",
            "a blocking snoop / convoy queue holds the line resident",
            "dcoh.rs:demote_quiesced",
        ));
    }

    TransitionTable {
        controller: "dcoh",
        states: ALL.to_vec(),
        events: vec![
            "MemRdA",
            "MemRdS",
            "MemWrI",
            "MemWrS",
            "BiRspI",
            "BiRspS",
            "BiConflict",
            "Quiesce",
        ],
        event_vnets: vec![
            ("MemRdA", Req),
            ("MemRdS", Req),
            ("MemWrI", Req),
            ("MemWrS", Req),
            ("BiRspI", Resp),
            ("BiRspS", Resp),
            ("BiConflict", Req),
        ],
        initial: vec!["NoHolders"],
        forbidden: vec![],
        // Everything the DCOH consumes arrives over the wire from the
        // bridges; only the internal region-summary demotion step
        // originates locally.
        assumed_available: vec!["Quiesce"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H1: ComponentId = ComponentId(1);
    const H2: ComponentId = ComponentId(2);
    const H3: ComponentId = ComponentId(3);
    const X: Addr = Addr(0x20);

    fn sends(effects: &[DcohEffect]) -> Vec<(ComponentId, CxlMsg)> {
        effects
            .iter()
            .map(|e| match e {
                DcohEffect::Send { dst, msg, .. } => (*dst, *msg),
            })
            .collect()
    }

    #[test]
    fn read_unshared_grants_exclusive() {
        let mut d = DcohEngine::new();
        d.seed_data(X, 5);
        let eff = d.handle(H1, CxlMsg::MemRdS { addr: X });
        assert_eq!(
            sends(&eff),
            vec![(
                H1,
                CxlMsg::MemData {
                    addr: X,
                    data: 5,
                    grant: CxlGrant::E,
                    poisoned: false
                }
            )]
        );
        assert_eq!(d.holders(X), CxlHolders::Exclusive(H1));
    }

    #[test]
    fn pending_summary_lists_lines_in_address_order() {
        // Promote the higher address first, so the live walk (slab
        // order) meets it before the lower one.
        let (lo, hi) = (X, Addr(0x4000));
        let mut d = DcohEngine::new();
        for a in [hi, lo] {
            d.handle(H1, CxlMsg::MemRdA { addr: a });
        }
        for a in [hi, lo] {
            d.handle(H2, CxlMsg::MemRdS { addr: a });
        }
        let walk: Vec<u64> = d.lines.iter_live().map(|(k, _)| k).collect();
        assert_eq!(walk, vec![hi.0, lo.0], "slab order is promotion order");
        let s = d.pending_summary();
        let at = |a: Addr| s.find(&format!("[{a}:")).expect("blocked line listed");
        assert!(at(lo) < at(hi), "not in address order: {s}");
    }

    #[test]
    fn rda_grants_m() {
        let mut d = DcohEngine::new();
        let eff = d.handle(H1, CxlMsg::MemRdA { addr: X });
        assert!(matches!(
            sends(&eff)[0].1,
            CxlMsg::MemData {
                grant: CxlGrant::M,
                ..
            }
        ));
    }

    #[test]
    fn read_with_owner_snoops_then_grants() {
        let mut d = DcohEngine::new();
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        let eff = d.handle(H2, CxlMsg::MemRdS { addr: X });
        assert_eq!(sends(&eff), vec![(H1, CxlMsg::BiSnpData { addr: X })]);
        assert!(!d.idle());
        // Owner was dirty: writes back retaining S, then responds BIRspS.
        let eff = d.handle(
            H1,
            CxlMsg::MemWrS {
                addr: X,
                data: 9,
                poisoned: false,
            },
        );
        assert_eq!(sends(&eff), vec![(H1, CxlMsg::Cmp { addr: X })]);
        let eff = d.handle(H1, CxlMsg::BiRspS { addr: X });
        assert_eq!(
            sends(&eff),
            vec![(
                H2,
                CxlMsg::MemData {
                    addr: X,
                    data: 9,
                    grant: CxlGrant::S,
                    poisoned: false
                }
            )]
        );
        assert_eq!(d.holders(X), CxlHolders::Shared(BTreeSet::from([H1, H2])));
        assert!(d.idle());
    }

    #[test]
    fn write_with_sharers_invalidates_all() {
        let mut d = DcohEngine::new();
        // Make H1 exclusive, downgrade via H2 read, then H3 writes.
        d.handle(H1, CxlMsg::MemRdS { addr: X });
        d.handle(H2, CxlMsg::MemRdS { addr: X });
        d.handle(H1, CxlMsg::BiRspS { addr: X });
        assert_eq!(d.holders(X), CxlHolders::Shared(BTreeSet::from([H1, H2])));
        let eff = d.handle(H3, CxlMsg::MemRdA { addr: X });
        let s = sends(&eff);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|(_, m)| matches!(m, CxlMsg::BiSnpInv { .. })));
        d.handle(H1, CxlMsg::BiRspI { addr: X });
        let eff = d.handle(H2, CxlMsg::BiRspI { addr: X });
        assert!(matches!(
            sends(&eff)[0],
            (
                H3,
                CxlMsg::MemData {
                    grant: CxlGrant::M,
                    ..
                }
            )
        ));
        assert_eq!(d.holders(X), CxlHolders::Exclusive(H3));
    }

    #[test]
    fn requests_queue_behind_snoop_convoy() {
        let mut d = DcohEngine::new();
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        d.handle(H2, CxlMsg::MemRdA { addr: X }); // snoops H1, blocks
        let eff = d.handle(H3, CxlMsg::MemRdS { addr: X }); // queues
        assert!(sends(&eff).is_empty());
        assert_eq!(d.stalled_requests, 1);
        // H1 responds (clean): H2 granted, then H3's queued read snoops H2.
        let eff = d.handle(H1, CxlMsg::BiRspI { addr: X });
        let s = sends(&eff);
        assert!(s.iter().any(|(h, m)| *h == H2
            && matches!(
                m,
                CxlMsg::MemData {
                    grant: CxlGrant::M,
                    ..
                }
            )));
        assert!(s
            .iter()
            .any(|(h, m)| *h == H2 && matches!(m, CxlMsg::BiSnpData { .. })));
    }

    #[test]
    fn conflict_ack_reports_serialization_order() {
        let mut d = DcohEngine::new();
        // H1 exclusive; H2 requests ownership -> BISnpInv to H1.
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        d.handle(H2, CxlMsg::MemRdA { addr: X });
        // Fig. 2 right: H1's own upgrade arrives while blocked -> queued.
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        let eff = d.handle(H1, CxlMsg::BiConflict { addr: X });
        assert_eq!(
            sends(&eff),
            vec![(
                H1,
                CxlMsg::BiConflictAck {
                    addr: X,
                    request_was_serialized: false
                }
            )]
        );
        // Fig. 2 middle: H2 (whose request was already granted... simulate
        // by asking for a conflict with nothing queued).
        let eff = d.handle(H2, CxlMsg::BiConflict { addr: X });
        assert_eq!(
            sends(&eff),
            vec![(
                H2,
                CxlMsg::BiConflictAck {
                    addr: X,
                    request_was_serialized: true
                }
            )]
        );
        assert_eq!(d.conflicts, 2);
    }

    #[test]
    fn eviction_writeback_clears_owner() {
        let mut d = DcohEngine::new();
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        let eff = d.handle(
            H1,
            CxlMsg::MemWrI {
                addr: X,
                data: 44,
                poisoned: false,
            },
        );
        assert_eq!(sends(&eff), vec![(H1, CxlMsg::Cmp { addr: X })]);
        assert_eq!(d.holders(X), CxlHolders::None);
        assert_eq!(d.data(X), 44);
        // A fresh reader is granted E with the written data.
        let eff = d.handle(H2, CxlMsg::MemRdS { addr: X });
        assert!(matches!(
            sends(&eff)[0].1,
            CxlMsg::MemData {
                data: 44,
                grant: CxlGrant::E,
                ..
            }
        ));
    }

    #[test]
    fn eviction_racing_snoop_resolves() {
        // H1 owner starts eviction; DCOH concurrently snoops H1 for H2's
        // write. The MemWr carries the data; the BIRspI completes the
        // snoop.
        let mut d = DcohEngine::new();
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        d.handle(H2, CxlMsg::MemRdA { addr: X }); // BISnpInv -> H1
        let eff = d.handle(
            H1,
            CxlMsg::MemWrI {
                addr: X,
                data: 7,
                poisoned: false,
            },
        );
        assert_eq!(sends(&eff), vec![(H1, CxlMsg::Cmp { addr: X })]);
        let eff = d.handle(H1, CxlMsg::BiRspI { addr: X });
        assert!(matches!(
            sends(&eff)[0],
            (
                H2,
                CxlMsg::MemData {
                    data: 7,
                    grant: CxlGrant::M,
                    ..
                }
            )
        ));
    }

    #[test]
    fn silent_dropper_is_regranted_without_snooping_itself() {
        let mut d = DcohEngine::new();
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        // H1 silently dropped its clean copy and asks again: the DCOH must
        // NOT snoop H1 (deadlock) but re-grant directly.
        let eff = d.handle(H1, CxlMsg::MemRdA { addr: X });
        assert_eq!(
            sends(&eff),
            vec![(
                H1,
                CxlMsg::MemData {
                    addr: X,
                    data: 0,
                    grant: CxlGrant::M,
                    poisoned: false
                }
            )]
        );
        let eff = d.handle(H1, CxlMsg::MemRdS { addr: X });
        assert!(matches!(
            sends(&eff)[0].1,
            CxlMsg::MemData {
                grant: CxlGrant::E,
                ..
            }
        ));
        assert!(d.idle());
    }

    #[test]
    fn lost_grant_is_replayed_to_owner_despite_pending_snoop() {
        // H1 is granted M but the MemData is lost in the fabric; H2's
        // request then snoops H1. H1's retry must get the grant replayed
        // — queueing it behind a snoop aimed at H1 itself would deadlock
        // (H1 cannot answer a snoop for a fill it never received).
        let mut d = DcohEngine::new();
        d.resilient = true;
        d.handle(H1, CxlMsg::MemRdA { addr: X });
        d.handle(H2, CxlMsg::MemRdA { addr: X }); // BISnpInv -> H1
        let eff = d.handle(H1, CxlMsg::MemRdA { addr: X }); // retry
        assert_eq!(
            sends(&eff),
            vec![(
                H1,
                CxlMsg::MemData {
                    addr: X,
                    data: 0,
                    grant: CxlGrant::M,
                    poisoned: false
                }
            )]
        );
        assert_eq!(d.grants_replayed, 1);
        // The snoop is untouched: once H1 answers it, H2 is served.
        let eff = d.handle(H1, CxlMsg::BiRspI { addr: X });
        assert!(matches!(
            sends(&eff)[0],
            (
                H2,
                CxlMsg::MemData {
                    grant: CxlGrant::M,
                    ..
                }
            )
        ));
        // H2 now owns the line, so its own retry is likewise replayed.
        let eff = d.handle(H2, CxlMsg::MemRdA { addr: X });
        assert!(matches!(
            sends(&eff)[0],
            (
                H2,
                CxlMsg::MemData {
                    grant: CxlGrant::M,
                    ..
                }
            )
        ));
        assert_eq!(d.grants_replayed, 2);
        assert!(d.idle());
    }

    #[test]
    fn stale_birsp_is_ignored() {
        let mut d = DcohEngine::new();
        let eff = d.handle(H1, CxlMsg::BiRspI { addr: X });
        assert!(eff.is_empty());
    }

    #[test]
    fn shared_read_grants_s() {
        let mut d = DcohEngine::new();
        d.handle(H1, CxlMsg::MemRdS { addr: X }); // E
        d.handle(H2, CxlMsg::MemRdS { addr: X }); // snoop H1
        d.handle(H1, CxlMsg::BiRspS { addr: X });
        let eff = d.handle(H3, CxlMsg::MemRdS { addr: X });
        assert!(matches!(
            sends(&eff)[0],
            (
                H3,
                CxlMsg::MemData {
                    grant: CxlGrant::S,
                    ..
                }
            )
        ));
        assert_eq!(
            d.holders(X),
            CxlHolders::Shared(BTreeSet::from([H1, H2, H3]))
        );
    }
}
