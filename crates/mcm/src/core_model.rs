//! The out-of-order timing core with a configurable memory consistency
//! model.
//!
//! Follows the paper's methodology (§V): rather than modelling different
//! ISAs, one core model exposes a single ordering knob — like gem5's
//! `needsTSO` flag — so performance differences are attributable to the
//! MCM alone. The core keeps a window of in-flight memory operations; an
//! operation may issue when every program-earlier, still-incomplete
//! operation that [`c3_protocol::mcm::must_order`] orders before it has
//! completed. TSO therefore drains stores in order (the store-buffer
//! effect) while the weak model overlaps them.
//!
//! The issue logic evaluates that rule in one forward pass per round:
//! an [`OrderSummary`] of the incomplete instructions seen so far answers
//! each candidate in O(1), so a round costs O(window), not a rescan of
//! the window per candidate pair.

use std::any::Any;

use c3_protocol::mcm::{Mcm, OrderSummary};
use c3_protocol::msg::{CoreReq, CoreResp, SysMsg};
use c3_protocol::ops::{Instr, Reg, ThreadProgram};
use c3_protocol::states::ProtocolFamily;
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::rng::SimRng;
use c3_sim::stats::Report;
use c3_sim::time::{Delay, Time};

/// Timing-core configuration.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Memory consistency model enforced by the issue logic.
    pub mcm: Mcm,
    /// The cluster's coherence protocol (RCC cores hand fences to the L1).
    pub family: ProtocolFamily,
    /// Maximum in-flight memory operations (memory window of the 8-wide
    /// OoO core of Table III).
    pub window: usize,
    /// Fixed delay before the first instruction issues (litmus runs use
    /// random staggering here).
    pub start_delay: Delay,
    /// Maximum random per-operation issue jitter in cycles (models
    /// pipeline variability; also diversifies litmus interleavings).
    pub issue_jitter: u32,
}

impl CoreConfig {
    /// Paper-like defaults for the given MCM and protocol.
    pub fn new(mcm: Mcm, family: ProtocolFamily) -> Self {
        CoreConfig {
            mcm,
            family,
            window: 32,
            start_delay: Delay::ZERO,
            issue_jitter: 2,
        }
    }

    /// Override the start delay.
    pub fn with_start_delay(mut self, d: Delay) -> Self {
        self.start_delay = d;
        self
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpState {
    Waiting,
    Issued,
    Done,
}

/// Instructions examined beyond the oldest incomplete one (the 192-entry
/// ROB of Table III, scaled to the memory-operation window).
const ROB_LOOKAHEAD: usize = 48;

/// TSO store-buffer capacity (x86 cores have 40–70 entries; scaled to the
/// memory-operation window).
const STORE_BUFFER_CAP: usize = 6;

/// Tag bit marking RFO-prefetch responses (dropped by the core).
const PREFETCH_TAG: u64 = 1 << 62;

/// The timing core component.
#[derive(Debug)]
pub struct TimingCore {
    name: String,
    l1: ComponentId,
    cfg: CoreConfig,
    program: ThreadProgram,
    state: Vec<OpState>,
    /// Retirement pointer: every instruction before it is `Done`, and
    /// after each handler it is the first one that is not (squashes only
    /// revert instructions behind it), so `oldest == n` means finished.
    oldest: usize,
    /// Instructions issued to the L1 or into `Work` and not yet complete.
    inflight: usize,
    /// The issue pass's ordering summary, kept to reuse its buffer.
    summary: OrderSummary,
    /// TSO store buffer: retired-but-undrained stores (instruction
    /// indices), drained to the L1 strictly in order. This is what makes
    /// TSO's store→load reordering *and* its realistic performance: the
    /// core retires a store into the buffer and moves on.
    store_buffer: std::collections::VecDeque<usize>,
    drain_inflight: bool,
    regs: [u64; 32],
    rng: SimRng,
    finished_at: Option<Time>,
    retired: u64,
    squashes: u64,
}

impl TimingCore {
    /// Create a core running `program` against `l1`. `seed` feeds the
    /// issue-jitter stream (forked per core by the caller).
    pub fn new(
        name: impl Into<String>,
        l1: ComponentId,
        cfg: CoreConfig,
        program: ThreadProgram,
        seed: u64,
    ) -> Self {
        let n = program.len();
        TimingCore {
            name: name.into(),
            l1,
            cfg,
            program,
            state: vec![OpState::Waiting; n],
            oldest: 0,
            inflight: 0,
            summary: OrderSummary::with_capacity(ROB_LOOKAHEAD),
            store_buffer: std::collections::VecDeque::new(),
            drain_inflight: false,
            regs: [0; 32],
            rng: SimRng::seed_from(seed),
            finished_at: None,
            retired: 0,
            squashes: 0,
        }
    }

    /// Register value (litmus observation).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// Completion time, if the program has finished.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    /// Whether waiting instruction `j` may perform now, given the summary
    /// of the incomplete instructions between `oldest` and `j`.
    fn may_issue(&self, summary: &OrderSummary, j: usize) -> bool {
        let instr = &self.program.instrs[j];
        // TSO loads *issue* speculatively out of order (gem5's O3 does the
        // same): the architectural load-load order is enforced by
        // invalidation-triggered squashes (see `squash_loads`), not by
        // serializing issue. Ordering checks for a TSO load therefore use
        // the weak matrix — same-address ordering, fences and annotations
        // still apply.
        let effective_mcm = if self.cfg.mcm == Mcm::Tso && matches!(instr, Instr::Load { .. }) {
            Mcm::Weak
        } else {
            self.cfg.mcm
        };
        !summary.orders(effective_mcm, instr)
    }

    /// Fold instruction `j`, in its current state, into `summary`.
    /// Returns `false` when nothing behind `j` may issue: an incomplete
    /// `Work` (non-overlappable front-end compute) or an incomplete RCC
    /// fence (which must reach the L1) blocks everything younger.
    fn fold(&self, summary: &mut OrderSummary, j: usize) -> bool {
        let instr = &self.program.instrs[j];
        let complete = self.state[j] == OpState::Done;
        match instr {
            Instr::Work(_) if !complete => false,
            Instr::Fence(_) if !complete && self.cfg.family == ProtocolFamily::Rcc => false,
            _ => {
                summary.push(instr, complete);
                true
            }
        }
    }

    /// A line was invalidated/lost: squash speculatively completed TSO
    /// loads of that line that are not yet retired (an older instruction
    /// is still incomplete) — they re-issue and read the fresh value.
    fn squash_loads(&mut self, addr: c3_protocol::ops::Addr, ctx: &mut Ctx<'_, SysMsg>) {
        if self.cfg.mcm != Mcm::Tso {
            return; // weak/SC cores take no ordering obligation from this
        }
        let n = self.program.len();
        let horizon = (self.oldest + ROB_LOOKAHEAD).min(n);
        let mut squashed = false;
        for j in self.oldest..horizon {
            if self.state[j] != OpState::Done {
                continue;
            }
            if let Instr::Load { addr: a, .. } = self.program.instrs[j] {
                if a == addr && j > self.oldest {
                    self.state[j] = OpState::Waiting;
                    self.retired -= 1;
                    self.squashes += 1;
                    squashed = true;
                }
            }
        }
        if squashed {
            self.try_issue(ctx);
        }
    }

    fn try_issue(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        while self.issue_round(|core, j| core.issue(j, ctx)) {}
        if self.finished_at.is_none() && self.done() {
            self.finished_at = Some(ctx.now);
        }
    }

    /// One issue round: advance `oldest` past the completed prefix, then
    /// a single forward pass over the reorder window that offers each
    /// waiting instruction the summary admits to `issue` and folds every
    /// instruction, in its post-decision state, into the summary for the
    /// ones behind it. Returns whether any `issue` call changed state.
    fn issue_round(&mut self, mut issue: impl FnMut(&mut Self, usize) -> bool) -> bool {
        let n = self.program.len();
        while self.oldest < n && self.state[self.oldest] == OpState::Done {
            self.oldest += 1;
        }
        // Consider only the reorder-buffer window of instructions.
        let horizon = (self.oldest + ROB_LOOKAHEAD).min(n);
        let mut summary = std::mem::take(&mut self.summary);
        summary.clear();
        let mut changed = false;
        for j in self.oldest..horizon {
            if self.state[j] == OpState::Waiting {
                if self.inflight >= self.cfg.window {
                    break;
                }
                if self.may_issue(&summary, j) {
                    changed |= issue(self, j);
                }
            }
            if !self.fold(&mut summary, j) {
                break;
            }
        }
        self.summary = summary;
        changed
    }

    /// Perform admitted instruction `j`; returns `false` when a TSO
    /// store-buffer condition holds it back after all.
    fn issue(&mut self, j: usize, ctx: &mut Ctx<'_, SysMsg>) -> bool {
        let instr = self.program.instrs[j];
        let tso = self.cfg.mcm == Mcm::Tso;
        match instr {
            Instr::Work(cycles) => {
                self.state[j] = OpState::Issued;
                self.inflight += 1;
                ctx.wake_after(Delay::from_cycles(cycles as u64, 2_000), j as u64);
            }
            Instr::Fence(_) if self.cfg.family != ProtocolFamily::Rcc => {
                // TSO full fences drain the store buffer first.
                if tso && (!self.store_buffer.is_empty() || self.drain_inflight) {
                    return false;
                }
                // Pure ordering: completes as soon as it may issue.
                self.state[j] = OpState::Done;
                self.retired += 1;
            }
            Instr::Store { addr, .. } if tso => {
                // Retire into the store buffer; the drain makes the
                // store visible in order, off the critical path.
                if self.store_buffer.len() >= STORE_BUFFER_CAP {
                    return false; // buffer full: stall this store
                }
                self.state[j] = OpState::Done;
                self.retired += 1;
                self.store_buffer.push_back(j);
                // RFO prefetch: overlap the miss latency so the
                // in-order drain usually hits (x86 store buffers
                // issue ownership requests for all entries). The
                // issue time varies — RFOs fire when buffer slots
                // are scheduled, not instantaneously — which also
                // lets younger loads overtake the store (the
                // store-buffering behaviour of SB litmus tests).
                let rfo_jitter = self.rng.below(24);
                ctx.send_direct(
                    self.l1,
                    SysMsg::CoreReq(CoreReq {
                        tag: PREFETCH_TAG | j as u64,
                        instr: Instr::Prefetch { addr },
                    }),
                    Delay::from_cycles(1 + rfo_jitter, 2_000),
                );
                self.pump_drain(ctx);
            }
            Instr::Load { addr, reg, .. } if tso => {
                // Store-to-load forwarding from the buffer.
                if let Some(val) = self.forward_from_buffer(addr, j) {
                    self.state[j] = OpState::Done;
                    self.retired += 1;
                    self.regs[reg.0 as usize] = val;
                } else {
                    self.issue_to_l1(j, instr, ctx);
                }
            }
            Instr::Rmw { .. } if tso => {
                // Atomics serialize with the store buffer.
                if !self.store_buffer.is_empty() || self.drain_inflight {
                    return false;
                }
                self.issue_to_l1(j, instr, ctx);
            }
            _ => self.issue_to_l1(j, instr, ctx),
        }
        true
    }

    fn issue_to_l1(&mut self, j: usize, instr: Instr, ctx: &mut Ctx<'_, SysMsg>) {
        self.state[j] = OpState::Issued;
        self.inflight += 1;
        let jitter = if self.cfg.issue_jitter > 0 {
            self.rng.below(self.cfg.issue_jitter as u64 + 1)
        } else {
            0
        };
        ctx.send_direct(
            self.l1,
            SysMsg::CoreReq(CoreReq {
                tag: j as u64,
                instr,
            }),
            Delay::from_cycles(1 + jitter, 2_000),
        );
    }

    /// Youngest buffered store to `addr` older than instruction `j`.
    fn forward_from_buffer(&self, addr: c3_protocol::ops::Addr, j: usize) -> Option<u64> {
        self.store_buffer
            .iter()
            .rev()
            .filter(|&&i| i < j)
            .find_map(|&i| match self.program.instrs[i] {
                Instr::Store { addr: a, val, .. } if a == addr => Some(val),
                _ => None,
            })
    }

    /// Issue the next buffered store to the L1 (FIFO drain). A store only
    /// becomes drain-eligible a commit-latency after entering the buffer —
    /// this residency is what lets younger loads overtake it (the
    /// store-buffering behaviour SB litmus tests observe).
    fn pump_drain(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        if self.drain_inflight {
            return;
        }
        let Some(&j) = self.store_buffer.front() else {
            return;
        };
        self.drain_inflight = true;
        ctx.send_direct(
            self.l1,
            SysMsg::CoreReq(CoreReq {
                tag: j as u64,
                instr: self.program.instrs[j],
            }),
            Delay::from_cycles(25, 2_000),
        );
    }

    fn complete(&mut self, j: usize, value: u64, ctx: &mut Ctx<'_, SysMsg>) {
        // A response for an already-retired store is a drain completion.
        if self.state[j] == OpState::Done {
            debug_assert_eq!(self.store_buffer.front(), Some(&j));
            self.store_buffer.pop_front();
            self.drain_inflight = false;
            self.pump_drain(ctx);
            self.try_issue(ctx); // fences / atomics may unblock
            return;
        }
        debug_assert_eq!(self.state[j], OpState::Issued);
        self.state[j] = OpState::Done;
        self.inflight -= 1;
        self.retired += 1;
        match self.program.instrs[j] {
            Instr::Load { reg, .. } | Instr::Rmw { reg, .. } => {
                self.regs[reg.0 as usize] = value;
            }
            _ => {}
        }
        self.try_issue(ctx);
    }
}

impl Component<SysMsg> for TimingCore {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        if self.cfg.start_delay > Delay::ZERO {
            ctx.wake_after(self.cfg.start_delay, u64::MAX);
        } else {
            self.try_issue(ctx);
        }
    }

    fn on_wake(&mut self, token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        if token == u64::MAX {
            self.try_issue(ctx);
            return;
        }
        // A Work instruction finished.
        self.complete(token as usize, 0, ctx);
    }

    fn handle(&mut self, msg: SysMsg, _src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        match msg {
            SysMsg::CoreResp(CoreResp { tag, .. }) if tag & PREFETCH_TAG != 0 => {}
            SysMsg::CoreResp(CoreResp { tag, value }) => self.complete(tag as usize, value, ctx),
            SysMsg::InvHint { addr } => self.squash_loads(addr, ctx),
            other => panic!("core received {other:?}"),
        }
    }

    fn done(&self) -> bool {
        self.oldest >= self.program.len() && self.store_buffer.is_empty() && !self.drain_inflight
    }

    fn report(&self, out: &mut Report) {
        out.set(format!("{}.retired", self.name), self.retired as f64);
        out.set(format!("{}.squashes", self.name), self.squashes as f64);
        if let Some(t) = self.finished_at {
            out.set(format!("{}.finished_ns", self.name), t.as_ns() as f64);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_protocol::mcm::must_order;
    use c3_protocol::ops::{AccessOrder, Addr, FenceKind};
    use c3_sim::kernel::{RunOutcome, Simulator};

    fn core(mcm: Mcm, program: ThreadProgram) -> TimingCore {
        core_in(mcm, ProtocolFamily::Mesi, program)
    }

    fn core_in(mcm: Mcm, family: ProtocolFamily, program: ThreadProgram) -> TimingCore {
        TimingCore::new(
            "c",
            ComponentId(1),
            CoreConfig::new(mcm, family),
            program,
            7,
        )
    }

    /// The instructions one issue round admits, states left untouched.
    fn issuable(c: &mut TimingCore) -> Vec<usize> {
        let mut admitted = Vec::new();
        c.issue_round(|_, j| {
            admitted.push(j);
            false
        });
        admitted
    }

    /// The issue rule as written before the one-pass summary: check the
    /// candidate against every earlier incomplete instruction with
    /// `must_order`, rescanning the instructions between each pair.
    fn may_issue_oracle(c: &TimingCore, j: usize) -> bool {
        let instr = &c.program.instrs[j];
        let effective_mcm = if c.cfg.mcm == Mcm::Tso && matches!(instr, Instr::Load { .. }) {
            Mcm::Weak
        } else {
            c.cfg.mcm
        };
        for i in c.oldest..j {
            if c.state[i] == OpState::Done {
                continue;
            }
            let earlier = &c.program.instrs[i];
            match earlier {
                Instr::Work(_) => return false,
                Instr::Fence(_) if c.cfg.family == ProtocolFamily::Rcc => return false,
                _ => {}
            }
            if must_order(effective_mcm, earlier, &c.program.instrs[i + 1..j], instr) {
                return false;
            }
        }
        true
    }

    #[test]
    fn tso_store_load_may_issue_out_of_order() {
        let p = ThreadProgram::new().store(Addr(1), 1).load(Addr(2), Reg(0));
        let mut c = core(Mcm::Tso, p);
        // The load (index 1) may issue although the store is incomplete.
        assert!(issuable(&mut c).contains(&1));
    }

    #[test]
    fn tso_stores_stay_ordered() {
        let p = ThreadProgram::new().store(Addr(1), 1).store(Addr(2), 1);
        let mut c = core(Mcm::Tso, p);
        assert!(!issuable(&mut c).contains(&1));
    }

    #[test]
    fn weak_overlaps_everything_across_addresses() {
        let p = ThreadProgram::new()
            .store(Addr(1), 1)
            .store(Addr(2), 1)
            .load(Addr(3), Reg(0));
        let mut c = core(Mcm::Weak, p);
        let admitted = issuable(&mut c);
        assert!(admitted.contains(&1));
        assert!(admitted.contains(&2));
    }

    #[test]
    fn weak_respects_fence() {
        let p = ThreadProgram::new()
            .store(Addr(1), 1)
            .fence()
            .store(Addr(2), 1);
        let mut c = core(Mcm::Weak, p);
        assert!(!issuable(&mut c).contains(&2));
    }

    #[test]
    fn same_address_never_reorders() {
        let p = ThreadProgram::new().store(Addr(1), 1).load(Addr(1), Reg(0));
        let mut c = core(Mcm::Weak, p);
        assert!(!issuable(&mut c).contains(&1));
    }

    #[test]
    fn release_store_waits_for_earlier_accesses() {
        let p = ThreadProgram::new()
            .store(Addr(1), 1)
            .instrs
            .into_iter()
            .chain([Instr::Store {
                addr: Addr(2),
                val: 1,
                order: AccessOrder::Release,
            }]);
        let p = ThreadProgram {
            instrs: p.collect(),
        };
        let mut c = core(Mcm::Weak, p);
        assert!(!issuable(&mut c).contains(&1));
    }

    #[test]
    fn work_blocks_later_issue() {
        let p = ThreadProgram::new().work(10).load(Addr(1), Reg(0));
        let mut c = core(Mcm::Weak, p);
        assert!(!issuable(&mut c).contains(&1));
    }

    /// A random instruction. Mixed: over three colliding addresses, every
    /// access kind with every annotation, every fence kind, and `Work`.
    /// Plain: relaxed loads and stores over 64 addresses, so the weak
    /// model admits deep into the window and the horizon is exercised.
    fn random_instr(rng: &mut SimRng, plain: bool) -> Instr {
        let reg = Reg(0);
        if plain {
            let addr = Addr(rng.below(64));
            let order = AccessOrder::Relaxed;
            return match rng.below(2) {
                0 => Instr::Load { addr, reg, order },
                _ => Instr::Store {
                    addr,
                    val: 1,
                    order,
                },
            };
        }
        let addr = Addr(rng.below(3));
        let order = [
            AccessOrder::Relaxed,
            AccessOrder::Acquire,
            AccessOrder::Release,
            AccessOrder::SeqCst,
        ][rng.below(4) as usize];
        match rng.below(20) {
            0..=5 => Instr::Load { addr, reg, order },
            6..=11 => Instr::Store {
                addr,
                val: 1,
                order,
            },
            12..=14 => Instr::Rmw {
                addr,
                add: 1,
                reg,
                order,
            },
            15 => Instr::Fence(FenceKind::Full),
            16 => Instr::Fence(FenceKind::StoreStore),
            17 => Instr::Fence(FenceKind::LoadLoad),
            _ => Instr::Work(1),
        }
    }

    /// One summary pass admits exactly the instructions the pairwise
    /// `must_order` rule admits, for every MCM and protocol family, on
    /// random windows (some longer than the reorder window) whose entries
    /// are randomly waiting, issued or done.
    #[test]
    fn summary_pass_matches_must_order() {
        let mut rng = SimRng::seed_from(0x5EED);
        let states = [OpState::Waiting, OpState::Issued, OpState::Done];
        for case in 0..12_000 {
            let len = 1 + rng.below(ROB_LOOKAHEAD as u64 + 16) as usize;
            let plain = case % 4 == 0;
            let program = ThreadProgram {
                instrs: (0..len).map(|_| random_instr(&mut rng, plain)).collect(),
            };
            let state: Vec<OpState> = (0..len).map(|_| states[rng.below(3) as usize]).collect();
            for mcm in [Mcm::Sc, Mcm::Tso, Mcm::Weak] {
                for family in [ProtocolFamily::Mesi, ProtocolFamily::Rcc] {
                    let mut c = core_in(mcm, family, program.clone());
                    c.state = state.clone();
                    let admitted = issuable(&mut c);
                    let horizon = (c.oldest + ROB_LOOKAHEAD).min(len);
                    let expected: Vec<usize> = (c.oldest..horizon)
                        .filter(|&j| c.state[j] == OpState::Waiting && may_issue_oracle(&c, j))
                        .collect();
                    assert_eq!(
                        admitted, expected,
                        "case {case}, {mcm:?}/{family:?}: {:?} in states {state:?}",
                        program.instrs
                    );
                }
            }
        }
    }

    /// Stand-in L1: answers every request after a per-address delay (the
    /// second request for an address takes `reissue`), and at `hint_at`
    /// tells the core that line `hinted` was invalidated.
    struct StubL1 {
        core: ComponentId,
        delays: Vec<(Addr, Delay)>,
        reissue: Delay,
        seen: Vec<Addr>,
        hinted: Addr,
        hint_at: Delay,
    }

    impl Component<SysMsg> for StubL1 {
        fn name(&self) -> String {
            "l1".into()
        }
        fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
            ctx.wake_after(self.hint_at, 0);
        }
        fn on_wake(&mut self, _token: u64, ctx: &mut Ctx<'_, SysMsg>) {
            let addr = self.hinted;
            ctx.send_direct(self.core, SysMsg::InvHint { addr }, Delay::ZERO);
        }
        fn handle(&mut self, msg: SysMsg, _src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
            let SysMsg::CoreReq(CoreReq { tag, instr }) = msg else {
                panic!("stub L1 received {msg:?}");
            };
            let addr = instr.addr().expect("memory request");
            let delay = if self.seen.contains(&addr) {
                self.reissue
            } else {
                self.seen.push(addr);
                self.delays
                    .iter()
                    .find(|(a, _)| *a == addr)
                    .map_or(Delay::from_ns(1), |&(_, d)| d)
            };
            ctx.send_direct(
                self.core,
                SysMsg::CoreResp(CoreResp { tag, value: 0 }),
                delay,
            );
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A TSO load squashed while everything behind it is already `Done`
    /// must keep the core unfinished until it completes again: the
    /// finish check rests on `oldest`, which the squash does not move.
    #[test]
    fn tso_squash_behind_done_tail_keeps_core_unfinished() {
        // Load X is slow; loads A, B, C complete early (out of order under
        // TSO) and A is then invalidated, squashing it behind X.
        let p = ThreadProgram::new()
            .load(Addr(9), Reg(0))
            .load(Addr(1), Reg(1))
            .load(Addr(2), Reg(2))
            .load(Addr(3), Reg(3));
        let mut sim: Simulator<SysMsg> = Simulator::new(1);
        let mut cfg = CoreConfig::new(Mcm::Tso, ProtocolFamily::Mesi);
        cfg.issue_jitter = 0;
        let core_id = sim.add_component(Box::new(TimingCore::new("c", ComponentId(1), cfg, p, 7)));
        let l1 = sim.add_component(Box::new(StubL1 {
            core: core_id,
            delays: vec![(Addr(9), Delay::from_ns(100))],
            reissue: Delay::from_ns(200),
            seen: Vec::new(),
            hinted: Addr(1),
            hint_at: Delay::from_ns(50),
        }));
        assert_eq!(l1, ComponentId(1));
        let at = |sim: &mut Simulator<SysMsg>, limit: Time| {
            sim.set_time_limit(limit);
            let outcome = sim.run();
            let c = sim.component_as::<TimingCore>(core_id).unwrap();
            (outcome, c.finished_at(), c.done(), c.squashes)
        };
        // Squashed, with X outstanding.
        assert_eq!(
            at(&mut sim, Time::from_ns(60)),
            (RunOutcome::TimeLimit, None, false, 1)
        );
        // X done: every instruction but the re-issued A is `Done`.
        let (outcome, finished, done, _) = at(&mut sim, Time::from_ns(150));
        assert_eq!(
            (outcome, finished, done),
            (RunOutcome::TimeLimit, None, false)
        );
        {
            let c = sim.component_as::<TimingCore>(core_id).unwrap();
            assert_eq!(c.oldest, 1);
            assert_eq!(c.state[1], OpState::Issued);
            assert!(c.state[2..].iter().all(|s| *s == OpState::Done));
        }
        // A completes again: now the core is finished.
        let (outcome, finished, done, _) = at(&mut sim, Time::MAX);
        assert_eq!(outcome, RunOutcome::Completed);
        assert!(done);
        assert!(finished.is_some_and(|t| t > Time::from_ns(200)));
    }
}
