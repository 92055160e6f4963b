//! Memory consistency models.
//!
//! The paper combines hosts with different MCMs — x86-style TSO and an
//! Arm-like weak model — over CXL shared memory, and relies on compound
//! memory models (Goens et al., PLDI'23) for the system-wide semantics.
//! This module defines the per-thread ordering rules that both the timing
//! core model (`c3-mcm`) and the operational reference enumerator obey.

use crate::ops::{AccessOrder, Addr, FenceKind, Instr};

/// A per-cluster memory consistency model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mcm {
    /// Sequential consistency — no reordering at all.
    Sc,
    /// Total Store Order (x86): only store→load to *different* addresses
    /// may reorder; stores drain from a FIFO store buffer.
    Tso,
    /// Weak ordering (Arm-like): any pair to different addresses may
    /// reorder unless an explicit fence or acquire/release intervenes.
    Weak,
}

impl Mcm {
    /// Human-readable short name as used in the paper's tables
    /// ("TSO" / "Arm").
    pub fn label(self) -> &'static str {
        match self {
            Mcm::Sc => "SC",
            Mcm::Tso => "TSO",
            Mcm::Weak => "Arm",
        }
    }

    /// Whether the *baseline* model (ignoring per-access annotations and
    /// fences) preserves program order between an earlier access of class
    /// `first` and a later access of class `second` to **different**
    /// addresses.
    ///
    /// Same-address program order is always preserved (coherence /
    /// per-location SC), so callers only consult this for distinct lines.
    pub fn preserves(self, first: OpClass, second: OpClass) -> bool {
        match self {
            Mcm::Sc => true,
            Mcm::Tso => !(first == OpClass::Store && second == OpClass::Load),
            Mcm::Weak => false,
        }
    }
}

impl std::fmt::Display for Mcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of a memory access for ordering purposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// A read (loads; RMWs count as both).
    Load,
    /// A write (stores; RMWs count as both).
    Store,
}

/// Classify an instruction; `None` for fences and local work.
pub fn classify(i: &Instr) -> Option<(OpClass, OpClass)> {
    // (class as predecessor, class as successor) — RMWs act as both.
    match i {
        Instr::Load { .. } => Some((OpClass::Load, OpClass::Load)),
        Instr::Store { .. } => Some((OpClass::Store, OpClass::Store)),
        Instr::Rmw { .. } => Some((OpClass::Store, OpClass::Load)),
        _ => None,
    }
}

/// Does a fence of `kind` order an earlier `first` before a later `second`?
pub fn fence_orders(kind: FenceKind, first: OpClass, second: OpClass) -> bool {
    match kind {
        FenceKind::Full => true,
        FenceKind::StoreStore => first == OpClass::Store && second == OpClass::Store,
        FenceKind::LoadLoad => first == OpClass::Load,
    }
}

/// Decide whether instruction `later` (at program index `j`) must wait for
/// instruction `earlier` (at index `i < j`) to complete before it may
/// *perform* (become globally visible), under `mcm`, given the instructions
/// strictly between them (`between`, used for fences).
///
/// This predicate is the specification. The operational reference model
/// calls it pair by pair; the timing core model evaluates it through
/// [`OrderSummary`], a one-pass digest of the same rules, and
/// `c3-mcm`'s `summary_pass_matches_must_order` test proves the two
/// agree on randomized windows for every MCM and protocol family.
///
/// Rules applied, in order:
/// 1. same-address accesses always stay ordered (per-location coherence);
/// 2. an intervening fence that covers `(class(earlier), class(later))`
///    orders them;
/// 3. `earlier` having acquire semantics orders it before everything later;
/// 4. `later` having release semantics orders everything earlier before it;
/// 5. RMWs are fully ordered both ways (modelled as SeqCst);
/// 6. otherwise the base model's [`Mcm::preserves`] matrix decides.
pub fn must_order(mcm: Mcm, earlier: &Instr, between: &[Instr], later: &Instr) -> bool {
    let (Some((ec, _)), Some((_, lc))) = (classify(earlier), classify(later)) else {
        return false; // fences/work are handled via rule 2 by callers
    };
    // Rule 1: same address.
    if let (Some(a), Some(b)) = (earlier.addr(), later.addr()) {
        if a == b {
            return true;
        }
    }
    // Rule 2: intervening fences.
    for mid in between {
        if let Instr::Fence(kind) = mid {
            if fence_orders(*kind, ec, lc) {
                return true;
            }
        }
    }
    // Rules 3–5: access annotations.
    let earlier_order = instr_order(earlier);
    let later_order = instr_order(later);
    if earlier_order.is_acquire() {
        return true;
    }
    if later_order.is_release() {
        return true;
    }
    // Rule 6: base model.
    mcm.preserves(ec, lc)
}

fn instr_order(i: &Instr) -> AccessOrder {
    match i {
        Instr::Load { order, .. } | Instr::Store { order, .. } | Instr::Rmw { order, .. } => *order,
        _ => AccessOrder::Relaxed,
    }
}

/// What [`must_order`] needs to know about the still-incomplete accesses
/// of a program prefix, gathered in one forward pass.
///
/// Fold instructions in program order with [`OrderSummary::push`]; then
/// [`OrderSummary::orders`] tells whether *any* folded incomplete access
/// must be ordered before a later instruction — the same answer as
/// calling [`must_order`] against each of them with the instructions in
/// between, in O(1) plus one lookup among the pending addresses instead
/// of a rescan per pair. The address buffer keeps its capacity across
/// [`OrderSummary::clear`], so reuse allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct OrderSummary {
    /// An incomplete access of predecessor class Load was folded.
    load: bool,
    /// An incomplete access of predecessor class Store (or an RMW) was
    /// folded.
    store: bool,
    /// An incomplete access with acquire semantics was folded.
    acquire: bool,
    /// A full fence follows some incomplete access.
    full_fenced: bool,
    /// A store-store fence follows some incomplete Store-class access.
    store_fenced: bool,
    /// A load-load fence follows some incomplete Load-class access.
    load_fenced: bool,
    /// Addresses of the incomplete accesses.
    addrs: Vec<Addr>,
}

impl OrderSummary {
    /// An empty summary whose address buffer holds `cap` entries before
    /// it grows.
    pub fn with_capacity(cap: usize) -> Self {
        OrderSummary {
            addrs: Vec::with_capacity(cap),
            ..OrderSummary::default()
        }
    }

    /// Forget every folded instruction (keeps the buffer's capacity).
    pub fn clear(&mut self) {
        self.addrs.clear();
        *self = OrderSummary {
            addrs: std::mem::take(&mut self.addrs),
            ..OrderSummary::default()
        };
    }

    /// Fold the next instruction in program order. A `complete` access
    /// orders nothing any more; a fence orders the accesses before it
    /// whatever its own state. Work and prefetches carry no ordering.
    pub fn push(&mut self, instr: &Instr, complete: bool) {
        if let Instr::Fence(kind) = instr {
            match kind {
                FenceKind::Full => self.full_fenced |= self.load || self.store,
                FenceKind::StoreStore => self.store_fenced |= self.store,
                FenceKind::LoadLoad => self.load_fenced |= self.load,
            }
            return;
        }
        if complete {
            return;
        }
        let (Some((class, _)), Some(addr)) = (classify(instr), instr.addr()) else {
            return;
        };
        match class {
            OpClass::Load => self.load = true,
            OpClass::Store => self.store = true,
        }
        self.acquire |= instr_order(instr).is_acquire();
        self.addrs.push(addr);
    }

    /// Whether some folded incomplete access must be ordered before
    /// `later` under `mcm` — rule for rule, [`must_order`] over the fold.
    pub fn orders(&self, mcm: Mcm, later: &Instr) -> bool {
        let Some((_, class)) = classify(later) else {
            return false;
        };
        if !(self.load || self.store) {
            return false;
        }
        // Rule 2 (fences), rules 3–4 (annotations), rule 6 (base model),
        // then rule 1 (same address), the only one needing a lookup.
        self.full_fenced
            || self.load_fenced
            || (self.store_fenced && class == OpClass::Store)
            || self.acquire
            || instr_order(later).is_release()
            || (self.load && mcm.preserves(OpClass::Load, class))
            || (self.store && mcm.preserves(OpClass::Store, class))
            || later.addr().is_some_and(|a| self.addrs.contains(&a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Addr, Reg};

    fn ld(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            reg: Reg(0),
            order: AccessOrder::Relaxed,
        }
    }
    fn st(a: u64) -> Instr {
        Instr::Store {
            addr: Addr(a),
            val: 1,
            order: AccessOrder::Relaxed,
        }
    }
    fn st_rel(a: u64) -> Instr {
        Instr::Store {
            addr: Addr(a),
            val: 1,
            order: AccessOrder::Release,
        }
    }
    fn ld_acq(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            reg: Reg(0),
            order: AccessOrder::Acquire,
        }
    }

    #[test]
    fn tso_matrix() {
        assert!(Mcm::Tso.preserves(OpClass::Load, OpClass::Load));
        assert!(Mcm::Tso.preserves(OpClass::Load, OpClass::Store));
        assert!(Mcm::Tso.preserves(OpClass::Store, OpClass::Store));
        assert!(!Mcm::Tso.preserves(OpClass::Store, OpClass::Load));
    }

    #[test]
    fn weak_orders_nothing_by_default() {
        for f in [OpClass::Load, OpClass::Store] {
            for s in [OpClass::Load, OpClass::Store] {
                assert!(!Mcm::Weak.preserves(f, s));
            }
        }
    }

    #[test]
    fn sc_orders_everything() {
        for f in [OpClass::Load, OpClass::Store] {
            for s in [OpClass::Load, OpClass::Store] {
                assert!(Mcm::Sc.preserves(f, s));
            }
        }
    }

    #[test]
    fn same_address_always_ordered() {
        assert!(must_order(Mcm::Weak, &st(1), &[], &ld(1)));
        assert!(must_order(Mcm::Tso, &st(1), &[], &ld(1)));
    }

    #[test]
    fn tso_store_load_reorders_across_addresses() {
        assert!(!must_order(Mcm::Tso, &st(1), &[], &ld(2)));
        assert!(must_order(Mcm::Tso, &st(1), &[], &st(2)));
    }

    #[test]
    fn full_fence_orders_store_load_on_tso() {
        assert!(must_order(
            Mcm::Tso,
            &st(1),
            &[Instr::Fence(FenceKind::Full)],
            &ld(2)
        ));
    }

    #[test]
    fn weak_with_release_acquire() {
        // release store ordered after earlier store
        assert!(must_order(Mcm::Weak, &st(1), &[], &st_rel(2)));
        // acquire load ordered before later load
        assert!(must_order(Mcm::Weak, &ld_acq(1), &[], &ld(2)));
        // plain pair unordered
        assert!(!must_order(Mcm::Weak, &st(1), &[], &st(2)));
        assert!(!must_order(Mcm::Weak, &ld(1), &[], &ld(2)));
    }

    #[test]
    fn store_store_fence_on_weak() {
        let f = [Instr::Fence(FenceKind::StoreStore)];
        assert!(must_order(Mcm::Weak, &st(1), &f, &st(2)));
        assert!(!must_order(Mcm::Weak, &st(1), &f, &ld(2)));
        assert!(!must_order(Mcm::Weak, &ld(1), &f, &st(2)));
    }

    #[test]
    fn load_load_fence_on_weak() {
        let f = [Instr::Fence(FenceKind::LoadLoad)];
        assert!(must_order(Mcm::Weak, &ld(1), &f, &ld(2)));
        assert!(must_order(Mcm::Weak, &ld(1), &f, &st(2)));
        assert!(!must_order(Mcm::Weak, &st(1), &f, &st(2)));
    }

    #[test]
    fn rmw_is_fully_ordered() {
        let rmw = Instr::Rmw {
            addr: Addr(1),
            add: 1,
            reg: Reg(0),
            order: AccessOrder::SeqCst,
        };
        assert!(must_order(Mcm::Weak, &rmw, &[], &ld(2)));
        assert!(must_order(Mcm::Weak, &st(2), &[], &rmw));
    }

    /// Every window of up to two earlier instructions (each access
    /// complete or not) before every candidate: the summary answers
    /// exactly what `must_order` against each incomplete access does.
    #[test]
    fn summary_matches_must_order_on_short_windows() {
        let orders = [
            AccessOrder::Relaxed,
            AccessOrder::Acquire,
            AccessOrder::Release,
            AccessOrder::SeqCst,
        ];
        let mut alphabet = vec![
            Instr::Fence(FenceKind::Full),
            Instr::Fence(FenceKind::StoreStore),
            Instr::Fence(FenceKind::LoadLoad),
            Instr::Work(1),
        ];
        for order in orders {
            for a in [Addr(1), Addr(2)] {
                let reg = Reg(0);
                alphabet.push(Instr::Load {
                    addr: a,
                    reg,
                    order,
                });
                alphabet.push(Instr::Store {
                    addr: a,
                    val: 1,
                    order,
                });
                alphabet.push(Instr::Rmw {
                    addr: a,
                    add: 1,
                    reg,
                    order,
                });
            }
        }
        let entries: Vec<(Instr, bool)> = alphabet
            .iter()
            .flat_map(|&i| [(i, false), (i, true)])
            .collect();
        let mut windows = vec![vec![]];
        for &a in &entries {
            windows.push(vec![a]);
            for &b in &entries {
                windows.push(vec![a, b]);
            }
        }
        let mut summary = OrderSummary::default();
        for w in &windows {
            summary.clear();
            for (i, done) in w {
                summary.push(i, *done);
            }
            let instrs: Vec<Instr> = w.iter().map(|(i, _)| *i).collect();
            for later in &alphabet {
                for mcm in [Mcm::Sc, Mcm::Tso, Mcm::Weak] {
                    let spec = w.iter().enumerate().any(|(k, (earlier, done))| {
                        !done && must_order(mcm, earlier, &instrs[k + 1..], later)
                    });
                    assert_eq!(
                        summary.orders(mcm, later),
                        spec,
                        "{mcm:?} {w:?} then {later:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Mcm::Tso.to_string(), "TSO");
        assert_eq!(Mcm::Weak.to_string(), "Arm");
        assert_eq!(Mcm::Sc.to_string(), "SC");
    }
}
