//! # c3-verif — formal verification of the C³ design
//!
//! The reproduction of §VI-A "Formal Verification": explicit-state model
//! checking in the style of the paper's Murphi methodology.
//!
//! * [`fsm_checks`] — static closure/completeness/forbidden-state checks
//!   on the FSMs produced by `c3::generator`.
//! * [`static_checks`] — table-driven static analysis of the concrete
//!   controllers' declarative transition tables: completeness,
//!   reachability, forbidden states, Rule-II discipline and
//!   cross-controller static deadlock detection (the `protocheck` CLI in
//!   `c3-bench` drives it).
//! * [`resilient`] — the model checker: an exhaustive explorer of an
//!   abstract C³ system (clusters with optional private caches, a
//!   blocking DCOH, an unordered and lossy device→host channel) checking
//!   SWMR, inclusion, data value, poison stickiness and deadlock freedom,
//!   with faults, retries and replays as explicit transitions. Seeded
//!   injections remove Rule II or the snoop-ordering tag to show the
//!   checker finds the Fig. 4 and Fig. 2 races. Canonical-form symmetry
//!   reduction ([`symmetry`]) over a hashed, spillable frontier
//!   ([`frontier`]) makes 3-host × 2-address configs exhaustible in CI.

#![deny(missing_docs)]

pub mod frontier;
pub mod fsm_checks;
pub mod resilient;
pub mod static_checks;
pub mod symmetry;

pub use fsm_checks::{check_fsm, FsmDefect};
pub use resilient::{
    check_resilient, Counterexample, Injection, RViolation, ResilientConfig, ResilientResult,
};
pub use static_checks::{
    check_all, check_message_graph, check_model_conformance, check_quiescence, check_table,
    StaticDefect,
};
pub use symmetry::{Symmetric, SymmetryGroup};
