//! The repository benchmark of the C³ simulator and model checker.
//!
//! One binary, `perfbench`, runs one workload per invocation:
//!
//! * a timed run (`--trace 0`) measures end-to-end host-time metrics
//!   with nothing wrapped;
//! * a traced run (`--trace 1`) repeats the workload with every
//!   simulator component wrapped in a timing [`probe::Probe`] (or, for
//!   the model checker, with a benchmark-side BFS timing each checker
//!   function)
//!   and prints the per-layer split.
//!
//! See `perfbench/README.md` for the workloads, metrics and spans.

pub mod args;
pub mod assemble;
pub mod bfs;
pub mod output;
pub mod probe;
pub mod workloads;

use args::{Args, Workload};
use output::{Outcome, END_TO_END, PER_LAYER};

/// Run what `args` asks for; returns the JSON result line and whether
/// every unit passed.
pub fn run(args: &Args) -> (String, bool) {
    let outcome: Outcome = match (args.workload, args.trace) {
        (Workload::Modelcheck, false) => workloads::timed_modelcheck(args.seconds),
        (Workload::Modelcheck, true) => workloads::traced_modelcheck(args.seconds),
        (w, false) => workloads::timed_sim(w, args.seed, args.seconds),
        (w, true) => workloads::traced_sim(w, args.seed, args.seconds),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    (outcome.json(table), outcome.correct())
}
