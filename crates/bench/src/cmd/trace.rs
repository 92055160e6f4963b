//! `trace` — run one named workload with transaction tracing enabled,
//! write a Perfetto-loadable Chrome trace JSON, and print the latency
//! histogram summary.
//!
//! ```text
//! c3 trace vips
//! c3 trace histogram --out /tmp/hist.json --cap 500000 --full
//! ```
//!
//! Load the emitted JSON at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per component, `bridge` spans showing
//! Rule-II nesting (snoop ⊃ writeback, evict ⊃ writeback), `l1` spans for
//! MSHR lifetimes, instant markers for message deliveries.
//!
//! If the run deadlocks or hits the event limit, the post-mortem dump
//! (every in-flight transaction, the oldest blocked one, and its wait
//! chain) is printed instead of a trace summary.

use std::num::NonZeroUsize;

use c3::system::GlobalProtocol;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::RunOutcome;
use c3_workloads::WorkloadSpec;

use crate::cli::{self, usage_error, Args, CliError, Flag, Subcommand, BASELINE, FULL, OUT};
use crate::{build_sim, RunConfig};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "trace",
    about: "Trace one workload to a Perfetto JSON (default trace-<workload>.json) + latencies",
    operands: "<workload>",
    flags: &[
        OUT,
        Flag::Num("--cap", "N", "ring-buffer capacity (default: 1000000)"),
        Flag::Num("--events", "N", "stop after N events: a post-mortem"),
        FULL,
        Flag::Switch("--text", "also print the compact text dump to stdout"),
        BASELINE,
    ],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let (name, spec, cfg) = workload_config(args)?;
    let cap = args
        .num::<NonZeroUsize>("--cap")?
        .map_or(1_000_000, NonZeroUsize::get);
    let events: Option<u64> = args.num("--events")?;

    let (mut sim, _handles) = build_sim(&spec, &cfg);
    sim.set_tracing(cap);
    if let Some(n) = events {
        sim.set_event_limit(n);
    }
    let outcome = sim.run();

    // Write the trace before anything else: a truncated run is exactly
    // when the trace is most valuable (it shows what led up to the stall),
    // so the file must land on disk even when we exit nonzero below.
    let path = args
        .text(OUT.name())
        .map_or_else(|| format!("trace-{name}.json"), String::from);
    cli::write(&path, &sim.trace_json())?;
    if args.has("--text") {
        print!("{}", sim.trace_text());
    }

    if matches!(
        outcome,
        RunOutcome::Deadlock | RunOutcome::EventLimit | RunOutcome::TimeLimit
    ) {
        eprintln!("{}", sim.post_mortem(outcome));
        return Err(CliError::Failed(format!("partial trace written to {path}")));
    }

    let tracer = sim.tracer();
    println!(
        "{name} [{}]: {:?} at {} after {} events",
        cfg.label(),
        outcome,
        sim.now(),
        sim.events_processed()
    );
    println!(
        "trace: {} buffered event(s), {} dropped (ring cap {cap}) -> {path}",
        tracer.len(),
        tracer.dropped()
    );
    println!("open in https://ui.perfetto.dev or chrome://tracing");

    // Latency-histogram summary: every `*.lat.*` key the run produced.
    let report = sim.report();
    let mut classes: Vec<&str> = report
        .iter()
        .filter_map(|(k, _)| k.strip_suffix(".lat.count"))
        .collect();
    classes.sort_unstable();
    if classes.is_empty() {
        println!("no latency histograms recorded");
        return Ok(());
    }
    println!(
        "\n{:<40} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "transaction class", "count", "p50_ns", "p95_ns", "p99_ns", "max_ns"
    );
    for c in classes {
        let g = |stat: &str| report.get(&format!("{c}.lat.{stat}")).unwrap_or(f64::NAN);
        println!(
            "{:<40} {:>10} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            c,
            g("count"),
            g("p50_ns"),
            g("p95_ns"),
            g("p99_ns"),
            g("max_ns")
        );
    }
    Ok(())
}

/// The `<workload>` operand and the system `--full` and `--baseline`
/// select (quick, CXL by default); shared with `c3 metrics`.
pub(super) fn workload_config(args: &Args) -> Result<(&str, WorkloadSpec, RunConfig), CliError> {
    let [name] = args.operands() else {
        return Err(usage_error("want exactly one <workload>"));
    };
    let global = if args.has(BASELINE.name()) {
        GlobalProtocol::Hierarchical(ProtocolFamily::Mesi)
    } else {
        GlobalProtocol::Cxl
    };
    let cfg = super::mesi(global);
    let cfg = if args.has(FULL.name()) {
        cfg
    } else {
        cfg.quick()
    };
    Ok((name, cli::workload(name)?, cfg))
}
