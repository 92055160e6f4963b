//! Sensitivity sweep: how the CXL-vs-baseline gap depends on the
//! cross-cluster link latency, and where the crossover to "negligible"
//! lies.
//!
//! The paper fixes the link latency at 70 ns (≈400 ns round trip, §V,
//! footnote 8). This sweep varies it: at on-chip-like latencies the CXL
//! protocol overhead (extra message delays + blocking directory) is the
//! dominant cost; as the link grows, raw propagation swamps everything
//! and the *relative* gap stabilizes — the protocol penalty scales with
//! the number of message hops, which is CXL's structural property.
//!
//! All 12 grid cells (6 latencies × 2 globals) run in parallel on the
//! shared runner; the table is identical for any thread count.

use c3::system::GlobalProtocol;
use c3_protocol::states::ProtocolFamily;

use crate::cli::{self, Args, CliError, Flag, Subcommand, JSON, SHARDS, THREADS};
use crate::runner::{self, Experiment};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "sweep",
    about: "Link-latency sensitivity of the CXL-vs-baseline gap",
    operands: "",
    flags: &[
        Flag::Text("--workload", "W", "workload to sweep (default: histogram)"),
        THREADS,
        JSON,
        SHARDS,
    ],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let wname = args.text("--workload").unwrap_or("histogram");
    let spec = cli::workload(wname)?;
    let threads = args.threads()?;
    let shards = args.shards()?;

    let link_points: [u64; 6] = [5, 15, 35, 70, 140, 280];
    let mut grid = Vec::new();
    for &link_ns in &link_points {
        for global in [
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
        ] {
            let mut cfg = super::mesi(global).link_ns(link_ns);
            cfg.ops_per_core = 1000;
            cfg.shards = shards;
            grid.push(Experiment::new(spec, cfg).tagged(format!("link{link_ns}/{}", cfg.label())));
        }
    }

    let results = runner::run_grid(threads, &grid);

    println!("Link-latency sweep, workload {wname} (normalized CXL/baseline):");
    println!(
        "{:>9} {:>12} {:>12} {:>8}",
        "link(ns)", "baseline(ns)", "cxl(ns)", "ratio"
    );
    for (i, &link_ns) in link_points.iter().enumerate() {
        let base = results[2 * i].expect_completed(&grid[2 * i].tag).exec_ns;
        let cxl = results[2 * i + 1]
            .expect_completed(&grid[2 * i + 1].tag)
            .exec_ns;
        println!(
            "{:>9} {:>12} {:>12} {:>8.3}",
            link_ns,
            base,
            cxl,
            cxl as f64 / base as f64
        );
    }
    println!("\n(70 ns is the paper's Table III operating point)");
    if let Some(path) = args.text(JSON.name()) {
        cli::write(path, &runner::grid_json(&grid, &results, true))?;
        println!("(wrote {path})");
    }
    Ok(())
}
