//! Figure 9: heterogeneous MCM performance.
//!
//! Two scenarios — homogeneous CC protocols (MESI-CXL-MESI) and
//! heterogeneous (MESI-CXL-MOESI) — each under three MCM assignments:
//! all-Arm (weak), all-TSO, and mixed Arm/TSO. Normalized to all-Arm.
//!
//! Paper result: all-TSO degrades 22–39 % (22–43 % in the heterogeneous
//! scenario); the mixed assignment only 2.6–12.7 % (2.2–14.4 %) — C³
//! bridges heterogeneous MCMs without dragging the weak cluster down to
//! TSO speed.
//!
//! The workload × MCM grid of each scenario runs in parallel on the
//! shared runner; the tables are identical for any thread count.

use c3::system::GlobalProtocol;
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_workloads::Suite;

use crate::cli::{self, Args, CliError, Subcommand, OPS, SHARDS, THREADS, WORKLOADS};
use crate::runner::{self, Experiment};
use crate::{geomean, RunConfig};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "fig9",
    about: "Figure 9: heterogeneous-MCM performance (Arm/TSO mixes, default 1200 ops)",
    operands: "",
    flags: &[OPS, WORKLOADS, THREADS, SHARDS],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let ops = args.num(OPS.name())?.unwrap_or(1200usize);
    let specs = cli::paper_workloads(args)?;
    let threads = args.threads()?;
    let shards = args.shards()?;
    let mcm_combos = [
        (Mcm::Weak, Mcm::Weak),
        (Mcm::Tso, Mcm::Tso),
        (Mcm::Weak, Mcm::Tso),
    ];

    for (scenario, protos) in [
        (
            "MESI-CXL-MESI",
            (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        ),
        (
            "MESI-CXL-MOESI",
            (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
        ),
    ] {
        // The grid is specs × mcm_combos, in row-major order, so
        // results[3*w + k] is workload w under MCM combo k.
        let mut grid = Vec::new();
        for spec in &specs {
            for mcms in mcm_combos {
                let mut cfg = RunConfig::scaled(protos, GlobalProtocol::Cxl, mcms);
                cfg.ops_per_core = ops;
                cfg.shards = shards;
                grid.push(Experiment::new(*spec, cfg).tagged(format!(
                    "{}/{}/{:?}-{:?}",
                    spec.name,
                    cfg.label(),
                    mcms.0,
                    mcms.1
                )));
            }
        }
        let results = runner::run_grid(threads, &grid);

        println!("=== scenario {scenario} ===");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>12}",
            "workload", "Arm-Arm", "TSO-TSO", "Arm-TSO", "Arm@mixed"
        );
        let mut suite_norm: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; 3];
        for (w, spec) in specs.iter().enumerate() {
            let cell = |k: usize| {
                results[3 * w + k]
                    .expect_completed(&grid[3 * w + k].tag)
                    .clone()
            };
            let times: Vec<f64> = (0..3).map(|k| cell(k).exec_ns as f64).collect();
            // cluster 0 is the weak one in the mixed (Weak, Tso) assignment
            let mixed_weak_cluster = cell(2).cluster_ns[0] as f64;
            let base = times[0];
            println!(
                "{:<18} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
                spec.name,
                1.0,
                times[1] / base,
                times[2] / base,
                mixed_weak_cluster / base,
            );
            let si = match spec.suite {
                Suite::Splash4 => 0,
                Suite::Parsec => 1,
                Suite::Phoenix => 2,
                Suite::Oltp => unreachable!("fig9 runs the 33 paper workloads"),
            };
            for k in 0..3 {
                suite_norm[si][k].push(times[k] / base);
            }
        }
        println!("\nPer-suite geomean (normalized to Arm-Arm):");
        for (si, name) in ["splash4", "parsec", "phoenix"].iter().enumerate() {
            if suite_norm[si][0].is_empty() {
                continue;
            }
            println!(
                "{:<18} {:>10.3} {:>10.3} {:>10.3}",
                name,
                geomean(&suite_norm[si][0]),
                geomean(&suite_norm[si][1]),
                geomean(&suite_norm[si][2])
            );
        }
        let all_tso: Vec<f64> = suite_norm.iter().flat_map(|s| s[1].clone()).collect();
        let mixed: Vec<f64> = suite_norm.iter().flat_map(|s| s[2].clone()).collect();
        if !all_tso.is_empty() {
            println!(
                "\nTSO-TSO : avg {:+.1}%   (paper: 22-39% / 22-43% slower)",
                (geomean(&all_tso) - 1.0) * 100.0
            );
            println!(
                "Arm-TSO : avg {:+.1}%   (paper: 2.6-12.7% / 2.2-14.4% slower)",
                (geomean(&mixed) - 1.0) * 100.0
            );
            println!(
                "(The Arm@mixed column is the weak cluster's own completion time in the\n\
                 mixed assignment, normalized to all-Arm — the paper's claim that C3\n\
                 does not hinder the weaker memory model.)"
            );
        }
        println!();
    }
    Ok(())
}
