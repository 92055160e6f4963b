//! Figure 11: breakdown of total miss cycles by request latency band and
//! instruction type, comparing MESI-MESI-MESI and MESI-CXL-MESI on the
//! paper's selected workloads (histogram, barnes, lu-ncont — the most
//! impacted — and vips, the least).
//!
//! Paper result: affected workloads see only the *high* band
//! (cross-cluster coherence, > 400 ns) grow — by ≈ 2.9× — for loads,
//! stores and RMWs alike, while the medium band (CXL memory access) stays
//! flat; vips is insensitive. Miss *counts* stay the same: CXL makes each
//! cross-cluster transaction costlier, it does not add misses.
//!
//! The 4 × 2 grid runs in parallel on the shared runner; the tables are
//! identical for any thread count.

use c3::system::GlobalProtocol;
use c3_protocol::states::ProtocolFamily;
use c3_workloads::WorkloadSpec;

use crate::cli::{Args, CliError, Subcommand, OPS, SHARDS, THREADS};
use crate::miss_breakdown;
use crate::runner::{self, Experiment};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "fig11",
    about: "Figure 11: miss cycles by latency band and instruction type (default 1500 ops)",
    operands: "",
    flags: &[OPS, THREADS, SHARDS],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let ops = args.num(OPS.name())?.unwrap_or(1500usize);
    let threads = args.threads()?;
    let shards = args.shards()?;
    let workloads = ["histogram", "barnes", "lu-ncont", "vips"];
    let globals = [
        GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
    ];

    // Row-major grid: results[2*w + g] is workload w under global g.
    let mut grid = Vec::new();
    for name in workloads {
        let spec = WorkloadSpec::by_name(name).expect("workload");
        for global in globals {
            let mut cfg = super::mesi(global);
            cfg.ops_per_core = ops;
            cfg.shards = shards;
            grid.push(Experiment::new(spec, cfg));
        }
    }
    let results = runner::run_grid(threads, &grid);

    println!("Figure 11: total miss cycles (us) by latency band and instruction type");
    for (w, name) in workloads.iter().enumerate() {
        let mut rows = Vec::new();
        let mut execs = Vec::new();
        let mut misses = Vec::new();
        for g in 0..2 {
            let r = results[2 * w + g].expect_completed(&grid[2 * w + g].tag);
            rows.push(miss_breakdown(&r.report));
            execs.push(r.exec_ns);
            let mut m = 0.0;
            for (k, v) in r.report.iter() {
                if k.ends_with(".misses") {
                    m += v;
                }
            }
            misses.push(m);
        }
        println!(
            "\n== {name} ==   exec: base {:.1} us, CXL {:.1} us ({:+.1}%)",
            execs[0] as f64 / 1000.0,
            execs[1] as f64 / 1000.0,
            (execs[1] as f64 / execs[0] as f64 - 1.0) * 100.0
        );
        println!(
            "   misses: base {} vs CXL {} (counts should match)",
            misses[0], misses[1]
        );
        println!(
            "   {:<22} {:>14} {:>14} {:>8}",
            "band", "MESI-MESI-MESI", "MESI-CXL-MESI", "ratio"
        );
        let mut high = (0.0, 0.0);
        for (i, (label, base)) in rows[0].iter().enumerate() {
            let cxl = rows[1][i].1;
            if *base == 0.0 && cxl == 0.0 {
                continue;
            }
            let ratio = if *base > 0.0 {
                cxl / base
            } else {
                f64::INFINITY
            };
            println!(
                "   {:<22} {:>14.1} {:>14.1} {:>8.2}",
                label,
                base / 1000.0,
                cxl / 1000.0,
                ratio
            );
            if label.contains("high") {
                high.0 += base;
                high.1 += cxl;
            }
        }
        if high.0 > 0.0 {
            println!(
                "   high-band total ratio: {:.2}x   (paper: ~2.9x for affected workloads)",
                high.1 / high.0
            );
        }
    }
    Ok(())
}
