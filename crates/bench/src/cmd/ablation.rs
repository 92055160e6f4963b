//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Fabric reordering** — ordered vs unordered device→host channel:
//!    how often is the BIConflict handshake actually *needed*?
//! 2. **CXL-cache capacity** — inclusion pressure: smaller C³ caches force
//!    Fig.-7 eviction recalls.
//! 3. **DCOH blocking (convoy)** — stalled-request counts under rising
//!    hot-line contention, the root cause of §VI-C1's slowdowns.

use c3::system::GlobalProtocol;
use c3_workloads::WorkloadSpec;

use crate::cli::{Args, CliError, Subcommand, SHARDS};
use crate::run_workload;

pub(crate) const CMD: Subcommand = Subcommand {
    name: "ablation",
    about: "Ablations: fabric ordering, CXL-cache capacity, DCOH blocking convoy",
    operands: "",
    flags: &[SHARDS],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let mut cxl = super::mesi(GlobalProtocol::Cxl);
    cxl.shards = args.shards()?;
    println!("== Ablation 1: S2M channel ordering (contention-boosted histogram) ==");
    // Crank the hot-line contention so request/snoop races are frequent.
    let mut spec = WorkloadSpec::by_name("histogram").expect("workload");
    spec.shared_fraction = 0.20;
    spec.hot_fraction = 0.8;
    spec.hot_lines = 4;
    for (label, ordered) in [("unordered (CXL)", false), ("ordered (ablated)", true)] {
        let mut conflicts = 0.0;
        let mut bisnp = 0.0;
        let mut exec = 0;
        for seed in 0..4 {
            let mut cfg = cxl;
            cfg.ordered_s2m = ordered;
            cfg.seed = 0xAB + seed;
            let r = run_workload(&spec, &cfg);
            conflicts += r.report.get("cxl.dcoh.conflicts").unwrap_or(0.0);
            bisnp += r.report.get("cxl.dcoh.bisnp_sent").unwrap_or(0.0);
            exec += r.exec_ns / 4;
        }
        println!(
            "  {label:<20} exec {exec:>8} ns   BIConflicts {conflicts:>5}   BISnp {bisnp:>6}   (4 seeds)"
        );
    }
    println!("  (conflict handshakes arise only from the unordered fabric — the paper's");
    println!("   motivation for CXL's explicit conflict resolution, Fig. 2)");

    println!("\n== Ablation 2: C3 CXL-cache capacity (workload: canneal) ==");
    let spec = WorkloadSpec::by_name("canneal").expect("workload");
    for (sets, ways) in [(2048usize, 8usize), (256, 4), (64, 4), (16, 4)] {
        let mut cfg = cxl;
        cfg.cxl_cache = (sets, ways);
        let r = run_workload(&spec, &cfg);
        let evictions: f64 = r
            .report
            .iter()
            .filter(|(k, _)| k.ends_with("bridge.evictions"))
            .map(|(_, v)| v)
            .sum();
        let recalls: f64 = r
            .report
            .iter()
            .filter(|(k, _)| k.ends_with("bridge.recalls"))
            .map(|(_, v)| v)
            .sum();
        println!(
            "  {:>5} lines: exec {:>8} ns   Fig.7 evictions {:>6}   recalls {:>5}",
            sets * ways,
            r.exec_ns,
            evictions,
            recalls
        );
    }
    println!("  (inclusion makes the CXL cache a hard capacity bound on host-cached lines)");

    println!("\n== Ablation 3: DCOH blocking convoy vs hot-line contention ==");
    // Sweep the fraction of accesses that hit contended lines: queued
    // (stalled) requests at the blocking DCOH grow superlinearly — the
    // convoy effect of §VI-C1.
    let base = WorkloadSpec::by_name("histogram").expect("workload");
    for shared in [0.0, 0.02, 0.08, 0.2, 0.4] {
        let mut spec = base;
        spec.shared_fraction = shared;
        spec.hot_fraction = 0.8;
        spec.hot_lines = 4;
        let r = run_workload(&spec, &cxl);
        println!(
            "  hot traffic {:>4.1}%: exec {:>8} ns   DCOH stalled {:>6}   BISnp {:>6}   conflicts {:>4}",
            shared * 80.0,
            r.exec_ns,
            r.report.get("cxl.dcoh.stalled_requests").unwrap_or(0.0),
            r.report.get("cxl.dcoh.bisnp_sent").unwrap_or(0.0),
            r.report.get("cxl.dcoh.conflicts").unwrap_or(0.0),
        );
    }
    println!("  (stalled requests queue behind blocked snoops — the convoy behind Fig. 10's worst cases)");
    Ok(())
}
