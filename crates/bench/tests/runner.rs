//! Integration tests for the parallel experiment runner and the
//! event-kernel hot path it exercises:
//!
//! * N-thread output is byte-identical to 1-thread output on the same
//!   grid (determinism under parallelism);
//! * the `c3 perf` microbench completes in `--quick` mode and reports
//!   nonzero events/sec;
//! * same-seed runs render byte-identical `report_dump`-style reports,
//!   pinned by fingerprint so fabric/kernel hot-path changes that shift
//!   behaviour (rather than just speed) fail loudly.

use c3::system::GlobalProtocol;
use c3_bench::runner::{self, Experiment};
use c3_bench::{run_workload, run_workload_with, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_workloads::WorkloadSpec;

fn tiny_grid() -> Vec<Experiment> {
    let mut grid = Vec::new();
    for name in ["vips", "histogram"] {
        let spec = WorkloadSpec::by_name(name).expect("workload");
        for global in [
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
        ] {
            let mut cfg = RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                global,
                (Mcm::Weak, Mcm::Weak),
            )
            .quick();
            cfg.ops_per_core = 120;
            grid.push(Experiment::new(spec, cfg));
        }
    }
    grid
}

/// The runner's deterministic JSON must not depend on how many worker
/// threads executed the grid (completion order is scheduling noise; the
/// results are keyed by config index).
#[test]
fn grid_json_is_thread_count_invariant() {
    let grid = tiny_grid();
    let one = runner::grid_json(&grid, &runner::run_grid(1, &grid), false);
    for threads in [2, 4, 8] {
        let n = runner::grid_json(&grid, &runner::run_grid(threads, &grid), false);
        assert_eq!(one, n, "JSON differs between 1 and {threads} threads");
    }
    // Sanity: the JSON actually carries the grid.
    assert_eq!(one.matches("\"outcome\":\"Completed\"").count(), grid.len());
}

/// Full per-cell equality (reports included), not just the JSON view.
#[test]
fn parallel_results_match_sequential_results() {
    let grid = tiny_grid();
    let seq = runner::run_grid(1, &grid);
    let par = runner::run_grid(4, &grid);
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a.outcome, b.outcome, "cell {i}");
        assert_eq!(a.exec_ns, b.exec_ns, "cell {i}");
        assert_eq!(a.cluster_ns, b.cluster_ns, "cell {i}");
        assert_eq!(a.sim_ns, b.sim_ns, "cell {i}");
        assert_eq!(a.events, b.events, "cell {i}");
        assert_eq!(a.report, b.report, "cell {i}");
    }
}

/// `c3 perf --quick` must complete, report nonzero events/sec under
/// the committed alloc budget, and *append* to an existing trajectory
/// file rather than overwrite it.
#[test]
fn perf_quick_smoke() {
    let out = std::env::temp_dir().join(format!("c3-perf-smoke-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let budget = concat!(env!("CARGO_MANIFEST_DIR"), "/alloc_budget.txt");
    let run = |label: &str| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_c3"))
            // Default --quick exchange count: the alloc budget amortizes
            // one-off setup allocations over it, so don't shrink it here.
            .args(["perf", "--quick", "--label", label])
            .args(["--alloc-budget", budget])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn perf");
        assert!(
            output.status.success(),
            "perf --quick ({label}) failed:\n{}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run("first");
    run("second");
    let json = std::fs::read_to_string(&out).expect("perf json written");
    let _ = std::fs::remove_file(&out);
    // Schema v2: a `runs` array accumulating both invocations, each with
    // a ping-pong, a workload, a metrics-enabled workload, and an OLTP
    // region-store measurement carrying throughput and allocs/event. The
    // subcommand itself exits nonzero on zero throughput or a blown alloc
    // budget, so reaching here already covers the gates — plus a direct
    // parse of every events_per_sec.
    assert!(json.contains("\"runs\": ["), "missing runs array in {json}");
    for (needle, n) in [
        ("\"config\": \"pingpong\"", 2),
        ("\"config\": \"vips/", 2),
        ("\"config\": \"metrics+vips/", 2),
        ("\"config\": \"oltp-quick/", 2),
        ("\"label\": \"first\"", 4),
        ("\"label\": \"second\"", 4),
        ("\"allocs_per_event\": ", 8),
    ] {
        assert_eq!(
            json.matches(needle).count(),
            n,
            "expected {n}x {needle} in {json}"
        );
    }
    let eps: Vec<f64> = json
        .match_indices("\"events_per_sec\": ")
        .map(|(i, pat)| {
            let rest = &json[i + pat.len()..];
            let end = rest.find(['}', ',']).unwrap();
            rest[..end].trim().parse().expect("events_per_sec number")
        })
        .collect();
    assert_eq!(eps.len(), 8, "eight measurements in {json}");
    assert!(eps.iter().all(|&e| e > 0.0), "zero throughput in {json}");
}

/// The conservative-PDES kernel must be a pure function of the seed and
/// the (topology-derived) shard plan — never of the worker-thread count.
/// A full system run (vips over CXL, telemetry on) must render the same
/// report, execution times, and metrics CSV for 1, 2, and 8 shard
/// threads.
#[test]
fn sharded_run_byte_identical_for_1_2_8_shards() {
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let run = |shards: usize| {
        let mut cfg = RunConfig::scaled(
            (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
            GlobalProtocol::Cxl,
            (Mcm::Weak, Mcm::Weak),
        )
        .quick()
        .metrics_ns(200)
        .with_shards(shards);
        cfg.ops_per_core = 120;
        let (r, csv) = run_workload_with(&spec, &cfg, |sim, _| sim.metrics().to_csv());
        (
            r.exec_ns,
            r.cluster_ns.clone(),
            format!("{:?}", r.report),
            csv,
        )
    };
    let one = run(1);
    assert!(one.0 > 0, "vips did not execute");
    assert!(one.3.lines().count() > 2, "telemetry CSV is empty");
    for shards in [2, 8] {
        assert_eq!(one, run(shards), "sharded run diverged at {shards} shards");
    }
}

/// Render a report the way `c3 report_dump` does.
fn render(spec: &WorkloadSpec, cfg: &RunConfig) -> String {
    let r = run_workload(spec, cfg);
    let mut lines: Vec<String> = r.report.iter().map(|(k, v)| format!("{k}={v}")).collect();
    lines.sort_unstable();
    format!("exec_ns={}\n{}", r.exec_ns, lines.join("\n"))
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Same-seed, same-config runs must render byte-identical reports, and
/// the rendering is pinned by fingerprint: any fabric/kernel "pure
/// optimization" that actually changes simulated behaviour (timing,
/// event counts, RNG draws) trips this test. Re-pin deliberately when a
/// behaviour change is intended (e.g. the inclusive-jitter fix).
#[test]
fn report_dump_byte_identity() {
    let spec = WorkloadSpec::by_name("barnes").expect("workload");
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
        GlobalProtocol::Cxl,
        (Mcm::Weak, Mcm::Weak),
    )
    .quick();
    cfg.ops_per_core = 200;
    let a = render(&spec, &cfg);
    let b = render(&spec, &cfg);
    assert_eq!(a, b, "same-seed runs rendered different reports");
    assert_eq!(
        fnv1a(&a),
        4_553_830_574_658_468_899u64,
        "pinned report fingerprint changed — if the behaviour change is \
         intentional, re-pin this constant\nreport:\n{a}"
    );
}

/// Pin the timing-core paths the Weak/MESI benchmark cells never take:
/// TSO store buffers, load squashes and forwarding; a TSO cluster beside
/// a weak one; and an RCC cluster whose cores hand fences to the L1. The
/// runs are long enough to cross the workloads' release/acquire sync
/// points, so annotated accesses reach the issue logic too.
fn pinned_cell(
    workload: &str,
    protocols: (ProtocolFamily, ProtocolFamily),
    mcms: (Mcm, Mcm),
    fingerprint: u64,
) {
    let spec = WorkloadSpec::by_name(workload).expect("workload");
    let mut cfg = RunConfig::scaled(protocols, GlobalProtocol::Cxl, mcms).quick();
    cfg.ops_per_core = 1100;
    let a = render(&spec, &cfg);
    assert_eq!(
        fnv1a(&a),
        fingerprint,
        "pinned {workload} {protocols:?} {mcms:?} report fingerprint changed — \
         if the behaviour change is intentional, re-pin this constant\nreport:\n{a}"
    );
}

#[test]
fn report_pin_barnes_tso() {
    pinned_cell(
        "barnes",
        (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
        (Mcm::Tso, Mcm::Tso),
        16_883_183_108_736_829_579u64,
    );
}

#[test]
fn report_pin_mixed_tso_weak() {
    pinned_cell(
        "lu-ncont",
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        (Mcm::Tso, Mcm::Weak),
        1_523_902_908_762_915_356u64,
    );
}

#[test]
fn report_pin_rcc_cluster() {
    pinned_cell(
        "barnes",
        (ProtocolFamily::Rcc, ProtocolFamily::Mesi),
        (Mcm::Weak, Mcm::Tso),
        17_029_215_732_659_680_157u64,
    );
}
