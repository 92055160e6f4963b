//! Integration tests for the sampled-telemetry subsystem at the bench
//! level:
//!
//! * the acceptance run — metrics-enabled quick vips emits a ≥50-window
//!   timeseries covering link backlog, MSHR/directory occupancy and
//!   retry counters, byte-identical across same-seed reruns;
//! * metrics are additive — the metrics-on report minus `metrics.` keys
//!   equals the metrics-off report (sampling changes no behaviour);
//! * the metrics-on rendering is pinned by fingerprint, like the plain
//!   `report_dump` rendering in `runner.rs`;
//! * grid runs with metrics enabled stay thread-count invariant.

use c3::system::GlobalProtocol;
use c3_bench::runner::{self, Experiment};
use c3_bench::{build_sim, run_workload, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::RunOutcome;
use c3_workloads::WorkloadSpec;

/// Quick vips under the paper's headline MESI-CXL-MESI config, with the
/// telemetry hub sampling every `metrics_ns` (None = disabled).
fn vips_cfg(metrics_ns: Option<u64>) -> RunConfig {
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
        (Mcm::Weak, Mcm::Weak),
    )
    .quick();
    if let Some(ns) = metrics_ns {
        cfg = cfg.metrics_ns(ns);
    }
    cfg
}

/// Run quick vips to completion and return `(csv, windows, series names)`.
fn timeseries(cfg: &RunConfig) -> (String, usize, Vec<String>) {
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let (mut sim, _handles) = build_sim(&spec, cfg);
    assert_eq!(sim.run(), RunOutcome::Completed, "vips wedged");
    sim.sample_metrics_now();
    let hub = sim.metrics();
    (hub.to_csv(), hub.windows(), hub.metric_names().to_vec())
}

/// The acceptance run: quick vips at the `c3 metrics` default
/// interval must produce at least 50 windows whose series cover link
/// depth, MSHR and directory occupancy, and retry counters — and two
/// same-seed runs must emit byte-identical CSV.
#[test]
fn timeseries_covers_run_and_is_same_seed_byte_identical() {
    let cfg = vips_cfg(Some(25));
    let (a, windows, names) = timeseries(&cfg);
    let (b, _, _) = timeseries(&cfg);
    assert_eq!(a, b, "same-seed timeseries differ");
    assert!(windows >= 50, "expected >=50 windows, got {windows}");
    for needle in [
        "link.0.backlog_ns",    // per-link queue depth
        ".mshr",                // L1 MSHR occupancy
        ".blocking_snoops",     // DCOH directory occupancy
        ".inflight_fetches",    // bridge in-flight transactions
        ".retries",             // bridge retry counter
        "comp.cxl.dcoh.events", // per-component attribution
        "vnet.cxl.m2s.msgs",    // per-vnet message counts
    ] {
        assert!(
            names.iter().any(|n| n.contains(needle)),
            "no series matching {needle} among {names:?}"
        );
    }
}

/// Enabling metrics must not perturb the simulation: the metrics-on
/// report with its `metrics.` keys removed is exactly the metrics-off
/// report, and the extra keys all live under the `metrics.` prefix.
#[test]
fn report_is_additive_under_metrics() {
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let off = run_workload(&spec, &vips_cfg(None));
    let on = run_workload(&spec, &vips_cfg(Some(25)));
    assert_eq!(off.exec_ns, on.exec_ns, "metrics changed execution time");
    let lines = |r: &c3_sim::stats::Report, strip: bool| -> Vec<String> {
        let mut v: Vec<String> = r
            .iter()
            .filter(|(k, _)| !(strip && k.starts_with("metrics.")))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        lines(&off.report, false),
        lines(&on.report, true),
        "metrics-on report (metrics. keys stripped) differs from metrics-off"
    );
    assert!(
        on.report.iter().any(|(k, _)| k.starts_with("metrics.")),
        "metrics-on report carries no metrics. keys"
    );
    assert!(
        off.report.iter().all(|(k, _)| !k.starts_with("metrics.")),
        "metrics-off report leaks metrics. keys"
    );
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The metrics-on output (report rendering plus the CSV timeseries) is
/// pinned by fingerprint, the metrics-enabled counterpart of
/// `report_dump_byte_identity` in `runner.rs`. Re-pin deliberately when
/// a schema or behaviour change is intended.
#[test]
fn metrics_output_fingerprint_pinned() {
    let cfg = vips_cfg(Some(25));
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let r = run_workload(&spec, &cfg);
    let mut lines: Vec<String> = r.report.iter().map(|(k, v)| format!("{k}={v}")).collect();
    lines.sort_unstable();
    let (csv, _, _) = timeseries(&cfg);
    let doc = format!("exec_ns={}\n{}\n{csv}", r.exec_ns, lines.join("\n"));
    assert_eq!(
        fnv1a(&doc),
        17_311_063_450_239_843_500u64,
        "pinned metrics-on fingerprint changed — if the schema/behaviour \
         change is intentional, re-pin this constant\ndoc:\n{doc}"
    );
}

/// The OLTP counterpart of [`metrics_output_fingerprint_pinned`]: quick
/// `oltp-quick` with footprint gauges on, pinned through the JSON export.
/// Unlike the vips CSV this covers the hot-address top-k and the
/// directory occupancy gauges (`dir_busy`, `dir_queued`,
/// `blocking_snoops`, `bisnp_waiting`) that walk the region stores' live
/// lines. Two intervals: 25 ns samples the gauges densely, and 5 µs
/// windows see more than 64 distinct hot addresses, so the sketch's
/// eviction path shapes the pinned top-k.
#[test]
fn oltp_telemetry_fingerprint_pinned() {
    let spec = WorkloadSpec::by_name("oltp-quick").expect("workload");
    let mut doc = String::new();
    for ns in [25, 5000] {
        let cfg = vips_cfg(Some(ns)).with_state_metrics();
        let (mut sim, _handles) = build_sim(&spec, &cfg);
        assert_eq!(sim.run(), RunOutcome::Completed, "oltp-quick wedged");
        sim.sample_metrics_now();
        let json = sim.metrics().to_json();
        for needle in ["\"top_addrs\":[[", "dir_busy", "bisnp_waiting"] {
            assert!(json.contains(needle), "telemetry JSON lacks {needle}");
        }
        doc.push_str(&json);
        doc.push('\n');
    }
    assert_eq!(
        fnv1a(&doc),
        13_732_210_233_992_473_444u64,
        "pinned oltp telemetry fingerprint changed — if the schema/behaviour \
         change is intentional, re-pin this constant"
    );
}

/// Metrics-enabled grid runs must stay byte-identical between 1 and N
/// worker threads (sampling is driven purely by simulated time).
#[test]
fn metrics_grid_is_thread_count_invariant() {
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
            .quick()
            .metrics_ns(25);
            cfg.ops_per_core = 120;
            grid.push(Experiment::new(spec, cfg));
        }
    }
    let one = runner::run_grid(1, &grid);
    for threads in [2, 8] {
        let n = runner::run_grid(threads, &grid);
        for (i, (a, b)) in one.iter().zip(&n).enumerate() {
            assert_eq!(a.outcome, b.outcome, "cell {i} ({threads} threads)");
            assert_eq!(a.events, b.events, "cell {i} ({threads} threads)");
            assert_eq!(a.report, b.report, "cell {i} ({threads} threads)");
        }
    }
    // Sanity: the grid reports actually carry the sampled series.
    assert!(
        one.iter()
            .all(|r| r.report.iter().any(|(k, _)| k.starts_with("metrics."))),
        "grid reports missing metrics. keys"
    );
}
