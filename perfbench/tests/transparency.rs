//! The probes observe without changing behaviour: traced assemblies
//! reproduce `build_sim`'s reports, and the benchmark-side BFS reproduces
//! `check_resilient`'s counts.

use c3::system::GlobalProtocol;
use c3_bench::RunConfig;
use c3_perfbench::bfs::explore;
use c3_perfbench::probe::Layer;
use c3_perfbench::workloads::{expected_ops, run_cell, run_traced, Cell};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_verif::resilient::{check_resilient, ResilientConfig};
use c3_workloads::WorkloadSpec;

fn quick_cell(name: &str, global: GlobalProtocol, family: ProtocolFamily) -> Cell {
    let cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, family),
        global,
        (Mcm::Weak, Mcm::Weak),
    )
    .quick();
    Cell {
        spec: WorkloadSpec::by_name(name).expect("workload"),
        cfg,
    }
}

fn rendered(r: &c3_sim::stats::Report) -> String {
    r.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

fn assert_transparent(cell: Cell) {
    let ops = expected_ops(&cell);
    let plain = run_cell(&cell, ops);
    assert_eq!(plain.failure, None, "{}", cell.tag());
    let traced = run_traced(&cell, ops, true);
    assert_eq!(traced.run.failure, None, "{}", cell.tag());
    assert_eq!(traced.run.events, plain.events, "{}", cell.tag());
    assert_eq!(traced.run.exec_ns, plain.exec_ns, "{}", cell.tag());
    assert_eq!(
        rendered(&traced.run.report),
        rendered(&plain.report),
        "{}",
        cell.tag()
    );
    // Every event was delivered inside some probe.
    let calls: u64 = traced.probes.iter().map(|p| p.tally.calls).sum();
    let starts = traced.probes.len() as u64;
    assert_eq!(calls, plain.events + starts, "{}", cell.tag());
    assert!(traced.probes.iter().any(|p| !p.spans.is_empty()));
}

#[test]
fn wrapped_cell_matches_build_sim_under_cxl() {
    let cell = quick_cell("barnes", GlobalProtocol::Cxl, ProtocolFamily::Moesi);
    assert_transparent(cell);
}

#[test]
fn wrapped_cell_matches_build_sim_under_hierarchical_directory() {
    let cell = quick_cell(
        "vips",
        GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
        ProtocolFamily::Mesi,
    );
    assert_transparent(cell);
}

/// Telemetry and footprint metrics go through the probes' delegated
/// `metrics()`/`report()` hooks; the sharded kernel through their
/// `Send`-ness.
#[test]
fn wrapped_cell_matches_with_telemetry_and_shards() {
    let mut cell = quick_cell("oltp-quick", GlobalProtocol::Cxl, ProtocolFamily::Moesi);
    cell.cfg = cell
        .cfg
        .with_state_metrics()
        .metrics_ns(100)
        .with_clusters(4);
    assert_transparent(cell);
    let mut sharded = quick_cell("vips", GlobalProtocol::Cxl, ProtocolFamily::Mesi);
    sharded.cfg = sharded.cfg.with_clusters(4).with_shards(2);
    assert_transparent(sharded);
}

#[test]
fn traced_cells_cover_each_layer() {
    let cell = quick_cell("barnes", GlobalProtocol::Cxl, ProtocolFamily::Mesi);
    let traced = run_traced(&cell, expected_ops(&cell), false);
    for layer in [Layer::Core, Layer::L1, Layer::Bridge, Layer::Dcoh] {
        assert!(
            traced
                .probes
                .iter()
                .any(|p| p.layer == layer && p.tally.calls > 0),
            "no calls into {layer:?}"
        );
    }
}

#[test]
fn bfs_counts_equal_check_resilient_on_2x2() {
    for faults in [0, 1] {
        let cfg = ResilientConfig {
            clusters: 2,
            addrs: 2,
            ops_per_cluster: 1,
            max_faults: faults,
            max_retries: faults,
            ..ResilientConfig::default()
        };
        let want = check_resilient(&cfg);
        let got = explore(&cfg);
        assert!(want.violation.is_none() && !want.truncated);
        assert_eq!(
            got.counts(),
            (
                false,
                want.canonical_states as u64,
                want.unreduced_states,
                want.edges
            ),
            "faults={faults}"
        );
        assert!(got.successors.calls > 0 && got.canonical_fn.calls == got.edges);
    }
}
