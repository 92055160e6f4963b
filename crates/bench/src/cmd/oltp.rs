//! OLTP/KV sweep: Zipfian skew × cluster count × protocol family over a
//! 2²⁰-key (≥10⁶ distinct hot cachelines) transaction engine.
//!
//! This is the region-store's design-point workload: the coherence
//! directories see a keyspace far larger than the set of lines that is
//! ever non-quiescent at once, so per-line state must be *materialized on
//! demand and demoted back to summaries* or the directories' memory
//! footprint scales with the keyspace instead of the concurrency. Each
//! cell reports committed-transaction throughput, merged L1 access-latency
//! percentiles (p50/p95/p99), and the coherence-state footprint
//! (touched vs peak-resident lines, peak state bytes) from the opt-in
//! `state_metrics` report keys.

use c3::system::GlobalProtocol;
use c3_memsys::{AccessKind, L1Controller};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_sim::stats::LatencyHistogram;
use c3_workloads::{OltpTxnCounts, WorkloadSpec};

use crate::cli::{self, Args, CliError, Subcommand, JSON, OPS, QUICK, SHARDS, THREADS};
use crate::runner::{self, json_escape};
use crate::{run_workload_with, RunConfig};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "oltp",
    about: "OLTP/KV sweep: zipf skew x clusters x host family over 2^20 keys",
    operands: "",
    flags: &[QUICK, THREADS, OPS, JSON, SHARDS],
    run,
};

/// One sweep cell.
struct Cell {
    tag: String,
    spec: WorkloadSpec,
    cfg: RunConfig,
}

/// Everything measured from one cell.
struct CellResult {
    exec_ns: u64,
    events: u64,
    txns: OltpTxnCounts,
    hist: LatencyHistogram,
    touched: f64,
    peak_resident: f64,
    peak_state_bytes: f64,
}

fn run_cell(cell: &Cell) -> CellResult {
    let (result, hist) = run_workload_with(&cell.spec, &cell.cfg, |sim, handles| {
        // Merge every L1's per-kind latency histogram into one
        // distribution: OLTP transactions mix loads, stores and RMWs,
        // so the headline percentiles cover all three.
        let mut hist = LatencyHistogram::new();
        for &id in handles.l1s.iter().flatten() {
            let l1 = sim.component_as::<L1Controller>(id).expect("L1 controller");
            for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Rmw] {
                hist.merge(&l1.stats(kind).hist);
            }
        }
        hist
    });
    // Deterministic committed-transaction counts: regenerate each
    // thread's stream (cheap next to the simulation itself).
    let nthreads = cell.cfg.cores_per_cluster * cell.cfg.clusters;
    let mut txns = OltpTxnCounts::default();
    for t in 0..nthreads {
        txns.merge(
            cell.spec
                .oltp_txns(t, nthreads, cell.cfg.ops_per_core, cell.cfg.seed),
        );
    }
    // Footprint attribution from the opt-in report keys: the
    // directory tiers emit `touched_lines`/`peak_resident_lines`, and
    // every region store (dirs + L1 MSHR tables) emits
    // `peak_state_bytes`.
    let sum_suffix = |suffix: &str| {
        result
            .report
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum::<f64>()
    };
    CellResult {
        exec_ns: result.exec_ns,
        events: result.report.get("sim.events").unwrap_or(0.0) as u64,
        txns,
        hist,
        touched: sum_suffix(".touched_lines"),
        peak_resident: sum_suffix(".peak_resident_lines"),
        peak_state_bytes: sum_suffix(".peak_state_bytes"),
    }
}

fn run(args: &Args) -> Result<(), CliError> {
    let quick = args.has(QUICK.name());
    let threads = args.threads()?;
    let ops: Option<usize> = args.num(OPS.name())?;
    let shards = args.shards()?;

    // Full sweep: the 2²⁰-key engine (≥10⁶ distinct hot lines) across
    // YCSB-style skews, two topology scales and both host families.
    // Quick: the 2¹⁴-key smoke variant, skew endpoints, MESI only —
    // the shape CI and the perf gate run.
    let (base, skews, cluster_counts, families, default_ops): (
        WorkloadSpec,
        &[f64],
        &[usize],
        &[ProtocolFamily],
        usize,
    ) = if quick {
        (
            WorkloadSpec::by_name("oltp-quick").expect("spec"),
            &[0.0, 0.99],
            &[2],
            &[ProtocolFamily::Mesi],
            300,
        )
    } else {
        (
            WorkloadSpec::by_name("oltp-zipf").expect("spec"),
            &[0.0, 0.5, 0.8, 0.99],
            &[2, 4],
            &[ProtocolFamily::Mesi, ProtocolFamily::Moesi],
            4000,
        )
    };
    let ops = ops.unwrap_or(default_ops);

    let mut cells = Vec::new();
    for &skew in skews {
        for &clusters in cluster_counts {
            for &family in families {
                let mut spec = base;
                spec.zipf_skew = skew;
                let mut cfg = RunConfig::scaled(
                    (family, family),
                    GlobalProtocol::Cxl,
                    (Mcm::Weak, Mcm::Weak),
                )
                .with_clusters(clusters)
                .with_state_metrics();
                cfg.ops_per_core = ops;
                cfg.shards = shards;
                cells.push(Cell {
                    tag: format!("skew{skew}/c{clusters}/{}", cfg.label()),
                    spec,
                    cfg,
                });
            }
        }
    }

    let results = runner::run_indexed(threads, &cells, |_, c| run_cell(c));

    println!(
        "OLTP/KV sweep: {} keys/cell, {} ops/core ({} cells on {} threads)",
        base.hot_lines,
        ops,
        cells.len(),
        threads,
    );
    println!(
        "{:<32} {:>8} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10} {:>6}",
        "cell",
        "txns",
        "ktxn/s",
        "p50(ns)",
        "p95(ns)",
        "p99(ns)",
        "touched",
        "peak-res",
        "peakKB",
        "res%",
    );
    for (cell, r) in cells.iter().zip(&results) {
        let ktps = r.txns.total() as f64 / r.exec_ns as f64 * 1e6;
        let resident_pct = if r.touched > 0.0 {
            100.0 * r.peak_resident / r.touched
        } else {
            0.0
        };
        println!(
            "{:<32} {:>8} {:>9.1} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10.1} {:>5.1}%",
            cell.tag,
            r.txns.total(),
            ktps,
            r.hist.percentile(0.50).as_ns(),
            r.hist.percentile(0.95).as_ns(),
            r.hist.percentile(0.99).as_ns(),
            r.touched as u64,
            r.peak_resident as u64,
            r.peak_state_bytes / 1024.0,
            resident_pct,
        );
    }
    println!(
        "\n(touched = distinct directory lines ever seen; peak-res = most ever \
         materialized at once; res% is the materialization ratio the region \
         store keeps low)"
    );

    if let Some(path) = args.text(JSON.name()) {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, (cell, r)) in cells.iter().zip(&results).enumerate() {
            out.push_str(&format!(
                "    {{\"tag\":\"{}\",\"skew\":{},\"clusters\":{},\"config\":\"{}\",\
                 \"keys\":{},\"ops_per_core\":{},\"seed\":{},\"exec_ns\":{},\
                 \"events\":{},\"txns\":{},\"updates\":{},\"reads\":{},\
                 \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
                 \"touched_lines\":{},\"peak_resident_lines\":{},\
                 \"peak_state_bytes\":{}}}{}\n",
                json_escape(&cell.tag),
                cell.spec.zipf_skew,
                cell.cfg.clusters,
                json_escape(&cell.cfg.label()),
                cell.spec.hot_lines,
                cell.cfg.ops_per_core,
                cell.cfg.seed,
                r.exec_ns,
                r.events,
                r.txns.total(),
                r.txns.updates,
                r.txns.reads,
                r.hist.percentile(0.50).as_ns(),
                r.hist.percentile(0.95).as_ns(),
                r.hist.percentile(0.99).as_ns(),
                r.touched as u64,
                r.peak_resident as u64,
                r.peak_state_bytes as u64,
                if i + 1 < cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        cli::write(path, &out)?;
        println!("(wrote {path})");
    }
    Ok(())
}
