//! # c3-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI)
//! through one binary, `c3 <subcommand>` ([`cli`]): `table1`, `table2`,
//! `table4`, `fig9`, `fig10`, `fig11`, `verify`, `ablation` and the
//! tools around them. The benches run scaled-down versions.
//!
//! The scaled system: 4 cores per cluster (8 total — the paper uses 8–30,
//! calibrated per workload), small L1s matching the scaled footprints
//! (the paper likewise shrinks inputs and caches to match real-hardware
//! MPKI), identical topology/latency across protocol configurations so
//! that measured differences are attributable to the protocols alone.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
mod cmd;
pub mod runner;

use c3::system::{ClusterSpec, GlobalProtocol, SystemBuilder};
use c3_mcm::core_model::{CoreConfig, TimingCore};
use c3_protocol::mcm::Mcm;
use c3_protocol::msg::SysMsg;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::RunOutcome;
use c3_sim::stats::Report;
use c3_sim::time::Delay;
use c3_workloads::WorkloadSpec;

/// One experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Per-cluster host protocols.
    pub protocols: (ProtocolFamily, ProtocolFamily),
    /// Global protocol.
    pub global: GlobalProtocol,
    /// Per-cluster MCMs.
    pub mcms: (Mcm, Mcm),
    /// Cores per cluster.
    pub cores_per_cluster: usize,
    /// Memory operations per core.
    pub ops_per_core: usize,
    /// L1 geometry (sets, ways).
    pub l1: (usize, usize),
    /// Bridge CXL-cache geometry (sets, ways).
    pub cxl_cache: (usize, usize),
    /// RNG seed.
    pub seed: u64,
    /// Ablation: force an ordered device→host channel.
    pub ordered_s2m: bool,
    /// Cross-cluster CXL link latency (Table III default: 70 ns). The
    /// `c3 sweep` subcommand varies this; everything else keeps the default.
    pub link_latency: Delay,
    /// Sampled-telemetry interval (simulated time); `None` (the default)
    /// disables telemetry, keeping runs byte-identical to pre-telemetry
    /// builds.
    pub metrics_interval: Option<Delay>,
    /// Number of clusters (default 2, the paper's Fig. 1 shape). Odd
    /// cluster indices take `protocols.1`/`mcms.1`, even ones
    /// `protocols.0`/`mcms.0`, so 2 reproduces the historical system
    /// exactly and larger counts scale the topology for PDES throughput
    /// studies.
    pub clusters: usize,
    /// Run the kernel as a conservative parallel PDES on this many
    /// worker threads ([`c3_sim::kernel::Simulator::run_sharded`]);
    /// `None` (the default) uses the sequential kernel. Reports are
    /// byte-identical for any `Some(n)`.
    pub shards: Option<usize>,
    /// Opt in to coherence-state footprint observability (resident-line /
    /// resident-region gauges, peak-state-bytes report lines) on the L1s
    /// and the global directory. Off by default: the extra keys would
    /// shift the pinned report/metrics fingerprints of existing configs.
    pub state_metrics: bool,
}

impl RunConfig {
    /// Scaled defaults used by the figure harnesses.
    pub fn scaled(
        protocols: (ProtocolFamily, ProtocolFamily),
        global: GlobalProtocol,
        mcms: (Mcm, Mcm),
    ) -> Self {
        RunConfig {
            protocols,
            global,
            mcms,
            cores_per_cluster: 4,
            ops_per_core: 1500,
            l1: (128, 4),
            cxl_cache: (2048, 8),
            seed: 0xC3,
            ordered_s2m: false,
            link_latency: Delay::from_ns(70),
            metrics_interval: None,
            clusters: 2,
            shards: None,
            state_metrics: false,
        }
    }

    /// Shrink the run for quick tests / criterion benches.
    pub fn quick(mut self) -> Self {
        self.cores_per_cluster = 2;
        self.ops_per_core = 150;
        self
    }

    /// Override the cross-cluster link latency (sensitivity sweeps).
    pub fn link_ns(mut self, ns: u64) -> Self {
        self.link_latency = Delay::from_ns(ns);
        self
    }

    /// Enable sampled telemetry every `ns` of simulated time.
    pub fn metrics_ns(mut self, ns: u64) -> Self {
        self.metrics_interval = Some(Delay::from_ns(ns));
        self
    }

    /// Enable coherence-state footprint observability (see
    /// [`RunConfig::state_metrics`]).
    pub fn with_state_metrics(mut self) -> Self {
        self.state_metrics = true;
        self
    }

    /// Use `n` clusters (alternating the two configured protocols/MCMs).
    pub fn with_clusters(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one cluster");
        self.clusters = n;
        self
    }

    /// Execute on `n` PDES shard worker threads instead of the
    /// sequential kernel.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// The paper's protocol-combination label (e.g. "MESI-CXL-MOESI").
    pub fn label(&self) -> String {
        let g = match self.global {
            GlobalProtocol::Cxl => "CXL".to_string(),
            GlobalProtocol::Hierarchical(f) => f.label().to_string(),
        };
        format!(
            "{}-{}-{}",
            self.protocols.0.label(),
            g,
            self.protocols.1.label()
        )
    }
}

/// Result of one workload run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Simulated execution time (ns) — the paper's metric (all threads).
    pub exec_ns: u64,
    /// Per-cluster completion times (ns) — used by Fig. 9 to show the
    /// weak cluster is not hindered by a TSO neighbour.
    pub cluster_ns: Vec<u64>,
    /// Full statistics report.
    pub report: Report,
}

/// Build the simulated system for one workload/configuration pair
/// without running it — used by `c3 trace` to enable tracing
/// before the first event, and by [`run_workload_with`].
///
/// The returned simulator has the standard 400 M event limit set.
pub fn build_sim(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> (c3_sim::kernel::Simulator<SysMsg>, c3::system::SystemHandles) {
    let nthreads = cfg.cores_per_cluster * cfg.clusters;
    let clusters: Vec<ClusterSpec> = (0..cfg.clusters)
        .map(|ci| {
            let proto = if ci % 2 == 0 {
                cfg.protocols.0
            } else {
                cfg.protocols.1
            };
            ClusterSpec::new(proto, cfg.cores_per_cluster).with_l1(cfg.l1.0, cfg.l1.1)
        })
        .collect();
    let builder = SystemBuilder::new(clusters, cfg.global)
        .cxl_cache(cfg.cxl_cache.0, cfg.cxl_cache.1)
        .seed(cfg.seed)
        .link_latency(cfg.link_latency)
        .ordered_s2m(cfg.ordered_s2m);
    let spec_copy = *spec;
    let mcms = cfg.mcms;
    let protocols = cfg.protocols;
    let ops = cfg.ops_per_core;
    let seed = cfg.seed;
    let cores_per_cluster = cfg.cores_per_cluster;
    let (mut sim, handles) = builder.build(move |ci, k, l1| {
        let thread = ci * cores_per_cluster + k;
        let mcm = if ci % 2 == 0 { mcms.0 } else { mcms.1 };
        let family = if ci % 2 == 0 {
            protocols.0
        } else {
            protocols.1
        };
        let program = spec_copy.generate(thread, nthreads, ops, seed);
        Box::new(TimingCore::new(
            format!("c{ci}.core{k}"),
            l1,
            CoreConfig::new(mcm, family),
            program,
            seed ^ (thread as u64) << 32,
        ))
    });
    sim.set_event_limit(400_000_000);
    if cfg.state_metrics {
        for &l1 in handles.l1s.iter().flatten() {
            if let Some(c) = sim.component_as_mut::<c3_memsys::L1Controller>(l1) {
                c.set_state_metrics(true);
            }
        }
        for &b in &handles.bridges {
            if let Some(c) = sim.component_as_mut::<c3::bridge::C3Bridge>(b) {
                c.set_state_metrics(true);
            }
        }
        // The global tier is either the CXL DCOH or the hierarchical MESI
        // directory depending on `cfg.global`; try both downcasts.
        for &d in &handles.global_dirs {
            if let Some(c) = sim.component_as_mut::<c3_cxl::CxlDirectory>(d) {
                c.set_state_metrics(true);
            }
            if let Some(c) = sim.component_as_mut::<c3_memsys::GlobalMesiDir>(d) {
                c.set_state_metrics(true);
            }
        }
    }
    if let Some(interval) = cfg.metrics_interval {
        sim.set_metrics(interval);
        sim.metrics_mut()
            .set_vnet_lanes(c3_protocol::msg::SYS_VNET_LANES.to_vec());
    }
    (sim, handles)
}

/// Run one workload under one configuration.
///
/// # Panics
///
/// Panics if the simulation deadlocks (a protocol bug).
pub fn run_workload(spec: &WorkloadSpec, cfg: &RunConfig) -> RunResult {
    run_workload_with(spec, cfg, |_, _| ()).0
}

/// Like [`run_workload`], additionally extracting data from the finished
/// simulation via `inspect` (e.g. the DCOH hot-spot profile).
///
/// # Panics
///
/// Panics if the simulation deadlocks (a protocol bug).
pub fn run_workload_with<T>(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    inspect: impl FnOnce(&c3_sim::kernel::Simulator<SysMsg>, &c3::system::SystemHandles) -> T,
) -> (RunResult, T) {
    let (mut sim, handles) = build_sim(spec, cfg);
    let outcome = match cfg.shards {
        Some(n) => sim.run_sharded(n),
        None => sim.run(),
    };
    if outcome != RunOutcome::Completed {
        eprintln!("{}", sim.post_mortem(outcome));
        for &b in &handles.bridges {
            if let Some(bridge) = sim.component_as::<c3::bridge::C3Bridge>(b) {
                eprintln!("{}", bridge.pending_summary());
            }
        }
        if let Some(d) = sim.component_as::<c3_cxl::CxlDirectory>(handles.global_dir) {
            eprintln!("{}", d.engine().pending_summary());
        }
        panic!(
            "{} deadlocked under {}: {:?}",
            spec.name,
            cfg.label(),
            sim.pending_components()
        );
    }
    let (exec_ns, cluster_ns) = exec_times(&sim, &handles);
    let extra = inspect(&sim, &handles);
    (
        RunResult {
            exec_ns,
            cluster_ns,
            report: sim.report(),
        },
        extra,
    )
}

/// Per-cluster and overall completion times (ns) of a finished run: the
/// max over each cluster's cores of `TimingCore::finished_at`, and the
/// max over clusters — the paper's execution-time metric.
pub fn exec_times(
    sim: &c3_sim::kernel::Simulator<SysMsg>,
    handles: &c3::system::SystemHandles,
) -> (u64, Vec<u64>) {
    let mut exec_ns = 0;
    let mut cluster_ns = Vec::new();
    for cluster in &handles.cores {
        let mut t_cluster = 0;
        for &c in cluster {
            let tc = sim.component_as::<TimingCore>(c).expect("timing core");
            t_cluster = t_cluster.max(tc.finished_at().map(|t| t.as_ns()).unwrap_or(0));
        }
        cluster_ns.push(t_cluster);
        exec_ns = exec_ns.max(t_cluster);
    }
    (exec_ns, cluster_ns)
}

/// Geometric mean (the paper's per-suite aggregation).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Miss-cycle totals per latency band and access kind (Fig. 11 rows) from
/// a run report, summed over all L1s.
pub fn miss_breakdown(report: &Report) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for kind in ["load", "store", "rmw"] {
        for band in ["low(<75ns)", "med(75-400ns)", "high(>400ns)"] {
            let mut total = 0.0;
            for (k, v) in report.iter() {
                if k.ends_with(&format!("{kind}.miss_ns.{band}")) {
                    total += v;
                }
            }
            rows.push((format!("{kind}.{band}"), total));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(global: GlobalProtocol) -> RunConfig {
        RunConfig::scaled(
            (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
            global,
            (Mcm::Weak, Mcm::Weak),
        )
        .quick()
    }

    #[test]
    fn workload_runs_complete_on_both_globals() {
        let spec = WorkloadSpec::by_name("vips").unwrap();
        for global in [
            GlobalProtocol::Cxl,
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
        ] {
            let r = run_workload(&spec, &quick_cfg(global));
            assert!(r.exec_ns > 0);
            assert!(r.report.get("sim.events").unwrap() > 0.0);
        }
    }

    #[test]
    fn contended_workload_more_cxl_sensitive_than_streaming() {
        // The paper's Fig. 10 shape: contended workloads suffer more from
        // the CXL protocol than streaming ones, relative to the baseline.
        let ratio = |name: &str| {
            let spec = WorkloadSpec::by_name(name).unwrap();
            let mut cfg = quick_cfg(GlobalProtocol::Cxl);
            cfg.ops_per_core = 600;
            let cxl = run_workload(&spec, &cfg).exec_ns as f64;
            let mut cfg = quick_cfg(GlobalProtocol::Hierarchical(ProtocolFamily::Mesi));
            cfg.ops_per_core = 600;
            let base = run_workload(&spec, &cfg).exec_ns as f64;
            cxl / base
        };
        let hist = ratio("histogram");
        let vips = ratio("vips");
        assert!(
            hist > vips,
            "histogram ratio {hist:.3} <= vips ratio {vips:.3}"
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn labels_match_paper_nomenclature() {
        let cfg = RunConfig::scaled(
            (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
            GlobalProtocol::Cxl,
            (Mcm::Weak, Mcm::Weak),
        );
        assert_eq!(cfg.label(), "MESI-CXL-MOESI");
        let cfg = RunConfig::scaled(
            (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            (Mcm::Weak, Mcm::Weak),
        );
        assert_eq!(cfg.label(), "MESI-MESI-MESI");
    }
}
