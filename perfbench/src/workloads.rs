//! The four workloads: what each runs, how a unit is checked, and the
//! timed and traced runs that produce the end-to-end and per-layer
//! metrics.
//!
//! A *pass* runs every unit of a workload once; a run repeats passes
//! until its `--seconds` budget is spent (at least one pass) and reports
//! medians over passes. Every simulation starts with cold caches.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use c3::system::{GlobalProtocol, SystemHandles};
use c3_bench::alloc::alloc_count;
use c3_bench::{build_sim, exec_times, RunConfig};
use c3_mcm::core_model::TimingCore;
use c3_protocol::mcm::Mcm;
use c3_protocol::msg::SysMsg;
use c3_protocol::ops::Instr;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::{RunOutcome, Simulator};
use c3_sim::stats::Report;
use c3_verif::resilient::{check_resilient, ResilientConfig, ResilientResult};
use c3_workloads::WorkloadSpec;

use crate::args::Workload;
use crate::assemble::build_traced;
use crate::bfs::{explore, BfsProfile, Timer};
use crate::output::{fnv1a, median, peak_rss_mb, Outcome, FNV_OFFSET};
use crate::probe::{Layer, ProbeCost, ProbeResult, Span, Tally};

/// One simulation of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Program generator.
    pub spec: WorkloadSpec,
    /// System and run configuration (`shards` picks the kernel).
    pub cfg: RunConfig,
}

impl Cell {
    /// `workload/PROTO-GLOBAL-PROTO`, for messages.
    pub fn tag(&self) -> String {
        format!("{}/{}", self.spec.name, self.cfg.label())
    }

    fn threads(&self) -> usize {
        self.cfg.shards.unwrap_or(1)
    }
}

/// Telemetry sampling interval of `oltp`, simulated ns. At the 100 ns
/// default of the repository's `metrics` tool the `metrics()` hooks
/// take over half of the traced `oltp` wall and swamp the L1, bridge
/// and DCOH work this workload is there to measure (see `BASELINE.md`).
const OLTP_TELEMETRY_NS: u64 = 1000;

/// The Fig. 10 protocol combinations, at the paper's scaled size.
fn fig10_configs() -> [RunConfig; 4] {
    let mesi = ProtocolFamily::Mesi;
    let weak = (Mcm::Weak, Mcm::Weak);
    [
        RunConfig::scaled((mesi, mesi), GlobalProtocol::Hierarchical(mesi), weak),
        RunConfig::scaled((mesi, mesi), GlobalProtocol::Cxl, weak),
        RunConfig::scaled((mesi, ProtocolFamily::Moesi), GlobalProtocol::Cxl, weak),
        RunConfig::scaled((mesi, ProtocolFamily::Mesif), GlobalProtocol::Cxl, weak),
    ]
}

/// The simulations of a simulator workload under `seed` (empty for
/// `modelcheck`).
fn cells(workload: Workload, seed: u64) -> Vec<Cell> {
    let weak = (Mcm::Weak, Mcm::Weak);
    let cells: Vec<Cell> = match workload {
        Workload::Fig10 => WorkloadSpec::all()
            .into_iter()
            .flat_map(|spec| fig10_configs().map(|cfg| Cell { spec, cfg }))
            .collect(),
        Workload::Oltp => {
            // MESI hosts only: MOESI hosts deadlock on about one seed in
            // ten of this workload (see "Known defect" in BASELINE.md).
            let mesi = ProtocolFamily::Mesi;
            let spec = WorkloadSpec::by_name("oltp-zipf").expect("oltp-zipf spec");
            let mut cfg = RunConfig::scaled((mesi, mesi), GlobalProtocol::Cxl, weak)
                .with_clusters(4)
                .with_state_metrics()
                .metrics_ns(OLTP_TELEMETRY_NS);
            cfg.ops_per_core = 4000;
            vec![Cell { spec, cfg }]
        }
        Workload::Vips8cPdes => {
            let mesi = ProtocolFamily::Mesi;
            let mut cfg = RunConfig::scaled((mesi, mesi), GlobalProtocol::Cxl, weak)
                .with_clusters(8)
                .with_shards(2);
            cfg.cores_per_cluster = 16;
            let spec = WorkloadSpec::by_name("vips").expect("vips spec");
            vec![Cell { spec, cfg }]
        }
        Workload::Modelcheck => Vec::new(),
    };
    cells
        .into_iter()
        .map(|mut c| {
            c.cfg.seed = seed;
            c
        })
        .collect()
}

/// The two checker configurations of `modelcheck` (seed-free).
fn checker_configs() -> [ResilientConfig; 2] {
    let base = ResilientConfig {
        clusters: 3,
        addrs: 2,
        ..ResilientConfig::default()
    };
    [
        ResilientConfig {
            ops_per_cluster: 2,
            max_faults: 0,
            max_retries: 0,
            ..base.clone()
        },
        ResilientConfig {
            ops_per_cluster: 1,
            max_faults: 3,
            max_retries: 3,
            ..base
        },
    ]
}

/// Memory operations (loads, stores, RMWs) in a cell's generated
/// programs: the count every L1 together must have served.
pub fn expected_ops(cell: &Cell) -> u64 {
    let n = cell.cfg.cores_per_cluster * cell.cfg.clusters;
    (0..n)
        .map(|t| {
            cell.spec
                .generate(t, n, cell.cfg.ops_per_core, cell.cfg.seed)
                .instrs
                .iter()
                .filter(|i| {
                    matches!(
                        i,
                        Instr::Load { .. } | Instr::Store { .. } | Instr::Rmw { .. }
                    )
                })
                .count() as u64
        })
        .sum()
}

/// Expected op counts of `cells`, generating each distinct program set
/// once (the Fig. 10 protocol combinations share theirs).
fn expected_ops_all(cells: &[Cell]) -> Vec<u64> {
    let mut memo: BTreeMap<(&str, usize), u64> = BTreeMap::new();
    cells
        .iter()
        .map(|c| {
            let key = (c.spec.name, c.cfg.cores_per_cluster * c.cfg.clusters);
            *memo.entry(key).or_insert_with(|| expected_ops(c))
        })
        .collect()
}

/// Memory operations the L1s served, from a report.
fn served_ops(report: &Report) -> u64 {
    const SUFFIXES: [&str; 6] = [
        ".load.hits",
        ".load.misses",
        ".store.hits",
        ".store.misses",
        ".rmw.hits",
        ".rmw.misses",
    ];
    report
        .iter()
        .filter(|(k, _)| k.contains(".l1.") && SUFFIXES.iter().any(|s| k.ends_with(s)))
        .map(|(_, v)| v as u64)
        .sum()
}

/// FNV-1a of a simulation's behaviour: `exec_ns` and every report line,
/// sorted (the rendering `report_dump` and the pinned tests use).
fn report_fingerprint(exec_ns: u64, report: &Report) -> u64 {
    let mut lines: Vec<String> = report.iter().map(|(k, v)| format!("{k}={v}")).collect();
    lines.sort_unstable();
    fnv1a(
        FNV_OFFSET,
        format!("exec_ns={exec_ns}\n{}", lines.join("\n")).as_bytes(),
    )
}

/// One finished simulation.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Program generation plus assembly.
    pub setup: Duration,
    /// `run()` / `run_sharded()`.
    pub wall: Duration,
    /// Memory operations served.
    pub ops: u64,
    /// Kernel events.
    pub events: u64,
    /// Simulated execution time (the paper's metric).
    pub exec_ns: u64,
    /// Heap allocations during setup and run.
    pub allocs: u64,
    /// [`report_fingerprint`].
    pub fingerprint: u64,
    /// The run's report.
    pub report: Report,
    /// Why the unit failed, if it did.
    pub failure: Option<String>,
}

fn run_kernel(sim: &mut Simulator<SysMsg>, cfg: &RunConfig) -> RunOutcome {
    match cfg.shards {
        Some(n) => sim.run_sharded(n),
        None => sim.run(),
    }
}

/// Check a finished simulation and collect its results.
fn finish(
    sim: &Simulator<SysMsg>,
    handles: &SystemHandles,
    outcome: RunOutcome,
    expected_ops: u64,
) -> (u64, Report, u64, Option<String>) {
    let report = sim.report();
    let (exec_ns, _) = exec_times(sim, handles);
    let ops = served_ops(&report);
    let unfinished = handles
        .cores
        .iter()
        .flatten()
        .filter(|&&c| {
            sim.component_as::<TimingCore>(c)
                .is_none_or(|core| core.finished_at().is_none())
        })
        .count();
    let failure = if outcome != RunOutcome::Completed {
        Some(format!("{outcome:?}\n{}", sim.post_mortem(outcome)))
    } else if unfinished > 0 {
        Some(format!("{unfinished} core(s) did not finish"))
    } else if ops != expected_ops {
        Some(format!(
            "L1s served {ops} memory ops, programs hold {expected_ops}"
        ))
    } else {
        None
    };
    (exec_ns, report, ops, failure)
}

/// Run one cell the way a user does: `c3_bench::build_sim`, then the
/// kernel the config names.
pub fn run_cell(cell: &Cell, expected_ops: u64) -> SimRun {
    let a0 = alloc_count();
    let t0 = Instant::now();
    let (mut sim, handles) = build_sim(&cell.spec, &cell.cfg);
    let setup = t0.elapsed();
    let t1 = Instant::now();
    let outcome = run_kernel(&mut sim, &cell.cfg);
    let wall = t1.elapsed();
    let allocs = alloc_count() - a0;
    let (exec_ns, report, ops, failure) = finish(&sim, &handles, outcome, expected_ops);
    SimRun {
        setup,
        wall,
        ops,
        events: sim.events_processed(),
        exec_ns,
        allocs,
        fingerprint: report_fingerprint(exec_ns, &report),
        report,
        failure,
    }
}

/// One traced simulation.
pub struct TracedRun {
    /// The same fields as an untraced run (`setup` = generate + build).
    pub run: SimRun,
    /// Host time inside `WorkloadSpec::generate`.
    pub generate: Duration,
    /// Host time of the rest of the assembly.
    pub build: Duration,
    /// What every probe recorded.
    pub probes: Vec<ProbeResult>,
}

/// Run one cell on the benchmark-side assembly with every component
/// wrapped in a probe.
pub fn run_traced(cell: &Cell, expected_ops: u64, spans: bool) -> TracedRun {
    let a0 = alloc_count();
    let mut t = build_traced(&cell.spec, &cell.cfg, spans);
    let t1 = Instant::now();
    let outcome = run_kernel(&mut t.sim, &cell.cfg);
    let wall = t1.elapsed();
    let allocs = alloc_count() - a0;
    let (exec_ns, report, ops, failure) = finish(&t.sim, &t.handles, outcome, expected_ops);
    let events = t.sim.events_processed();
    drop(t.sim);
    let probes = std::mem::take(&mut *t.sink.lock().expect("probe sink poisoned"));
    TracedRun {
        run: SimRun {
            setup: t.generate + t.build,
            wall,
            ops,
            events,
            exec_ns,
            allocs,
            fingerprint: report_fingerprint(exec_ns, &report),
            report,
            failure,
        },
        generate: t.generate,
        build: t.build,
        probes,
    }
}

/// Counts failures and checks that repeated units behave identically.
#[derive(Default)]
struct Units {
    attempted: u64,
    failed: u64,
    /// Behaviour of each unit on its first run, by unit index.
    first: BTreeMap<usize, u64>,
}

impl Units {
    /// Record unit `i` of a pass with behaviour `fp`; returns whether it
    /// passed.
    fn record(&mut self, i: usize, tag: &str, fp: u64, failure: Option<String>) -> bool {
        self.attempted += 1;
        let failure = failure.or_else(|| match self.first.get(&i) {
            None => {
                self.first.insert(i, fp);
                None
            }
            Some(&f) if f != fp => Some(format!(
                "fingerprint {fp:#018x} differs from the first pass's {f:#018x}"
            )),
            Some(_) => None,
        });
        if let Some(why) = &failure {
            self.failed += 1;
            eprintln!("FAILED {tag}: {why}");
        }
        failure.is_none()
    }

    /// FNV over the units' fingerprints, in unit order.
    fn fingerprint(&self) -> u64 {
        self.first
            .values()
            .fold(FNV_OFFSET, |h, fp| fnv1a(h, &fp.to_le_bytes()))
    }

    fn outcome(&self, values: BTreeMap<&'static str, f64>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            values,
        }
    }
}

fn budget_left(start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() < seconds
}

/// The timed run of a simulator workload: end-to-end metrics.
pub fn timed_sim(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let cells = cells(workload, seed);
    let expected = expected_ops_all(&cells);
    let mut units = Units::default();
    let (mut ops_per_s, mut setup_s, mut allocs_per_op) = (Vec::new(), Vec::new(), Vec::new());
    let mut exec_ns = 0;
    let start = Instant::now();
    loop {
        let (mut ops, mut wall, mut setup, mut allocs) = (0u64, 0.0, 0.0, 0u64);
        for (i, cell) in cells.iter().enumerate() {
            let r = run_cell(cell, expected[i]);
            units.record(i, &cell.tag(), r.fingerprint, r.failure);
            if ops_per_s.is_empty() {
                exec_ns += r.exec_ns;
            }
            ops += r.ops;
            wall += r.wall.as_secs_f64();
            setup += r.setup.as_secs_f64();
            allocs += r.allocs;
        }
        ops_per_s.push(ops as f64 / wall);
        setup_s.push(setup);
        allocs_per_op.push(allocs as f64 / ops.max(1) as f64);
        if !budget_left(start, seconds) {
            break;
        }
    }
    println!(
        "{}: {} simulation(s) x {} pass(es), fingerprint {:#018x}, sim_exec_ns {exec_ns}",
        workload.name(),
        cells.len(),
        ops_per_s.len(),
        units.fingerprint(),
    );
    print_passes(&ops_per_s, &setup_s);
    units.outcome(BTreeMap::from([
        ("ops_per_s", median(&ops_per_s)),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("allocs_per_op", median(&allocs_per_op)),
    ]))
}

fn print_passes(ops_per_s: &[f64], setup_s: &[f64]) {
    let fmt = |xs: &[f64], scale: f64| -> String {
        xs.iter()
            .map(|x| format!("{:.4}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  ops/s per pass (k): {}", fmt(ops_per_s, 1e-3));
    println!("  setup per pass (ms): {}", fmt(setup_s, 1e3));
}

/// Checker initialisation of `cfgs`: `check_resilient` itself on each
/// config with no operations to run, so that it builds everything it
/// builds before its first BFS step and then expands the one initial
/// state, which has no successors.
fn checker_setup(cfgs: &[ResilientConfig]) -> Duration {
    let t0 = Instant::now();
    for cfg in cfgs {
        let r = check_resilient(&ResilientConfig {
            ops_per_cluster: 0,
            ..cfg.clone()
        });
        assert_eq!(r.canonical_states, 1, "a zero-op check explores one state");
    }
    t0.elapsed()
}

/// Set-up repetitions of `modelcheck` before each checker run, pooled
/// over a pass and reduced to their median: the set-up takes
/// microseconds, so a single sample is mostly noise from whatever ran
/// before it, and samples from two moments of the pass are steadier
/// than from one.
const SETUP_SAMPLES: usize = 64;

/// `(violation found, canonical, unreduced, edges)` of one checker run.
type CheckerCounts = (bool, u64, u128, u64);

/// Check one `check_resilient` result: record it as unit `i` (failing
/// it on a violation, a truncation or `also_failed`) and return its
/// counts, printing them on the first pass.
fn record_checker(
    units: &mut Units,
    i: usize,
    cfg: &ResilientConfig,
    r: ResilientResult,
    also_failed: Option<String>,
    first_pass: bool,
) -> CheckerCounts {
    let counts = (
        r.violation.is_some(),
        r.canonical_states as u64,
        r.unreduced_states,
        r.edges,
    );
    let tag = format!(
        "{}x{} ops={} faults={}",
        cfg.clusters, cfg.addrs, cfg.ops_per_cluster, cfg.max_faults
    );
    let failure = if counts.0 || r.truncated {
        Some(format!(
            "verdict {:?}, truncated {}",
            r.violation.map(|v| v.0),
            r.truncated
        ))
    } else {
        also_failed
    };
    let fp = fnv1a(FNV_OFFSET, format!("{counts:?}").as_bytes());
    if units.record(i, &tag, fp, failure) && first_pass {
        let (violation, canonical, unreduced, edges) = counts;
        println!(
            "modelcheck {tag}: (verdict {}, canonical {canonical}, unreduced {unreduced}, edges {edges})",
            if violation { "violation" } else { "clean" },
        );
    }
    counts
}

/// The timed run of `modelcheck`: one canonical state counts as one op.
pub fn timed_modelcheck(seconds: f64) -> Outcome {
    let cfgs = checker_configs();
    let mut units = Units::default();
    let (mut ops_per_s, mut setup_s, mut allocs_per_op) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let mut samples = Vec::new();
        let (mut states, mut wall, mut allocs) = (0u64, 0.0, 0u64);
        for (i, cfg) in cfgs.iter().enumerate() {
            samples.extend((0..SETUP_SAMPLES).map(|_| checker_setup(&cfgs).as_secs_f64()));
            let a0 = alloc_count();
            let t0 = Instant::now();
            let r = check_resilient(cfg);
            wall += t0.elapsed().as_secs_f64();
            allocs += alloc_count() - a0;
            let first_pass = ops_per_s.is_empty();
            states += record_checker(&mut units, i, cfg, r, None, first_pass).1;
        }
        setup_s.push(median(&samples));
        ops_per_s.push(states as f64 / wall);
        allocs_per_op.push(allocs as f64 / states.max(1) as f64);
        if !budget_left(start, seconds) {
            break;
        }
    }
    println!(
        "modelcheck: {} pass(es), fingerprint {:#018x}",
        ops_per_s.len(),
        units.fingerprint()
    );
    print_passes(&ops_per_s, &setup_s);
    units.outcome(BTreeMap::from([
        ("ops_per_s", median(&ops_per_s)),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("allocs_per_op", median(&allocs_per_op)),
    ]))
}

/// Every per-layer metric at 0: the value of a layer a workload does not
/// run.
fn zeroed_per_layer() -> BTreeMap<&'static str, f64> {
    crate::output::PER_LAYER
        .iter()
        .map(|&(n, _)| (n, 0.0))
        .collect()
}

fn layer_metric(layer: Layer, what: &str) -> &'static str {
    let name = format!("{}.{what}", layer.name());
    crate::output::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} not declared"))
}

/// Simulated-time statistics (exact for a seed) summed over reports.
fn sim_stats(reports: &[&Report], out: &mut BTreeMap<&'static str, f64>) {
    let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        reports
            .iter()
            .flat_map(|r| r.iter())
            .filter(|(k, _)| pred(k))
            .map(|(_, v)| v)
            .sum()
    };
    let l1 =
        |k: &str, suffixes: &[&str]| k.contains(".l1.") && suffixes.iter().any(|s| k.ends_with(s));
    let hits = sum(&|k| l1(k, &[".load.hits", ".store.hits", ".rmw.hits"]));
    let misses = sum(&|k| l1(k, &[".load.misses", ".store.misses", ".rmw.misses"]));
    out.insert("sim.l1.hit_ratio", hits / (hits + misses).max(1.0));
    out.insert(
        "sim.l1.miss_ns_high",
        sum(&|k| l1(k, &[".miss_ns.high(>400ns)"])),
    );
    out.insert("sim.bridge.snoops", sum(&|k| k.ends_with(".bridge.snoops")));
    out.insert(
        "sim.dcoh.stalled_requests",
        sum(&|k| k.starts_with("cxl.dcoh") && k.ends_with(".stalled_requests")),
    );
    out.insert(
        "sim.dcoh.conflicts",
        sum(&|k| k.starts_with("cxl.dcoh") && k.ends_with(".conflicts")),
    );
    out.insert(
        "sim.gdir.stalled_requests",
        sum(&|k| k.starts_with("global.dir") && k.ends_with(".stalled_requests")),
    );
    let touched = sum(&|k| k.ends_with(".touched_lines"));
    let resident = sum(&|k| k.ends_with(".peak_resident_lines"));
    out.insert(
        "sim.state.peak_resident_ratio",
        if touched > 0.0 {
            resident / touched
        } else {
            0.0
        },
    );
}

/// Where span files go: the build directory, which version control
/// ignores.
fn span_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::Path::new(&target).join("perfbench-spans")
}

/// Write one cell's spans as CSV; returns the path written.
fn write_spans(workload: Workload, cell: &Cell, spans: &mut [Span]) -> std::io::Result<String> {
    use std::io::Write;
    spans.sort_by_key(|s| (s.start_ns, s.component));
    let dir = span_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.csv", workload.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "# cell {}", cell.tag())?;
    writeln!(w, "layer,component,start_ns,end_ns,sim_ps")?;
    for s in spans.iter() {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.layer.name(),
            s.component,
            s.start_ns,
            s.end_ns,
            s.sim_ps
        )?;
    }
    w.flush()?;
    Ok(path.display().to_string())
}

/// The traced run of a simulator workload: per-layer metrics.
///
/// Each pass runs every cell untraced (through `build_sim`) and then
/// traced (through the probe assembly), and fails a cell whose traced
/// event count or report fingerprint differs from its untraced one.
/// `vips8c-pdes` also runs each cell on one shard thread for the
/// speed-up.
pub fn traced_sim(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let cost = ProbeCost::of_probe();
    let cells = cells(workload, seed);
    let expected = expected_ops_all(&cells);
    let mut units = Units::default();
    let mut layers: BTreeMap<Layer, Tally> = BTreeMap::new();
    let (mut untraced_wall, mut traced_wall, mut thread_time) = (0.0, 0.0, 0.0);
    let (mut events, mut windows, mut probe_calls) = (0u64, 0u64, 0u64);
    let (mut generate_s, mut build_s) = (Vec::new(), Vec::new());
    let (mut wall_1, mut wall_2) = (Vec::new(), Vec::new());
    let mut out = zeroed_per_layer();
    let mut kept_spans: Vec<Span> = Vec::new();
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        let (mut generate, mut build) = (0.0, 0.0);
        let mut reports = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let u = run_cell(cell, expected[i]);
            let failed = u.failure.is_some();
            units.record(i, &cell.tag(), u.fingerprint, u.failure);
            if cell.threads() > 1 {
                // Reports are byte-identical for any shard count, so the
                // one-thread run is checked against the same unit.
                let mut one = *cell;
                one.cfg.shards = Some(1);
                let u1 = run_cell(&one, expected[i]);
                units.record(i, &one.tag(), u1.fingerprint, u1.failure);
                wall_1.push(u1.wall.as_secs_f64());
                wall_2.push(u.wall.as_secs_f64());
            }
            let spans = passes == 0 && i == 0;
            let mut t = run_traced(cell, expected[i], spans);
            let cell_windows = t.probes.iter().map(|p| p.tally.hook_calls).max();
            let cell_windows = cell_windows.unwrap_or(0);
            let mismatch = t.run.failure.take().or_else(|| {
                if !failed && (t.run.events, t.run.fingerprint) != (u.events, u.fingerprint) {
                    Some(format!(
                        "traced run diverged: {} events, fingerprint {:#018x}; untraced {} events, {:#018x}",
                        t.run.events, t.run.fingerprint, u.events, u.fingerprint
                    ))
                } else if cell.cfg.metrics_interval.is_none() && cell_windows > 0 {
                    Some(format!("telemetry is off but {cell_windows} metrics() hook call(s) ran"))
                } else {
                    None
                }
            });
            units.attempted += 1;
            if let Some(why) = mismatch {
                units.failed += 1;
                eprintln!("FAILED traced {}: {why}", cell.tag());
            }
            untraced_wall += u.wall.as_secs_f64();
            traced_wall += t.run.wall.as_secs_f64();
            thread_time += t.run.wall.as_secs_f64() * cell.threads() as f64;
            events += t.run.events;
            generate += t.generate.as_secs_f64();
            build += t.build.as_secs_f64();
            windows += cell_windows;
            for p in &t.probes {
                layers.entry(p.layer).or_default().merge(&p.tally);
                probe_calls += p.tally.calls;
            }
            if spans {
                kept_spans = t
                    .probes
                    .iter_mut()
                    .flat_map(|p| p.spans.drain(..))
                    .collect();
            }
            if passes == 0 {
                out.insert("sim.exec_ns", out["sim.exec_ns"] + t.run.exec_ns as f64);
                out.insert("sim.events", out["sim.events"] + t.run.events as f64);
                reports.push(t.run.report);
            }
        }
        if passes == 0 {
            sim_stats(&reports.iter().collect::<Vec<_>>(), &mut out);
        }
        generate_s.push(generate);
        build_s.push(build);
        passes += 1;
        if !budget_left(start, seconds) {
            break;
        }
    }

    // The probes' calibrated cost comes off the spans (the part inside
    // them) and off the traced wall (all of it), so the shares split the
    // work the simulation itself did; whatever tracing cost beyond the
    // calibration is `trace.residual_overhead`.
    let threads = thread_time / traced_wall;
    let work_ns = thread_time * 1e9 - probe_calls as f64 * cost.per_call();
    let mut handler_ns = 0.0;
    let mut hook_ns = 0.0;
    for layer in Layer::ALL {
        let t = layers.get(&layer).copied().unwrap_or_default();
        let calls = t.calls.max(1) as f64;
        let self_ns = cost.self_ns(t.calls, t.ns);
        handler_ns += self_ns;
        hook_ns += t.hook_ns as f64;
        out.insert(layer_metric(layer, "calls"), t.calls as f64 / passes as f64);
        out.insert(layer_metric(layer, "ns_per_call"), self_ns / calls);
        out.insert(layer_metric(layer, "share"), self_ns / work_ns);
        out.insert(
            layer_metric(layer, "allocs_per_call"),
            t.allocs as f64 / calls,
        );
    }
    let kernel_ns = work_ns - handler_ns - hook_ns;
    out.insert("kernel.ns_per_event", kernel_ns / events.max(1) as f64);
    out.insert("kernel.share", kernel_ns / work_ns);
    out.insert("telemetry.windows", windows as f64 / passes as f64);
    out.insert(
        "telemetry.hook_ns_per_window",
        hook_ns / windows.max(1) as f64,
    );
    out.insert("telemetry.share", hook_ns / work_ns);
    out.insert("setup.generate_s", median(&generate_s));
    out.insert("setup.build_s", median(&build_s));
    if !wall_2.is_empty() {
        out.insert("shard.speedup_2v1", median(&wall_1) / median(&wall_2));
        let per_pass_events = events as f64 / passes as f64;
        out.insert(
            "shard.ns_per_event",
            median(&wall_2) * 1e9 / per_pass_events,
        );
    }
    out.insert("trace.overhead", traced_wall / untraced_wall - 1.0);
    out.insert("trace.probe_ns_per_call", cost.per_call());
    out.insert(
        "trace.residual_overhead",
        work_ns * 1e-9 / threads / untraced_wall - 1.0,
    );

    match write_spans(workload, &cells[0], &mut kept_spans) {
        Ok(path) => println!(
            "spans of {}: {} written to {path}",
            cells[0].tag(),
            kept_spans.len()
        ),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    println!(
        "{} traced: {} simulation(s) x {passes} pass(es), fingerprint {:#018x}",
        workload.name(),
        cells.len(),
        units.fingerprint(),
    );
    print_layer_table(&out);
    units.outcome(out)
}

fn print_layer_table(m: &BTreeMap<&'static str, f64>) {
    println!(
        "{:<10} {:>14} {:>12} {:>8} {:>12}",
        "layer", "calls/pass", "ns/call", "share", "allocs/call"
    );
    for layer in Layer::ALL {
        let g = |what| m[layer_metric(layer, what)];
        println!(
            "{:<10} {:>14.0} {:>12.1} {:>7.1}% {:>12.3}",
            layer.name(),
            g("calls"),
            g("ns_per_call"),
            100.0 * g("share"),
            g("allocs_per_call")
        );
    }
    println!(
        "{:<10} {:>14} {:>12.1} {:>7.1}%   (ns/event)",
        "kernel",
        "",
        m["kernel.ns_per_event"],
        100.0 * m["kernel.share"]
    );
    println!(
        "{:<10} {:>14.0} {:>12.1} {:>7.1}%   (windows, ns/window)",
        "telemetry",
        m["telemetry.windows"],
        m["telemetry.hook_ns_per_window"],
        100.0 * m["telemetry.share"]
    );
    print_overhead(m);
}

fn print_overhead(m: &BTreeMap<&'static str, f64>) {
    println!(
        "trace overhead {:+.1}%, of which {:+.1}% beyond the calibrated {:.1} ns per timed call",
        100.0 * m["trace.overhead"],
        100.0 * m["trace.residual_overhead"],
        m["trace.probe_ns_per_call"]
    );
}

/// The traced run of `modelcheck`: each pass runs `check_resilient` and
/// the benchmark-side BFS on both configs and fails a config whose
/// counts disagree.
pub fn traced_modelcheck(seconds: f64) -> Outcome {
    let cost = Timer::cost();
    let cfgs = checker_configs();
    let mut units = Units::default();
    let mut prof = BfsProfile::default();
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let (mut canonical, mut unreduced) = (0u64, 0u128);
    let mut passes = 0;
    let start = Instant::now();
    loop {
        for (i, cfg) in cfgs.iter().enumerate() {
            let t0 = Instant::now();
            let r = check_resilient(cfg);
            untraced_wall += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let p = explore(cfg);
            traced_wall += t0.elapsed().as_secs_f64();
            let want = (
                r.violation.is_some(),
                r.canonical_states as u64,
                r.unreduced_states,
                r.edges,
            );
            let diverged = (p.truncated || p.counts() != want).then(|| {
                format!(
                    "benchmark-side BFS counts {:?} (truncated {}) differ from check_resilient's {want:?}",
                    p.counts(),
                    p.truncated
                )
            });
            record_checker(&mut units, i, cfg, r, diverged, passes == 0);
            if passes == 0 {
                canonical += p.canonical;
                unreduced += p.unreduced;
            }
            prof.merge_timers(&p);
        }
        passes += 1;
        if !budget_left(start, seconds) {
            break;
        }
    }
    let timers = [
        (
            "verif.successors.ns_per_state",
            "successors",
            prof.successors,
        ),
        (
            "verif.canonical.ns_per_call",
            "canonical",
            prof.canonical_fn,
        ),
        ("verif.visited.ns_per_insert", "visited", prof.visited),
        ("verif.decode.ns_per_call", "decode", prof.decode),
        ("verif.check.ns_per_state", "check", prof.check),
        ("verif.frontier.ns_per_op", "frontier", prof.frontier),
    ];
    let calls: u64 = timers.iter().map(|(_, _, t)| t.calls).sum();
    let work_wall = traced_wall - calls as f64 * cost.per_call() * 1e-9;
    let mut out = zeroed_per_layer();
    println!(
        "modelcheck traced: {passes} pass(es), fingerprint {:#018x}",
        units.fingerprint()
    );
    for (metric, name, t) in timers {
        let self_ns = cost.self_ns(t.calls, t.ns);
        let ns_per_call = self_ns / t.calls.max(1) as f64;
        out.insert(metric, ns_per_call);
        println!(
            "{name:<11} {:>10} calls/pass {ns_per_call:>8.1} ns/call {:>6.1}% of work time",
            t.calls / passes,
            100.0 * self_ns / (work_wall * 1e9)
        );
    }
    out.insert(
        "verif.reduction",
        unreduced as f64 / canonical.max(1) as f64,
    );
    out.insert("trace.overhead", traced_wall / untraced_wall - 1.0);
    out.insert("trace.probe_ns_per_call", cost.per_call());
    out.insert("trace.residual_overhead", work_wall / untraced_wall - 1.0);
    print_overhead(&out);
    units.outcome(out)
}
