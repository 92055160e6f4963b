//! `perf` — kernel-throughput microbench tracking the perf trajectory.
//!
//! Four measurements:
//!
//! * **ping-pong**: two components exchanging one message over a single
//!   intra-cluster link — a pure event-kernel hot-path workload (calendar
//!   queue pop, fabric deliver, handler dispatch) with almost no
//!   component logic, so events/sec here is the kernel's ceiling;
//! * **workload**: a real C³ run (`vips`, MESI-CXL-MESI) — events/sec
//!   with protocol logic, caches and the full topology in the loop;
//! * **metrics**: the same vips run with sampled telemetry enabled
//!   (`metrics+vips/...`) — bounds the allocation cost of the metrics
//!   hub's steady-state sampling;
//! * **oltp**: the OLTP/KV quick cell (`oltp-quick/...`, skew 0.99,
//!   `state_metrics` on) — bounds the region store's promote/demote
//!   churn, which must recycle allocations at steady state.
//!
//! Each measurement reports **events/sec** (wall-clock, noisy) and
//! **allocs/event** (exact and deterministic for a seed — the process
//! runs under [`crate::alloc::CountingAlloc`]). Results append to the
//! `runs` array of the output JSON (default `BENCH_perf.json`), so
//! successive invocations — and CI's per-commit artifacts — accumulate
//! comparable points instead of overwriting each other.
//!
//! With `--shards n1,n2,...` the subcommand additionally measures a PDES-scaled
//! run per requested shard-thread count: vips on an **8-cluster** system
//! (`shard{n}+vips8c/...`), executed by the conservative parallel kernel
//! ([`Simulator::run_sharded`]). These entries are opt-in so the default
//! four-measurement output (and the `perf_quick_smoke` shape test) stays
//! stable.
//!
//! Exits nonzero if any measurement reports zero throughput, if
//! `--alloc-budget FILE` is given and a measurement exceeds its
//! committed allocs/event budget (the deterministic perf gate; see
//! `crates/bench/alloc_budget.txt` and the perf-smoke CI job), or if
//! `--floor-label TEXT` is given and the ping-pong, vips or
//! metrics-enabled vips throughput drops more than 20% below the best
//! committed same-`quick` entry under that label (the wall-clock
//! regression floors).

use std::any::Any;
use std::num::NonZeroUsize;

use c3::system::GlobalProtocol;
use c3_sim::prelude::*;
use c3_workloads::WorkloadSpec;

use crate::alloc::alloc_count;
use crate::cli::{self, usage_error, Args, CliError, Flag, Subcommand, OUT, QUICK};
use crate::runner::{self, json_escape, Experiment};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "perf",
    about: "Kernel-throughput microbench: events/s, allocs/event, budget and floor gates",
    operands: "",
    flags: &[
        QUICK,
        Flag::Num("--exchanges", "N", "ping-pong exchanges (2e5 quick, 2e6)"),
        OUT,
        Flag::Text("--label", "TEXT", "label of this run (default: local)"),
        Flag::Text("--alloc-budget", "FILE", "allocs/event budgets to enforce"),
        Flag::Text("--shards", "N[,N...]", "time 8-cluster vips on N shards"),
        Flag::Text("--floor-label", "TEXT", "fail 20% below the best TEXT run"),
    ],
    run,
};

#[derive(Debug, Clone)]
struct Ball(u64);
impl Message for Ball {}

/// Ping-pong player: returns the ball until the exchange budget drains.
struct Player {
    peer: Option<ComponentId>,
    budget: u64,
    serve: bool,
    done: bool,
}

impl Component<Ball> for Player {
    fn name(&self) -> String {
        "player".into()
    }
    fn start(&mut self, ctx: &mut Ctx<'_, Ball>) {
        if self.serve {
            ctx.send(self.peer.unwrap(), Ball(0));
        }
    }
    fn handle(&mut self, msg: Ball, _src: ComponentId, ctx: &mut Ctx<'_, Ball>) {
        if msg.0 < self.budget {
            ctx.send(self.peer.unwrap(), Ball(msg.0 + 1));
        } else {
            self.done = true;
        }
    }
    fn done(&self) -> bool {
        self.done || !self.serve
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One measured run, rendered as an entry of the JSON `runs` array.
struct Measurement {
    config: String,
    events: u64,
    sim_ns: u64,
    exec_ns: Option<u64>,
    wall_ms: f64,
    events_per_sec: f64,
    allocs: u64,
    allocs_per_event: f64,
}

impl Measurement {
    /// One console line; `kind` names the measurement.
    fn print(&self, kind: &str) {
        // Ping-pong, the only run without an exec time, has no config tag.
        let config = match self.exec_ns {
            Some(_) => format!("{} ", self.config),
            None => String::new(),
        };
        println!(
            "{kind:<9}: {config}{} events in {:.1} ms -> {:.2} M events/sec, {:.4} allocs/event",
            self.events,
            self.wall_ms,
            self.events_per_sec / 1e6,
            self.allocs_per_event
        );
    }

    fn to_json(&self, label: &str, quick: bool) -> String {
        let exec = self
            .exec_ns
            .map(|n| format!("\"exec_ns\": {n}, "))
            .unwrap_or_default();
        format!(
            "{{\"label\": \"{}\", \"config\": \"{}\", \"quick\": {quick}, \"events\": {}, \
             \"sim_ns\": {}, {exec}\"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
             \"allocs\": {}, \"allocs_per_event\": {:.4}}}",
            json_escape(label),
            json_escape(&self.config),
            self.events,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
            self.allocs,
            self.allocs_per_event,
        )
    }
}

/// Measure an `exchanges`-long ping-pong over one intra-cluster link.
fn pingpong(exchanges: u64) -> Measurement {
    // Odd-numbered balls land on the server, whose `done` flag gates the
    // run — an odd budget puts the final ball there.
    let exchanges = exchanges | 1;
    let mut sim: Simulator<Ball> = Simulator::new(1);
    let a = sim.add_component(Box::new(Player {
        peer: None,
        budget: exchanges,
        serve: true,
        done: false,
    }));
    let b = sim.add_component(Box::new(Player {
        peer: None,
        budget: exchanges,
        serve: false,
        done: false,
    }));
    sim.component_as_mut::<Player>(a).unwrap().peer = Some(b);
    sim.component_as_mut::<Player>(b).unwrap().peer = Some(a);
    let link = sim.fabric_mut().add_link(LinkConfig::intra_cluster());
    sim.fabric_mut().set_route_bidi(a, b, vec![link]);
    sim.set_perf_reporting(true);
    let a0 = alloc_count();
    assert_eq!(sim.run(), RunOutcome::Completed, "ping-pong wedged");
    let allocs = alloc_count() - a0;
    let report = sim.report();
    let eps = report
        .get("sim.events_per_sec")
        .expect("perf reporting surfaces sim.events_per_sec");
    Measurement {
        config: "pingpong".into(),
        events: sim.events_processed(),
        sim_ns: sim.now().as_ns(),
        exec_ns: None,
        wall_ms: sim.wall_time().as_secs_f64() * 1_000.0,
        events_per_sec: eps,
        allocs,
        allocs_per_event: allocs as f64 / sim.events_processed().max(1) as f64,
    }
}

/// Measure the real vips run (MESI-CXL-MESI, the paper's headline
/// config). With `metrics` the sampled-telemetry hub runs at the
/// `c3 metrics` default interval, so the gate also bounds the
/// steady-state sampling cost (registration allocates once; each window
/// after that must reuse its buffers).
fn workload(quick: bool, metrics: bool) -> Measurement {
    let mut cfg = super::mesi(GlobalProtocol::Cxl);
    if quick {
        cfg = cfg.quick();
    }
    if metrics {
        cfg = cfg.metrics_ns(if quick { 25 } else { 100 });
    }
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let exp = Experiment::new(spec, cfg);
    let prefix = if metrics { "metrics+" } else { "" };
    measure(&exp, format!("{prefix}{}", exp.tag))
}

/// Measure the OLTP/KV engine's quick cell (2¹⁴ keys, skew 0.99, two
/// clusters, `state_metrics` on — the `c3 oltp --quick` hot cell).
/// This is the region store's churn workload: every directory line
/// promotes and demotes around each transaction, so its allocs/event
/// budget is what keeps the promotion/demotion cycle
/// allocation-recycling instead of per-event allocating.
fn workload_oltp(quick: bool) -> Measurement {
    let mut spec = WorkloadSpec::by_name("oltp-quick").expect("workload");
    spec.zipf_skew = 0.99;
    let mut cfg = super::mesi(GlobalProtocol::Cxl)
        .with_clusters(2)
        .with_state_metrics();
    cfg.ops_per_core = if quick { 300 } else { 3000 };
    let exp = Experiment::new(spec, cfg);
    measure(&exp, exp.tag.clone())
}

/// Measure vips on an 8-cluster system under the conservative-PDES
/// kernel with `shards` worker threads. Eight clusters give the shard
/// planner eight cluster domains plus the DCOH domain, so the
/// measurement exercises real cross-domain merge traffic at every
/// requested thread count.
fn workload_sharded(quick: bool, shards: usize) -> Measurement {
    let mut cfg = super::mesi(GlobalProtocol::Cxl)
        .with_clusters(8)
        .with_shards(shards);
    if quick {
        cfg = cfg.quick();
    }
    // Dense per-cluster traffic: the conservative windows are bounded by
    // the CXL lookahead (~70 ns), so scaling needs enough concurrent
    // cores that every domain has real work inside each window.
    cfg.cores_per_cluster = 16;
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let exp = Experiment::new(spec, cfg);
    measure(&exp, format!("shard{shards}+vips8c/{}", exp.cfg.label()))
}

/// Run one experiment cell, counting the allocations of its run alone.
fn measure(exp: &Experiment, config: String) -> Measurement {
    let a0 = alloc_count();
    let r = runner::run_experiment(exp);
    let allocs = alloc_count() - a0;
    r.expect_completed(&exp.tag);
    Measurement {
        config,
        events: r.events,
        sim_ns: r.sim_ns,
        exec_ns: Some(r.exec_ns),
        wall_ms: r.wall_ms,
        events_per_sec: r.events_per_sec,
        allocs,
        allocs_per_event: allocs as f64 / r.events.max(1) as f64,
    }
}

/// Pull the entries of the `"runs": [...]` array out of a previously
/// written document, so a new invocation appends rather than overwrites.
/// Returns `None` for missing files or pre-`runs` (schema 1) documents.
fn previous_runs(path: &str) -> Option<String> {
    let doc = std::fs::read_to_string(path).ok()?;
    let start = doc.find("\"runs\": [")? + "\"runs\": [".len();
    let mut depth = 1usize;
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in doc[start..].char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    let body = doc[start..start + i].trim();
                    return (!body.is_empty()).then(|| body.to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Best committed throughput for a `config` prefix under `label` with
/// the same `quick` flag, scanned from a previously written document's
/// `runs` entries (one JSON object per line, as this subcommand writes them).
/// `None` when the label has no committed baseline for that config yet.
fn best_throughput(prev: &str, label: &str, quick: bool, config_prefix: &str) -> Option<f64> {
    let config_needle = format!("\"config\": \"{config_prefix}");
    let label_needle = format!("\"label\": \"{}\"", json_escape(label));
    let quick_needle = format!("\"quick\": {quick}");
    let mut best: Option<f64> = None;
    for line in prev.lines() {
        if !(line.contains(&config_needle)
            && line.contains(&label_needle)
            && line.contains(&quick_needle))
        {
            continue;
        }
        let Some(i) = line.find("\"events_per_sec\": ") else {
            continue;
        };
        let rest = &line[i + "\"events_per_sec\": ".len()..];
        let end = rest.find(['}', ',']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            best = Some(best.map_or(v, |b: f64| b.max(v)));
        }
    }
    best
}

/// Parse the committed budget file: `<config-prefix> <max-allocs-per-event>`
/// per line, `#` comments allowed.
fn parse_budget(path: &str) -> Result<Vec<(String, f64)>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| usage_error(format!("--alloc-budget {path}: {e}")))?;
    text.lines()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_once(char::is_whitespace)
                .and_then(|(name, limit)| Some((name.to_string(), limit.trim().parse().ok()?)))
                .ok_or_else(|| usage_error(format!("--alloc-budget {path}: bad line {l:?}")))
        })
        .collect()
}

fn run(args: &Args) -> Result<(), CliError> {
    let quick = args.has(QUICK.name());
    let exchanges =
        args.num::<u64>("--exchanges")?
            .unwrap_or(if quick { 200_000 } else { 2_000_000 })
            | 1;
    let out = args.text(OUT.name()).unwrap_or("BENCH_perf.json");
    let label = args.text("--label").unwrap_or("local");
    let budget = match args.text("--alloc-budget") {
        Some(path) => Some((path, parse_budget(path)?)),
        None => None,
    };
    let shard_counts = match args.text("--shards") {
        Some(list) => list
            .split(',')
            .map(|n| n.trim().parse::<NonZeroUsize>().map(NonZeroUsize::get))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| usage_error(format!("--shards {list}: want N[,N...] with N >= 1")))?,
        None => Vec::new(),
    };
    let floor_label = args.text("--floor-label");

    let pp = pingpong(exchanges);
    pp.print("pingpong");
    let wl = workload(quick, false);
    wl.print("workload");
    let wlm = workload(quick, true);
    wlm.print("metrics");
    let wlo = workload_oltp(quick);
    wlo.print("oltp");
    let shard_ms: Vec<Measurement> = shard_counts
        .iter()
        .map(|&n| {
            let m = workload_sharded(quick, n);
            m.print("shards");
            m
        })
        .collect();

    // Capture the committed entries before appending: the floor gate
    // below must compare against history, not against this run.
    let prev = previous_runs(out);
    let mut entries: Vec<String> = Vec::new();
    if let Some(p) = &prev {
        entries.push(p.clone());
    }
    entries.push(pp.to_json(label, quick));
    entries.push(wl.to_json(label, quick));
    entries.push(wlm.to_json(label, quick));
    entries.push(wlo.to_json(label, quick));
    for m in &shard_ms {
        entries.push(m.to_json(label, quick));
    }
    let json = format!(
        "{{\n  \"bench\": \"perf\",\n  \"schema\": 2,\n  \"runs\": [\n    {}\n  ]\n}}\n",
        entries.join(",\n    ")
    );
    cli::write(out, &json)?;
    println!("(wrote {out})");

    if [&pp, &wl, &wlm, &wlo]
        .into_iter()
        .chain(&shard_ms)
        .any(|m| m.events_per_sec <= 0.0)
    {
        return Err(CliError::Failed("zero throughput measured".into()));
    }

    if let Some(flabel) = floor_label {
        // The kernel ceiling (pingpong), the full-system hot path (vips)
        // and the same run with telemetry sampling (metrics+vips) all
        // gate: a regression confined to protocol/cache logic leaves
        // pingpong untouched but still drags vips, and one confined to
        // the sampling hooks drags only metrics+vips.
        for (name, m, prefix) in [
            ("pingpong", &pp, "pingpong"),
            ("vips", &wl, "vips/"),
            ("metrics+vips", &wlm, "metrics+vips/"),
        ] {
            match prev
                .as_deref()
                .and_then(|p| best_throughput(p, flabel, quick, prefix))
            {
                Some(base) => {
                    let floor = base * 0.8;
                    if m.events_per_sec < floor {
                        return Err(CliError::Failed(format!(
                            "{name} {:.2} M events/sec is below the floor {:.2} M \
                             (80% of the best committed '{flabel}' entry, {:.2} M)",
                            m.events_per_sec / 1e6,
                            floor / 1e6,
                            base / 1e6
                        )));
                    }
                    println!(
                        "floor   : {name} {:.2} M events/sec >= {:.2} M (80% of '{flabel}' best)",
                        m.events_per_sec / 1e6,
                        floor / 1e6
                    );
                }
                None => {
                    println!("floor   : no committed '{flabel}' {name} baseline yet; skipping")
                }
            }
        }
    }

    if let Some((path, limits)) = budget {
        let mut failed = false;
        for (prefix, limit) in limits {
            let m = [&pp, &wl, &wlm, &wlo]
                .into_iter()
                .find(|m| m.config.starts_with(&prefix));
            match m {
                Some(m) if m.allocs_per_event > limit => {
                    eprintln!(
                        "c3 perf: {} allocs/event {:.4} exceeds budget {limit} ({path})",
                        m.config, m.allocs_per_event
                    );
                    failed = true;
                }
                Some(m) => println!(
                    "budget  : {} {:.4} allocs/event <= {limit}",
                    m.config, m.allocs_per_event
                ),
                None => {
                    eprintln!("c3 perf: budget entry {prefix} matches no measurement");
                    failed = true;
                }
            }
        }
        if failed {
            return Err(CliError::Failed("allocation budget exceeded".into()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::best_throughput;

    /// The floor baseline of a config is the best entry under the label
    /// with the same `quick` flag, and `vips/` does not pick up the
    /// `metrics+vips/` entries (or vice versa).
    #[test]
    fn floor_baseline_matches_label_quick_and_whole_config() {
        let prev = [
            r#"{"label": "a", "config": "vips/X", "quick": true, "events_per_sec": 300}"#,
            r#"{"label": "a", "config": "vips/X", "quick": true, "events_per_sec": 500}"#,
            r#"{"label": "a", "config": "metrics+vips/X", "quick": true, "events_per_sec": 900}"#,
            r#"{"label": "a", "config": "vips/X", "quick": false, "events_per_sec": 700}"#,
            r#"{"label": "b", "config": "vips/X", "quick": true, "events_per_sec": 800}"#,
        ]
        .join(",\n");
        assert_eq!(best_throughput(&prev, "a", true, "vips/"), Some(500.0));
        assert_eq!(
            best_throughput(&prev, "a", true, "metrics+vips/"),
            Some(900.0)
        );
        assert_eq!(best_throughput(&prev, "a", false, "metrics+vips/"), None);
        assert_eq!(best_throughput(&prev, "c", true, "vips/"), None);
    }
}
