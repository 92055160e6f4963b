//! `metrics` — run one named workload with sampled telemetry enabled,
//! write the timeseries (CSV to `--out`, default `metrics-<workload>.csv`,
//! or JSON to `--json PATH`), and print a windowed summary plus
//! peak-window bottleneck attribution.
//!
//! ```text
//! c3 metrics vips
//! c3 metrics histogram --interval-ns 50 --out /tmp/h.csv --full
//! c3 metrics vips --json /tmp/vips-metrics.json
//! c3 metrics vips --trace /tmp/vips.json
//! ```
//!
//! The timeseries covers per-link backlog/throughput, L1 MSHR occupancy,
//! bridge in-flight transactions, directory/DCOH occupancy and retry
//! counters, per-component event attribution and per-vnet message counts
//! — all sampled on simulated-time boundaries, so same-seed runs emit
//! byte-identical files. `--trace` additionally writes a Perfetto trace
//! with the sampled series appended as counter tracks.

use std::num::NonZeroU64;

use c3_sim::kernel::RunOutcome;
use c3_sim::metrics::MetricsHub;

use crate::build_sim;
use crate::cli::{
    self, usage_error, Args, CliError, Flag, Subcommand, BASELINE, FULL, JSON, OUT, QUICK,
};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "metrics",
    about: "Sampled telemetry of one workload: timeseries file + bottleneck attribution",
    operands: "<workload>",
    flags: &[
        Flag::Num("--interval-ns", "N", "sample every N sim ns (25 quick/100)"),
        OUT,
        JSON,
        QUICK,
        FULL,
        BASELINE,
        Flag::Text("--trace", "PATH", "also write a Perfetto trace to PATH"),
        Flag::Num("--max-windows", "N", "stored-window cap (default: 4096)"),
    ],
    run,
};

/// Columns of interest, resolved once from the registered metric names.
struct Columns {
    /// `(column, component name)` for each `comp.<name>.events` series.
    comp_events: Vec<(usize, String)>,
    /// `(column, link id)` for each `link.<i>.backlog_ns` series.
    link_backlog: Vec<(usize, u32)>,
}

fn resolve_columns(hub: &MetricsHub) -> Columns {
    let mut comp_events = Vec::new();
    let mut link_backlog = Vec::new();
    for (m, name) in hub.metric_names().iter().enumerate() {
        if let Some(comp) = name
            .strip_prefix("comp.")
            .and_then(|r| r.strip_suffix(".events"))
        {
            comp_events.push((m, comp.to_string()));
        } else if let Some(idx) = name
            .strip_prefix("link.")
            .and_then(|r| r.strip_suffix(".backlog_ns"))
            .and_then(|i| i.parse().ok())
        {
            link_backlog.push((m, idx));
        }
    }
    Columns {
        comp_events,
        link_backlog,
    }
}

/// Human name for a link: `src->dst` via the first route carrying it.
fn link_label(
    id: u32,
    ends: &[Option<(
        c3_sim::component::ComponentId,
        c3_sim::component::ComponentId,
    )>],
    names: &[String],
) -> String {
    match ends.get(id as usize).copied().flatten() {
        Some((s, d)) => format!(
            "{}->{}",
            names.get(s.index()).map(String::as_str).unwrap_or("?"),
            names.get(d.index()).map(String::as_str).unwrap_or("?")
        ),
        None => format!("link.{id}"),
    }
}

/// `(index into the resolved column list, value)` of a window's winner.
type Best = Option<(usize, f64)>;

/// Per-window attribution: total events, the busiest component and its
/// share, and the most-backlogged link.
fn attribute(hub: &MetricsHub, cols: &Columns, w: usize) -> (f64, Best, Best) {
    let mut total = 0.0;
    let mut best_comp: Best = None;
    for (i, &(m, _)) in cols.comp_events.iter().enumerate() {
        let d = hub.delta(w, m);
        total += d;
        if best_comp.map(|(_, b)| d > b).unwrap_or(d > 0.0) {
            best_comp = Some((i, d));
        }
    }
    let mut best_link: Best = None;
    for (i, &(m, _)) in cols.link_backlog.iter().enumerate() {
        let v = hub.value(w, m);
        if best_link.map(|(_, b)| v > b).unwrap_or(v > 0.0) {
            best_link = Some((i, v));
        }
    }
    (total, best_comp, best_link)
}

fn run(args: &Args) -> Result<(), CliError> {
    let (name, spec, cfg) = super::trace::workload_config(args)?;
    let interval_ns: Option<NonZeroU64> = args.num("--interval-ns")?;
    let max_windows: Option<usize> = args.num("--max-windows")?;
    let full = args.has(FULL.name());
    let trace_path = args.text("--trace");
    let (json, path) = match (args.text(OUT.name()), args.text(JSON.name())) {
        (Some(_), Some(_)) => {
            return Err(usage_error(
                "--out (CSV) and --json (JSON) exclude each other",
            ))
        }
        (None, Some(p)) => (true, p.to_string()),
        (out, None) => (
            false,
            out.map_or_else(|| format!("metrics-{name}.csv"), String::from),
        ),
    };

    let cfg = cfg.metrics_ns(interval_ns.map_or(if full { 100 } else { 25 }, NonZeroU64::get));

    let (mut sim, _handles) = build_sim(&spec, &cfg);
    if let Some(cap) = max_windows {
        sim.metrics_mut().set_max_windows(cap);
    }
    if trace_path.is_some() {
        sim.set_tracing(1_000_000);
    }
    let outcome = sim.run();
    // One tail sample so the series always covers the final state (the
    // boundary sampler only fires when a later event crosses a boundary).
    sim.sample_metrics_now();

    // Write the timeseries before anything else — a truncated run is
    // exactly when the occupancy history is most valuable.
    let body = if json {
        sim.metrics().to_json()
    } else {
        sim.metrics().to_csv()
    };
    cli::write(&path, &body)?;
    if let Some(tp) = trace_path {
        cli::write(tp, &sim.trace_json())?;
    }

    if matches!(
        outcome,
        RunOutcome::Deadlock | RunOutcome::EventLimit | RunOutcome::TimeLimit
    ) {
        eprintln!("{}", sim.post_mortem(outcome));
        return Err(CliError::Failed(format!(
            "partial timeseries written to {path}"
        )));
    }

    let hub = sim.metrics();
    let windows = hub.windows();
    println!(
        "{name} [{}]: {:?} at {} after {} events",
        cfg.label(),
        outcome,
        sim.now(),
        sim.events_processed()
    );
    println!(
        "telemetry: {windows} window(s) x {} series, interval {} ns ({} decimation(s)) -> {path}",
        hub.metric_names().len(),
        hub.interval().as_ns(),
        hub.decimations()
    );
    if windows == 0 {
        return Err(CliError::Failed(
            "no samples taken: run shorter than one sample interval".into(),
        ));
    }

    let cols = resolve_columns(hub);
    let names = sim.component_names();
    let ends = sim.fabric().link_route_endpoints();

    // Windowed summary: up to 16 evenly spaced windows.
    println!(
        "\n{:>7} {:>12} {:>9}  {:<28} {:<26} hottest addr",
        "window", "t_ns", "events", "busiest component", "max-backlog link"
    );
    let step = windows.div_ceil(16);
    let shown: Vec<usize> = (0..windows).step_by(step.max(1)).collect();
    for &w in &shown {
        let (total, comp, link) = attribute(hub, &cols, w);
        let comp_s = match comp {
            Some((i, d)) if total > 0.0 => {
                format!("{} ({:.0}%)", cols.comp_events[i].1, 100.0 * d / total)
            }
            _ => "-".into(),
        };
        let link_s = match link {
            Some((i, v)) => format!(
                "{} {:.0} ns",
                link_label(cols.link_backlog[i].1, &ends, &names),
                v
            ),
            None => "-".into(),
        };
        let addr_s = match hub.top_addrs(w).first() {
            Some(&(a, c)) => format!("{a:#x} ({c})"),
            None => "-".into(),
        };
        println!(
            "{:>7} {:>12} {:>9.0}  {:<28} {:<26} {}",
            w,
            hub.window_time(w).as_ns(),
            total,
            comp_s,
            link_s,
            addr_s
        );
    }

    // Peak-window attribution: the window with the most delivered events.
    let peak = (0..windows)
        .max_by(|&a, &b| {
            let ta = attribute(hub, &cols, a).0;
            let tb = attribute(hub, &cols, b).0;
            ta.partial_cmp(&tb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a)) // earliest such window wins deterministically
        })
        .expect("windows > 0");
    let (total, comp, link) = attribute(hub, &cols, peak);
    let mut parts = Vec::new();
    if let Some((i, d)) = comp {
        if total > 0.0 {
            parts.push(format!(
                "{:.0}% of events in {} ({:.0}/{:.0})",
                100.0 * d / total,
                cols.comp_events[i].1,
                d,
                total
            ));
        }
    }
    if let Some((i, v)) = link {
        parts.push(format!(
            "link {} backlog {:.0} ns",
            link_label(cols.link_backlog[i].1, &ends, &names),
            v
        ));
    }
    if let Some(&(a, c)) = hub.top_addrs(peak).first() {
        parts.push(format!("hottest addr {a:#x} ({c} msgs)"));
    }
    println!(
        "\npeak window {peak} [t={} ns]: {}",
        hub.window_time(peak).as_ns(),
        if parts.is_empty() {
            "idle".to_string()
        } else {
            parts.join("; ")
        }
    );
    Ok(())
}
