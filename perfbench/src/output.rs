//! Metric names, units and the result line.
//!
//! Every metric the benchmark prints is declared here, with its unit;
//! `BENCHMARK.json` lists the same names and units (a test checks both
//! directions). Untraced runs print every [`END_TO_END`] metric, traced
//! runs every [`PER_LAYER`] metric, each workload in the same order.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("allocs_per_op", "allocs/op"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.calls", "count"),
    ("core.ns_per_call", "ns"),
    ("core.share", "ratio"),
    ("core.allocs_per_call", "allocs/call"),
    ("l1.calls", "count"),
    ("l1.ns_per_call", "ns"),
    ("l1.share", "ratio"),
    ("l1.allocs_per_call", "allocs/call"),
    ("bridge.calls", "count"),
    ("bridge.ns_per_call", "ns"),
    ("bridge.share", "ratio"),
    ("bridge.allocs_per_call", "allocs/call"),
    ("dcoh.calls", "count"),
    ("dcoh.ns_per_call", "ns"),
    ("dcoh.share", "ratio"),
    ("dcoh.allocs_per_call", "allocs/call"),
    ("gdir.calls", "count"),
    ("gdir.ns_per_call", "ns"),
    ("gdir.share", "ratio"),
    ("gdir.allocs_per_call", "allocs/call"),
    ("kernel.ns_per_event", "ns/event"),
    ("kernel.share", "ratio"),
    ("shard.speedup_2v1", "x"),
    ("shard.ns_per_event", "ns/event"),
    ("setup.generate_s", "s"),
    ("setup.build_s", "s"),
    ("telemetry.windows", "count"),
    ("telemetry.hook_ns_per_window", "ns"),
    ("telemetry.share", "ratio"),
    ("sim.exec_ns", "sim-ns"),
    ("sim.events", "count"),
    ("sim.state.peak_resident_ratio", "ratio"),
    ("sim.l1.hit_ratio", "ratio"),
    ("sim.l1.miss_ns_high", "sim-ns"),
    ("sim.bridge.snoops", "count"),
    ("sim.dcoh.stalled_requests", "count"),
    ("sim.dcoh.conflicts", "count"),
    ("sim.gdir.stalled_requests", "count"),
    ("verif.successors.ns_per_state", "ns"),
    ("verif.canonical.ns_per_call", "ns"),
    ("verif.visited.ns_per_insert", "ns"),
    ("verif.decode.ns_per_call", "ns"),
    ("verif.check.ns_per_state", "ns"),
    ("verif.frontier.ns_per_op", "ns"),
    ("verif.reduction", "x"),
    ("trace.overhead", "ratio"),
    ("trace.probe_ns_per_call", "ns"),
    ("trace.residual_overhead", "ratio"),
];

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Units attempted (simulations or checker runs).
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// Metric values by name; must hold exactly the names of `table`.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Whether every unit passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result, metrics in `table` order.
    ///
    /// # Panics
    ///
    /// Panics if `values` misses a name of `table` or holds another.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        assert_eq!(
            self.values.len(),
            table.len(),
            "metric set differs from its table"
        );
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} not measured"));
                // JSON has no NaN or infinity; `+ 0.0` turns -0 into 0.
                let v = if v.is_finite() { v + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Median of `xs` (0 when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn json_line_has_every_metric_with_unit() {
        let values = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let out = Outcome {
            attempted: 2,
            failed: 0,
            values,
        };
        let line = out.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Every printed metric appears in `BENCHMARK.json` with its unit,
    /// and `BENCHMARK.json` lists no metric the benchmark does not print.
    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_string();
                    let unit_at = rest.find("\"unit\": \"").expect("unit follows name") + 9;
                    let unit = rest[unit_at..][..rest[unit_at..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = section(key);
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed, printed,
                "{key} in BENCHMARK.json differs from the benchmark"
            );
        }
    }
}
