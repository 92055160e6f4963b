//! `modelcheck` — symmetry-reduced exhaustive exploration of the
//! resilient protocol model.
//!
//! Drives `c3-verif::resilient` over a battery of cluster × address
//! configurations, printing per-config canonical/unreduced state counts,
//! edge counts and the symmetry reduction factor. Every clean run also
//! cross-checks the `(controller, state, event)` witnesses the explorer
//! collected against the declarative PR-5 transition tables
//! (`check_model_conformance`), so the abstract model and the concrete
//! controllers cannot silently drift apart.
//!
//! ```text
//! c3 modelcheck            # fast battery
//! c3 modelcheck --deep     # 3x2 ops=2 headline
//! c3 modelcheck --config 3x2 --ops 2 --faults 1
//! c3 modelcheck --inject lost-grant-livelock
//! c3 modelcheck --self-test
//! ```
//!
//! Exit codes: `0` clean (or the injected bug was caught, under
//! `--inject`/`--self-test`), `1` an invariant violation was found (or
//! an injected bug was *missed*, a witness diverged from the tables, or
//! the run was truncated or overflowed a model bound), `2` bad usage.

use c3::bridge::bridge_transition_table;
use c3_cxl::dcoh::dcoh_transition_table;
use c3_protocol::states::ProtocolFamily;
use c3_verif::resilient::{
    check_resilient, Injection, RViolation, ResilientConfig, MAX_ADDRS, MAX_CLUSTERS,
};
use c3_verif::static_checks::check_model_conformance;

use crate::cli::{usage_error, Args, CliError, Flag, Subcommand};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "modelcheck",
    about: "Symmetry-reduced exhaustive check of the resilient protocol model",
    operands: "",
    flags: &[
        Flag::Text("--config", "CxA", "clusters x addresses, e.g. 3x2"),
        Flag::Num("--ops", "N", "operations per cluster"),
        Flag::Num("--faults", "N", "fault budget"),
        Flag::Num("--retries", "N", "retry budget (at least the fault budget)"),
        Flag::Num("--max-states", "N", "stop exploring after N states"),
        Flag::Switch("--no-symmetry", "explore without symmetry reduction"),
        Flag::Text("--spill", "PATH", "spill the frontier to PATH"),
        Flag::Num(
            "--min-reduction",
            "F",
            "fail below this symmetry reduction (configs of group order above F)",
        ),
        Flag::Switch("--deep", "also run the 3x2, two-ops-per-cluster headline"),
        Flag::Text(
            "--inject",
            "KIND",
            "lost-grant-livelock, poison-launder, early-snoop-answer or ignore-snoop-order",
        ),
        Flag::Switch("--self-test", "check that every seeded bug is caught"),
    ],
    run,
};

/// The default fast battery: every topology up to 3 hosts × 2 addresses
/// with one operation per cluster and one fault budget. Completes in
/// well under a second in release builds.
const BATTERY: [(usize, usize); 4] = [(2, 1), (2, 2), (3, 1), (3, 2)];

/// Parse `--config CxA`, bounded by what the model represents.
fn parse_config(v: &str) -> Result<(usize, usize), CliError> {
    let parsed = v
        .split_once('x')
        .and_then(|(c, a)| Some((c.parse().ok()?, a.parse().ok()?)));
    match parsed {
        Some((c, a)) if (1..=MAX_CLUSTERS).contains(&c) && (1..=MAX_ADDRS).contains(&a) => {
            Ok((c, a))
        }
        _ => Err(usage_error(format!(
            "--config {v}: want CLUSTERSxADDRS with 1..={MAX_CLUSTERS} clusters \
             and 1..={MAX_ADDRS} addresses, e.g. 3x2"
        ))),
    }
}

/// The invariant class each seeded bug must trip.
fn expected_violation(inj: Injection) -> &'static str {
    match inj {
        Injection::LostGrantLivelock => "deadlock",
        Injection::PoisonLaunder => "poison",
        Injection::EarlySnoopAnswer => "inclusion",
        Injection::IgnoreSnoopOrder => "swmr",
    }
}

fn violation_class(v: &RViolation) -> &'static str {
    match v {
        RViolation::Swmr(_) => "swmr",
        RViolation::Inclusion(_) => "inclusion",
        RViolation::Stale(_) => "stale",
        RViolation::Divergence(_) => "divergence",
        RViolation::Poison(_) => "poison",
        RViolation::Deadlock(_) => "deadlock",
        RViolation::Bound(_) => "bound",
    }
}

/// `cfg` with `inj` seeded. Rule II only matters with private copies to
/// reclaim, and a core needs a second operation to fill one, so
/// `early-snoop-answer` gets one private cache per cluster and (unless
/// `--ops` says otherwise) two operations.
fn injected(cfg: &ResilientConfig, inj: Injection, ops: Option<u8>) -> ResilientConfig {
    let mut cfg = ResilientConfig {
        inject: Some(inj),
        ..cfg.clone()
    };
    if inj == Injection::EarlySnoopAnswer {
        cfg.private_caches = cfg.private_caches.max(1);
        cfg.ops_per_cluster = ops.unwrap_or(2);
    }
    cfg
}

/// Run one configuration; returns `true` if the run is acceptable
/// (exhaustive, no unexpected violation, no conformance divergence,
/// injected bugs caught).
pub(crate) fn run_one(cfg: &ResilientConfig, min_reduction: Option<f64>) -> bool {
    let label = format!(
        "{}x{} ops={} faults={} retries={}{}{}{}",
        cfg.clusters,
        cfg.addrs,
        cfg.ops_per_cluster,
        cfg.max_faults,
        cfg.max_retries,
        match cfg.private_caches {
            0 => String::new(),
            p => format!(" private={p}"),
        },
        if cfg.symmetry { "" } else { " no-symmetry" },
        match cfg.inject {
            Some(i) => format!(" inject={}", i.name()),
            None => String::new(),
        }
    );
    let t0 = std::time::Instant::now();
    let r = check_resilient(cfg);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{label}: {} canonical / {} unreduced states, {} edges, \
         reduction {:.2}x (group order {}), {:.2}s{}",
        r.canonical_states,
        r.unreduced_states,
        r.edges,
        r.reduction_factor,
        r.group_order,
        secs,
        if r.spilled > 0 {
            format!(" [{} frontier records spilled]", r.spilled)
        } else {
            String::new()
        }
    );
    if r.truncated {
        println!(
            "  FAIL: truncated at max-states={}, not exhaustive",
            cfg.max_states
        );
        return false;
    }

    match (&r.violation, cfg.inject) {
        (None, None) => {
            // Clean exhaustive run: cross-check the model's witnesses
            // against the concrete controllers' declarative tables.
            let dcoh = dcoh_transition_table();
            let bridge = bridge_transition_table(ProtocolFamily::Mesi);
            let defects = check_model_conformance(&r.witnesses, &[&dcoh, &bridge]);
            if defects.is_empty() {
                println!(
                    "  clean; {} table witnesses conform to the dcoh+bridge tables",
                    r.witnesses.len()
                );
                // The reduction cannot exceed the group order, so the bar
                // applies only where the group could clear it.
                match min_reduction {
                    Some(min) if cfg.symmetry && r.group_order as f64 <= min => {
                        println!("  reduction bar n/a: group order {} ≤ {min}", r.group_order);
                        true
                    }
                    Some(min) if cfg.symmetry && r.reduction_factor < min => {
                        println!(
                            "  FAIL: reduction factor {:.2}x below required {min:.2}x",
                            r.reduction_factor
                        );
                        false
                    }
                    _ => true,
                }
            } else {
                for d in &defects {
                    println!("  model/table divergence: {d}");
                }
                false
            }
        }
        (None, Some(inj)) => {
            println!(
                "  FAIL: injected bug {:?} was NOT caught (expected a {} violation)",
                inj.name(),
                expected_violation(inj)
            );
            false
        }
        (Some((v, cex)), maybe_inj) => {
            println!("  VIOLATION: {v}");
            println!("  counterexample ({} steps):", cex.steps.len());
            for (comp, desc) in &cex.steps {
                println!("    [{comp}] {desc}");
            }
            println!("  trace replay:");
            for line in cex.trace.lines() {
                println!("    {line}");
            }
            match maybe_inj {
                Some(inj) if violation_class(v) == expected_violation(inj) => {
                    println!("  OK: injected bug {:?} caught as expected", inj.name());
                    true
                }
                Some(inj) => {
                    println!(
                        "  FAIL: injected bug {:?} tripped {} (expected {})",
                        inj.name(),
                        violation_class(v),
                        expected_violation(inj)
                    );
                    false
                }
                None => false,
            }
        }
    }
}

fn run(args: &Args) -> Result<(), CliError> {
    let config = args.text("--config").map(parse_config).transpose()?;
    let ops: Option<u8> = args.num("--ops")?;
    // Every configuration of the run shares these options.
    let mut base = ResilientConfig::default();
    if let Some(o) = ops {
        base.ops_per_cluster = o;
    }
    if let Some(f) = args.num("--faults")? {
        base.max_faults = f;
        base.max_retries = base.max_retries.max(f);
    }
    if let Some(r) = args.num("--retries")? {
        base.max_retries = r;
    }
    if let Some(m) = args.num("--max-states")? {
        base.max_states = m;
    }
    if base.max_retries < base.max_faults {
        return Err(usage_error(format!(
            "--retries {} is below the fault budget {}: lost grants would deadlock",
            base.max_retries, base.max_faults
        )));
    }
    base.symmetry = !args.has("--no-symmetry");
    base.spill_path = args.text("--spill").map(std::path::PathBuf::from);
    if let Some(v) = args.text("--inject") {
        let inj = Injection::parse(v).ok_or_else(|| {
            let names: Vec<_> = Injection::ALL.iter().map(|i| i.name()).collect();
            usage_error(format!(
                "unknown injection {v:?} (expected one of {})",
                names.join(", ")
            ))
        })?;
        base = injected(&base, inj, ops);
    }
    let topology = |clusters, addrs| ResilientConfig {
        clusters,
        addrs,
        ..base.clone()
    };
    let min_reduction: Option<f64> = args.num("--min-reduction")?;

    if args.has("--self-test") {
        // Every seeded protocol bug must be detected on a small config;
        // CI runs this so a checker regression cannot hide behind
        // all-clean output.
        let mut ok = true;
        for inj in Injection::ALL {
            ok &= run_one(&injected(&topology(2, 1), inj, ops), None);
        }
        println!(
            "modelcheck self-test: {}",
            if ok {
                "all four injections caught"
            } else {
                "FAILED"
            }
        );
        return if ok {
            Ok(())
        } else {
            Err(CliError::Failed("self-test failed".into()))
        };
    }

    let configs: Vec<(usize, usize)> = match config {
        Some(ca) => vec![ca],
        None => BATTERY.to_vec(),
    };

    let mut ok = true;
    for (clusters, addrs) in &configs {
        let cfg = topology(*clusters, *addrs);
        ok &= run_one(&cfg, min_reduction);
    }
    if args.has("--deep") {
        // The headline exhaustive run: 3 hosts × 2 addresses with two
        // operations per cluster under a one-fault budget: 18.3M
        // unreduced states, explored via 1.5M canonical
        // representatives in ~11 s in release builds.
        let mut cfg = topology(3, 2);
        cfg.ops_per_cluster = ops.unwrap_or(2);
        ok &= run_one(&cfg, min_reduction);
    }
    if ok {
        println!("modelcheck: all configurations acceptable");
        Ok(())
    } else {
        Err(CliError::Failed("a configuration failed".into()))
    }
}
