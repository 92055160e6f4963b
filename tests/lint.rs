//! Determinism lint: a dependency-free source scan over the simulator
//! crates (`c3-sim`, `c3-memsys`, `c3`, `c3-cxl`) and the workload
//! generators (`c3-workloads`) denying constructs that break same-seed
//! reproducibility:
//!
//! * wall-clock time (`std::time::Instant`, `SystemTime`) — simulation
//!   behaviour must depend only on virtual time;
//! * the standard `HashMap`/`HashSet` (SipHash with a random seed, and
//!   iteration order that varies run-to-run) — use
//!   `c3_sim::hash::FxHashMap` / `FxHashSet`;
//! * thread spawning — the kernel is single-threaded by design; only the
//!   experiment *runner* (outside these crates) parallelises.
//!
//! A small allowlist covers the legitimate uses: the kernel's
//! wall-clock run timer (reported, never fed back into simulation), the
//! `hash` module that wraps `HashMap` to define `FxHashMap`, and the
//! conservative-PDES shard engine (`c3-sim::shard`), which spawns scoped
//! workers but derives every execution-visible decision from the static
//! shard plan, never from thread timing. The shard engine notably does
//! NOT get a wall-clock exemption, and nobody may size a worker pool
//! from the host (`available_parallelism`) — shard counts are explicit
//! arguments so results are reproducible across machines.
//!
//! A second scan keeps the docs and CI honest about the command line:
//! every `c3 <subcommand>` they show must be in the subcommand table the
//! `c3-bench` library exports, and none may name a `--bin` other than
//! `c3`.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose sources must be deterministic. The workload generators
/// are included: per-thread program streams (including the OLTP/KV
/// zipfian engine) must be a pure function of (spec, thread, seed).
const SCANNED: [&str; 6] = [
    "crates/sim/src",
    "crates/memsys/src",
    "crates/core/src",
    "crates/cxl/src",
    "crates/workloads/src",
    "crates/verif/src",
];

/// `(file suffix, substring)` pairs exempt from the deny list.
const ALLOWLIST: [(&str, &str); 5] = [
    // Wall-clock timing of the whole run, reported as host seconds and
    // never fed back into simulated behaviour.
    ("crates/sim/src/kernel.rs", "Instant"),
    // The FxHashMap wrapper itself must import the std types it wraps.
    ("crates/sim/src/hash.rs", "HashMap"),
    ("crates/sim/src/hash.rs", "HashSet"),
    ("crates/sim/src/hash.rs", "std::collections"),
    // The conservative-PDES engine runs scoped worker threads in window
    // lockstep; its merge order is fixed by (time, domain, seq), so
    // thread scheduling never reaches simulated behaviour. Wall-clock
    // reads stay denied here.
    ("crates/sim/src/shard.rs", "std::thread"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip `//` comments and string literals so the scan only sees code.
fn code_only(line: &str) -> String {
    let line = match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    };
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut prev = '\0';
    for c in line.chars() {
        if c == '"' && prev != '\\' {
            in_str = !in_str;
            prev = c;
            continue;
        }
        if !in_str {
            out.push(c);
        }
        prev = c;
    }
    out
}

fn allowed(rel: &str, needle: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(file, what)| rel.ends_with(file) && needle.contains(what))
}

#[test]
fn simulator_crates_are_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let deny: [(&str, &str); 8] = [
        ("std::time::Instant", "wall-clock time in simulation code"),
        ("Instant::now", "wall-clock time in simulation code"),
        ("SystemTime", "wall-clock time in simulation code"),
        (
            "std::collections::HashMap",
            "randomly-seeded std HashMap; use c3_sim::hash::FxHashMap",
        ),
        ("std::thread", "thread spawning inside the simulator"),
        ("thread::spawn", "thread spawning inside the simulator"),
        (
            "available_parallelism",
            "host-dependent worker sizing; shard/thread counts must be explicit",
        ),
        (
            "values().sum", // representative of unordered map-iteration folds
            "iteration over unordered map values; collect and sort first",
        ),
    ];

    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 10, "lint scanned only {} files", files.len());

    let mut violations = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (ln, raw) in src.lines().enumerate() {
            let code = code_only(raw);
            for (needle, why) in deny {
                if code.contains(needle) && !allowed(&rel, needle) {
                    violations.push(format!("{rel}:{}: {needle} — {why}", ln + 1));
                }
            }
            // Bare HashMap/HashSet (imported once, used bare) — only the
            // Fx variants are deterministic.
            for bare in ["HashMap", "HashSet"] {
                if code.replace(&format!("Fx{bare}"), "").contains(bare)
                    && !code.contains("std::collections")
                    && !allowed(&rel, bare)
                {
                    violations.push(format!(
                        "{rel}:{}: bare {bare} — use c3_sim::hash::Fx{bare}",
                        ln + 1
                    ));
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "determinism lint found {} violation(s):\n{}",
        violations.len(),
        violations.join("\n")
    );
}

/// Files that show `c3` invocations, besides the `c3-bench` sources.
const CLI_DOCS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// The subcommand named right after each `c3 ` that starts an
/// invocation: `--bin c3 -- X`, `` `c3 X``, or a line (doc comment
/// markers aside) beginning `c3 X`. Placeholders and flags
/// (`c3 <subcommand>`, `c3 --help`) name none.
fn named_subcommands(line: &str) -> Vec<String> {
    let mut starts: Vec<&str> = Vec::new();
    for marker in ["--bin c3 -- ", "`c3 "] {
        starts.extend(
            line.match_indices(marker)
                .map(|(i, m)| &line[i + m.len()..]),
        );
    }
    let bare = line
        .trim_start()
        .trim_start_matches(['/', '!'])
        .trim_start();
    if let Some(rest) = bare.strip_prefix("c3 ") {
        starts.push(rest);
    }
    starts
        .into_iter()
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
        })
        .filter(|word| !word.is_empty())
        .collect()
}

#[test]
fn documented_c3_invocations_name_real_subcommands() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names: Vec<&str> = c3_bench::cli::SUBCOMMANDS.iter().map(|s| s.name).collect();
    let mut files: Vec<PathBuf> = CLI_DOCS.iter().map(|f| root.join(f)).collect();
    rust_files(&root.join("crates/bench/src"), &mut files);

    let mut violations = Vec::new();
    let mut checked = 0;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (ln, line) in src.lines().enumerate() {
            for (i, _) in line.match_indices("--bin ") {
                let bin = line[i + 6..].split_whitespace().next().unwrap_or("");
                if bin != "c3" {
                    violations.push(format!(
                        "{rel}:{}: --bin {bin} — the only binary is c3",
                        ln + 1
                    ));
                }
            }
            for sub in named_subcommands(line) {
                checked += 1;
                if !names.contains(&sub.as_str()) {
                    violations.push(format!("{rel}:{}: `c3 {sub}` is not a subcommand", ln + 1));
                }
            }
        }
    }
    assert!(checked > 40, "only {checked} c3 invocations found");
    assert!(
        violations.is_empty(),
        "docs name {} unknown c3 invocation(s) (subcommands: {}):\n{}",
        violations.len(),
        names.join(" "),
        violations.join("\n")
    );
}
