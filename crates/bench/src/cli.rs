//! The `c3` command line: one dependency-free parser and one subcommand
//! table for every experiment and tool of the harness.
//!
//! ```text
//! cargo run --release -p c3-bench --bin c3 -- <subcommand> [flags]
//! cargo run --release -p c3-bench --bin c3 -- fig10 --help
//! ```
//!
//! Each subcommand declares the [`Flag`]s it accepts. A flag name means
//! one thing in every subcommand — `--json PATH`, `--out PATH`,
//! `--threads N` and `--shards N` are the shared [`JSON`], [`OUT`],
//! [`THREADS`] and [`SHARDS`] — and every subcommand fails the same way:
//!
//! * bad input (an unknown subcommand or flag, a missing or unparsable
//!   value, an out-of-range value) prints that subcommand's usage on
//!   stderr and exits 2;
//! * `-h`/`--help` prints the usage on stdout and exits 0;
//! * a failed check or post-mortem exits 1, as does a panic.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::str::FromStr;

use c3_workloads::WorkloadSpec;

use crate::cmd;

/// One flag a subcommand accepts: its spelling, the metavariable of the
/// value it takes (if any), and one line of help.
#[derive(Clone, Copy, Debug)]
pub enum Flag {
    /// A switch: `(name, help)`.
    Switch(&'static str, &'static str),
    /// Takes a number: `(name, metavar, help)`. The parser rejects a value
    /// that is not a number; the subcommand checks its range on reading.
    Num(&'static str, &'static str, &'static str),
    /// Takes text such as a path or a name: `(name, metavar, help)`.
    Text(&'static str, &'static str, &'static str),
}

impl Flag {
    /// The spelling, e.g. `--threads`.
    pub const fn name(&self) -> &'static str {
        match *self {
            Flag::Switch(name, _) | Flag::Num(name, _, _) | Flag::Text(name, _, _) => name,
        }
    }
}

/// Runner worker threads.
pub const THREADS: Flag = Flag::Num("--threads", "N", "worker threads (default: all CPUs)");
/// PDES shard threads for every simulation the subcommand runs.
pub const SHARDS: Flag = Flag::Num("--shards", "N", "run simulations on N PDES shard threads");
/// A machine-readable JSON document.
pub const JSON: Flag = Flag::Text("--json", "PATH", "write the JSON document to PATH");
/// The subcommand's main output file.
pub const OUT: Flag = Flag::Text("--out", "PATH", "output file");
/// Memory operations per core.
pub const OPS: Flag = Flag::Num("--ops", "N", "memory operations per core");
/// The scaled-down configuration.
pub const QUICK: Flag = Flag::Switch("--quick", "quick (scaled-down) configuration");
/// The paper-scale configuration.
pub const FULL: Flag = Flag::Switch("--full", "paper-scale instead of quick configuration");
/// The hierarchical-directory baseline instead of CXL.
pub const BASELINE: Flag = Flag::Switch("--baseline", "hierarchical MESI global, not CXL");
/// A subset of the 33 paper workloads.
pub const WORKLOADS: Flag = Flag::Text("--workloads", "a,b,c", "workload subset (default: all)");

/// One `c3` subcommand.
pub struct Subcommand {
    /// The name on the command line.
    pub name: &'static str,
    /// One line for the usage.
    pub about: &'static str,
    /// The positional arguments in the usage (e.g. `<workload>`); empty
    /// when the subcommand takes none, which the parser then enforces.
    pub operands: &'static str,
    /// Every flag the subcommand accepts.
    pub flags: &'static [Flag],
    /// Run with parsed arguments.
    pub run: fn(&Args) -> Result<(), CliError>,
}

/// Why a subcommand stopped short of success.
#[derive(Debug)]
pub enum CliError {
    /// `--help` was given: the usage goes to stdout, exit 0.
    Help,
    /// Bad input: the message and the usage go to stderr, exit 2.
    Usage(String),
    /// A check failed or a run ended early: exit 1, with the message (if
    /// any) on stderr.
    Failed(String),
}

/// A bad-input error.
pub fn usage_error(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parsed arguments of one subcommand.
#[derive(Debug)]
pub struct Args {
    flags: &'static [Flag],
    values: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// Parse `argv` (the words after the subcommand name) against `sub`.
    pub fn parse(sub: &Subcommand, argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            flags: sub.flags,
            values: Vec::new(),
            operands: Vec::new(),
        };
        let mut it = argv.iter().peekable();
        while let Some(word) = it.next() {
            if word == "-h" || word == "--help" {
                return Err(CliError::Help);
            }
            if !word.starts_with('-') {
                if sub.operands.is_empty() {
                    return Err(usage_error(format!("unexpected argument {word:?}")));
                }
                args.operands.push(word.clone());
                continue;
            }
            let flag = sub
                .flags
                .iter()
                .find(|f| f.name() == word)
                .ok_or_else(|| usage_error(format!("unknown flag {word:?}")))?;
            let value = match flag {
                Flag::Switch(..) => String::new(),
                _ => it
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| usage_error(format!("{word} needs a value")))?
                    .clone(),
            };
            if matches!(flag, Flag::Num(..)) && value.parse::<f64>().is_err() {
                return Err(usage_error(format!("{word}: {value:?} is not a number")));
            }
            args.values.push((flag.name(), value));
        }
        Ok(args)
    }

    /// The value of the last `flag` given (empty for a switch).
    pub fn text(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            self.flags.iter().any(|f| f.name() == flag),
            "{flag} is not declared by this subcommand"
        );
        let last = self.values.iter().rev().find(|(name, _)| *name == flag);
        last.map(|(_, v)| v.as_str())
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    /// The value of `flag` as a `T`; a value `T` cannot hold (negative,
    /// fractional, too large, zero for a `NonZero*`) is a usage error.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| usage_error(format!("{flag} {v}: out of range")))
        };
        self.text(flag).map(parse).transpose()
    }

    /// The positional arguments.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// `--threads N` (N ≥ 1), else the machine's available parallelism.
    pub fn threads(&self) -> Result<usize, CliError> {
        let n = self.num::<NonZeroUsize>(THREADS.name())?;
        let n = n.or_else(|| std::thread::available_parallelism().ok());
        Ok(n.map_or(1, NonZeroUsize::get))
    }

    /// `--shards N` (N ≥ 1), else `None` (the sequential kernel).
    pub fn shards(&self) -> Result<Option<usize>, CliError> {
        Ok(self
            .num::<NonZeroUsize>(SHARDS.name())?
            .map(NonZeroUsize::get))
    }
}

/// Look up a workload by name; an unknown name is a usage error that
/// lists the known ones.
pub fn workload(name: &str) -> Result<WorkloadSpec, CliError> {
    WorkloadSpec::by_name(name).ok_or_else(|| {
        let all = WorkloadSpec::all()
            .into_iter()
            .chain(WorkloadSpec::oltp_all());
        let names: Vec<&str> = all.map(|w| w.name).collect();
        usage_error(format!(
            "unknown workload {name:?}; workloads:\n  {}",
            names.join(" ")
        ))
    })
}

/// The paper workloads `--workloads` names, in paper order; all 33 when
/// the flag is absent. A name outside the 33 is a usage error.
pub fn paper_workloads(args: &Args) -> Result<Vec<WorkloadSpec>, CliError> {
    let all = WorkloadSpec::all();
    let Some(list) = args.text(WORKLOADS.name()) else {
        return Ok(all);
    };
    let names: Vec<&str> = list.split(',').collect();
    if let Some(bad) = names.iter().find(|n| all.iter().all(|w| w.name != **n)) {
        return Err(usage_error(format!("{bad:?} is not a paper workload")));
    }
    Ok(all
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect())
}

/// Write an output file; failure exits 1.
pub fn write(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))
}

/// Every subcommand of `c3`, in the order the usage lists them.
pub static SUBCOMMANDS: &[Subcommand] = &[
    cmd::table1::CMD,
    cmd::table2::CMD,
    cmd::table4::CMD,
    cmd::fig9::CMD,
    cmd::fig10::CMD,
    cmd::fig11::CMD,
    cmd::verify::CMD,
    cmd::ablation::CMD,
    cmd::hotspots::CMD,
    cmd::sweep::CMD,
    cmd::report_dump::CMD,
    cmd::chaos::CMD,
    cmd::trace::CMD,
    cmd::metrics::CMD,
    cmd::protocheck::CMD,
    cmd::modelcheck::CMD,
    cmd::perf::CMD,
    cmd::oltp::CMD,
];

/// The top-level usage: every subcommand with its one-line description.
pub fn usage() -> String {
    let mut out = String::from("usage: c3 <subcommand> [flags]\n\nsubcommands:\n");
    for sub in SUBCOMMANDS {
        out.push_str(&format!("  {:<12} {}\n", sub.name, sub.about));
    }
    out + "\n`c3 <subcommand> --help` lists its flags.\n"
}

impl Subcommand {
    /// This subcommand's usage: synopsis, description and flags.
    pub fn usage(&self) -> String {
        let synopsis = [self.name, self.operands, "[flags]"]
            .join(" ")
            .replace("  ", " ");
        let mut out = format!("usage: c3 {synopsis}\n{}\n\n", self.about);
        for f in self
            .flags
            .iter()
            .chain([&Flag::Switch("-h, --help", "print this help")])
        {
            let (spelled, help) = match *f {
                Flag::Switch(name, help) => (name.to_string(), help),
                Flag::Num(name, meta, help) | Flag::Text(name, meta, help) => {
                    (format!("{name} {meta}"), help)
                }
            };
            out.push_str(&format!("  {spelled:<24} {help}\n"));
        }
        out
    }
}

/// Run `c3` on `argv` (the words after the program name) and return its
/// exit status.
pub fn main(argv: &[String]) -> ExitCode {
    let first = argv.first().map_or("", String::as_str);
    if first == "-h" || first == "--help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == first) else {
        eprint!("c3: missing or unknown subcommand {first:?}\n{}", usage());
        return ExitCode::from(2);
    };
    let result = Args::parse(sub, &argv[1..]).and_then(|args| {
        // A panic's message is already on stderr.
        catch_unwind(AssertUnwindSafe(|| (sub.run)(&args)))
            .unwrap_or_else(|_| Err(CliError::Failed(String::new())))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help) => {
            print!("{}", sub.usage());
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprint!("c3 {}: {msg}\n{}", sub.name, sub.usage());
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            if !msg.is_empty() {
                eprintln!("c3 {}: {msg}", sub.name);
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_name_takes_a_value_everywhere_or_nowhere() {
        let flags = || SUBCOMMANDS.iter().flat_map(|s| s.flags);
        let is_switch = |f: &Flag| matches!(f, Flag::Switch(..));
        for f in flags() {
            for g in flags().filter(|g| g.name() == f.name()) {
                assert_eq!(is_switch(f), is_switch(g), "{}", f.name());
            }
        }
    }

    #[test]
    fn the_last_value_wins() {
        let sub = SUBCOMMANDS.iter().find(|s| s.name == "metrics").unwrap();
        let argv = ["vips", "--out", "a", "--full", "--out", "b"].map(String::from);
        let args = Args::parse(sub, &argv).unwrap();
        assert_eq!(args.operands(), &argv[..1]);
        assert_eq!(args.text("--out"), Some("b"));
        assert!(args.has("--full") && !args.has("--baseline"));
    }
}
