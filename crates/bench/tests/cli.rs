//! Every `c3` subcommand fails the same way: bad input exits 2 with the
//! usage on stderr, `--help` exits 0 with the usage on stdout, and a
//! failed check exits 1. The checks walk the subcommand table, so a new
//! subcommand or flag is covered without touching this file.

use std::process::{Command, Output};

use c3_bench::cli::{Flag, SUBCOMMANDS};

fn c3(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_c3")).args(args).output();
    out.expect("run c3")
}

/// Assert `c3 args` exits `code` with `mentions` in its stderr.
fn assert_exit(args: &[&str], code: i32, mentions: &str) {
    let out = c3(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "c3 {args:?}:\n{stderr}");
    assert!(
        stderr.contains(mentions),
        "c3 {args:?}: {mentions:?} not in\n{stderr}"
    );
}

#[test]
fn every_subcommand_rejects_bad_flags_and_values_with_usage() {
    for sub in SUBCOMMANDS {
        let usage = format!("usage: c3 {}", sub.name);
        assert_exit(&[sub.name, "--bogus"], 2, &usage);
        for flag in sub.flags.iter().filter(|f| !matches!(f, Flag::Switch(..))) {
            assert_exit(
                &[sub.name, flag.name()],
                2,
                &format!("{} needs a value", flag.name()),
            );
            if let Flag::Num(..) = flag {
                assert_exit(&[sub.name, flag.name(), "x1"], 2, "is not a number");
            }
        }
    }
}

#[test]
fn every_subcommand_prints_help_on_stdout() {
    for args in SUBCOMMANDS
        .iter()
        .map(|s| vec![s.name, "--help"])
        .chain([vec!["--help"]])
    {
        let out = c3(&args);
        assert!(out.status.success(), "c3 {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: c3"));
    }
}

#[test]
fn missing_unknown_or_out_of_range_input_exits_2() {
    assert_exit(&[], 2, "subcommands:");
    assert_exit(&["fig12"], 2, "unknown subcommand");
    for config in ["4x1", "9x9", "3x3", "0x1", "3"] {
        assert_exit(&["modelcheck", "--config", config], 2, "--config");
    }
    assert_exit(
        &["modelcheck", "--faults", "3", "--retries", "1"],
        2,
        "--retries",
    );
    assert_exit(&["fig10", "--threads", "0"], 2, "out of range");
    assert_exit(&["fig10", "--workloads", "vips,nope"], 2, "nope");
    assert_exit(&["fig10", "stray"], 2, "unexpected argument");
    assert_exit(&["chaos", "--drop", "1.5"], 2, "not a probability");
    assert_exit(&["perf", "--shards", "2,0"], 2, "--shards");
    assert_exit(&["trace", "no-such-workload"], 2, "unknown workload");
    assert_exit(&["table2", "MSI"], 2, "unknown family");
}

#[test]
fn a_failed_check_exits_1() {
    assert_exit(&["protocheck", "--inject", "cycle"], 1, "defect");
    // A retry budget past the model's host→device FIFO is a failed,
    // non-exhaustive run, not a panic; so is a truncated run.
    for args in [
        &[
            "modelcheck",
            "--config",
            "1x1",
            "--faults",
            "1",
            "--retries",
            "5",
        ][..],
        &["modelcheck", "--config", "2x1", "--max-states", "10"],
    ] {
        assert_exit(args, 1, "a configuration failed");
    }
}

#[test]
fn min_reduction_applies_only_where_the_group_order_exceeds_it() {
    // 2x1 has group order 2: no run could reach 4x, so the bar is n/a.
    let out = c3(&["modelcheck", "--config", "2x1", "--min-reduction", "4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("reduction bar n/a: group order 2 ≤ 4"),
        "{stdout}"
    );
    // 3x1 has group order 6 and reaches 5.83x, so a 5.9x bar still bites.
    assert_exit(
        &["modelcheck", "--config", "3x1", "--min-reduction", "5.9"],
        1,
        "a configuration failed",
    );
}
