//! Command-line behaviour of the `perfbench` binary.

use std::process::Command;

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

#[test]
fn unknown_flag_exits_2_without_a_result() {
    for args in [
        &["--workload", "fig10", "--bogus"][..],
        &["--workload", "nope"],
        &[],
        &["--workload", "oltp", "--trace", "yes"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
