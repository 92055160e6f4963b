//! End-to-end checks for the `c3 protocheck` static-analysis CLI: the
//! shipped tables must pass cleanly, and each seeded defect class must
//! make it exit nonzero while naming the offending row.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_c3"))
        .arg("protocheck")
        .args(args)
        .output()
        .expect("run protocheck");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn shipped_tables_are_clean() {
    let (ok, text) = run(&[]);
    assert!(ok, "protocheck failed on shipped tables:\n{text}");
    assert!(text.contains("clean"), "{text}");
}

#[test]
fn injected_missing_row_fails_naming_the_hole() {
    let (ok, text) = run(&["--inject", "missing-row"]);
    assert!(!ok, "missing-row injection not caught:\n{text}");
    assert!(
        text.contains("missing row: l1: (IS_D x Data)"),
        "defect does not name the deleted row:\n{text}"
    );
}

#[test]
fn injected_forbidden_state_fails_naming_the_row() {
    let (ok, text) = run(&["--inject", "forbidden-state"]);
    assert!(!ok, "forbidden-state injection not caught:\n{text}");
    assert!(
        text.contains("forbidden state reachable")
            && text.contains("enters forbidden state M")
            && text.contains("l1.rs:"),
        "defect does not name an offending row with provenance:\n{text}"
    );
}

#[test]
fn injected_cycle_fails_as_static_deadlock() {
    let (ok, text) = run(&["--inject", "cycle"]);
    assert!(!ok, "cycle injection not caught:\n{text}");
    assert!(
        text.contains("static deadlock") && text.contains("(Wb x Cmp)"),
        "defect does not name the self-cycle stall:\n{text}"
    );
}

#[test]
fn unknown_injection_is_rejected() {
    let (ok, text) = run(&["--inject", "nonsense"]);
    assert!(!ok);
    assert!(text.contains("unknown injection"), "{text}");
}
