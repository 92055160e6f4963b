//! Formal verification driver (§VI-A): exhaustive model checking of the
//! C³ design plus static checks on every generated compound FSM.

use c3::generator::{baseline_fsm, bridge_fsm};
use c3_protocol::states::ProtocolFamily;
use c3_verif::fsm_checks::check_fsm;
use c3_verif::model::{check, ModelConfig};

use crate::cli::{Args, CliError, Flag, Subcommand};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "verify",
    about: "Section VI-A: static FSM checks plus the Rule-I/II model-checking ablations",
    operands: "",
    flags: &[Flag::Switch("--big", "also explore two cores per cluster")],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let big = args.has("--big");

    println!("== Static checks on generated compound FSMs ==");
    let mut ok = true;
    for fam in [
        ProtocolFamily::Mesi,
        ProtocolFamily::Mesif,
        ProtocolFamily::Moesi,
        ProtocolFamily::Rcc,
    ] {
        let fsm = bridge_fsm(fam);
        let defects = check_fsm(&fsm);
        println!(
            "  {fam}-CXL: {} states, {} rows, {} defects",
            fsm.states.len(),
            fsm.rows.len(),
            defects.len()
        );
        ok &= defects.is_empty();
        let fsm = baseline_fsm(fam, ProtocolFamily::Mesi);
        let defects = check_fsm(&fsm);
        println!(
            "  {fam}-MESI (baseline): {} states, {} rows, {} defects",
            fsm.states.len(),
            fsm.rows.len(),
            defects.len()
        );
        ok &= defects.is_empty();
    }

    println!("\n== Explicit-state exploration (Murphi-style) ==");
    let mut run = |label: &str, cfg: ModelConfig, expect_violation: bool| {
        let result = check(&cfg);
        let verdict = match (&result.violation, expect_violation) {
            (None, false) => "OK (no violation)",
            (Some(_), true) => "OK (violation found, as designed)",
            (None, true) => {
                ok = false;
                "FAIL (expected a violation)"
            }
            (Some(_), false) => {
                ok = false;
                "FAIL (unexpected violation)"
            }
        };
        println!("  {label:<46} {:>9} states  {verdict}", result.states);
        if let Some(v) = result.violation {
            println!("      -> {v}");
        }
    };

    run("rules on, 2 ops/core", ModelConfig::default(), false);
    run(
        "rules on, 3 ops/core",
        ModelConfig {
            ops_per_core: 3,
            ..ModelConfig::default()
        },
        false,
    );
    if big {
        run(
            "rules on, 2 cores in cluster 0",
            ModelConfig {
                second_core: true,
                ..ModelConfig::default()
            },
            false,
        );
    }
    run(
        "Rule II (nesting) disabled   -> Fig. 4 race",
        ModelConfig {
            rule2_nesting: false,
            ..ModelConfig::default()
        },
        true,
    );
    run(
        "BIConflict handshake disabled -> Fig. 2 race",
        ModelConfig {
            conflict_handshake: false,
            ..ModelConfig::default()
        },
        true,
    );

    if ok {
        println!("\nAll verification checks PASSED.");
        Ok(())
    } else {
        println!("\nVERIFICATION FAILURES!");
        Err(CliError::Failed("verification failed".into()))
    }
}
