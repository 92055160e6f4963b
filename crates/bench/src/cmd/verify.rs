//! Formal verification driver (§VI-A): exhaustive model checking of the
//! C³ design plus static checks on every generated compound FSM.

use c3::generator::{baseline_fsm, bridge_fsm};
use c3_protocol::states::ProtocolFamily;
use c3_verif::fsm_checks::check_fsm;
use c3_verif::resilient::{Injection, ResilientConfig};

use crate::cli::{Args, CliError, Flag, Subcommand};
use crate::cmd::modelcheck::run_one;

pub(crate) const CMD: Subcommand = Subcommand {
    name: "verify",
    about: "Section VI-A: static FSM checks plus the Rule-I/II model-checking ablations",
    operands: "",
    flags: &[Flag::Switch(
        "--big",
        "also explore two private caches per cluster",
    )],
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
    // Fault-free, one shared address, private caches under each cluster
    // copy. The ablations must be caught, each as the invariant class
    // `modelcheck` pins for its injection.
    let model = |clusters, ops_per_cluster, private_caches| ResilientConfig {
        clusters,
        addrs: 1,
        ops_per_cluster,
        private_caches,
        max_faults: 0,
        max_retries: 0,
        ..ResilientConfig::default()
    };
    let mut cases = vec![
        ("rules on, 2 ops/cluster", model(2, 2, 1)),
        ("rules on, 3 ops/cluster", model(2, 3, 1)),
        ("rules on, 3 clusters", model(3, 2, 1)),
    ];
    if big {
        cases.push(("rules on, 2 private caches/cluster", model(3, 3, 2)));
    }
    for (label, inj) in [
        (
            "Rule II removed -> Fig. 4 race",
            Injection::EarlySnoopAnswer,
        ),
        (
            "snoop order ignored -> Fig. 2 race",
            Injection::IgnoreSnoopOrder,
        ),
    ] {
        let inject = Some(inj);
        cases.push((
            label,
            ResilientConfig {
                inject,
                ..model(2, 2, 1)
            },
        ));
    }
    for (label, cfg) in &cases {
        println!("-- {label}");
        ok &= run_one(cfg, None);
    }

    if ok {
        println!("\nAll verification checks PASSED.");
        Ok(())
    } else {
        println!("\nVERIFICATION FAILURES!");
        Err(CliError::Failed("verification failed".into()))
    }
}
