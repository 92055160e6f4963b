//! `protocheck` — offline static analysis of the concrete controllers'
//! transition tables.
//!
//! Builds the declarative [`TransitionTable`]s exported by the L1
//! (`c3-memsys::l1`), the C³ bridge (`c3::bridge`) and the DCOH
//! (`c3-cxl::dcoh`) for every host protocol family, and runs the
//! `c3-verif::static_checks` suite over them: validation, completeness,
//! reachability, forbidden states, response-sink, Rule-II discipline and
//! cross-controller static deadlock analysis. The generated compound
//! FSMs are checked with `c3-verif::fsm_checks` alongside.
//!
//! Prints every defect with its row provenance and exits nonzero if any
//! is found — CI runs it next to the chaos and perf-smoke jobs.
//!
//! ```text
//! c3 protocheck
//! c3 protocheck --json protocheck.json
//! c3 protocheck --inject missing-row
//! ```
//!
//! `--json PATH` also writes a machine-readable report (defect list keyed
//! by stable defect-class slugs plus per-table stats) so CI can diff
//! defect sets instead of grepping text. `--inject
//! missing-row|forbidden-state|cycle` seeds one known defect into an
//! otherwise clean table, as a self-test that the checker actually
//! catches each defect class.

use c3::bridge::bridge_transition_table;
use c3::generator::{baseline_fsm, bridge_fsm};
use c3_cxl::dcoh::dcoh_transition_table;
use c3_memsys::l1::l1_transition_table;
use c3_protocol::states::ProtocolFamily;
use c3_protocol::table::{TransitionRow, TransitionTable};
use c3_verif::fsm_checks::check_fsm;
use c3_verif::static_checks::check_all;
use c3_verif::StaticDefect;

use crate::cli::{self, usage_error, Args, CliError, Flag, Subcommand, JSON};
use crate::runner::json_escape;

pub(crate) const CMD: Subcommand = Subcommand {
    name: "protocheck",
    about: "Static analysis of the controllers' transition tables and compound FSMs",
    operands: "",
    flags: &[
        JSON,
        Flag::Text("--inject", "KIND", "missing-row, forbidden-state or cycle"),
    ],
    run,
};

const FAMILIES: [ProtocolFamily; 4] = [
    ProtocolFamily::Mesi,
    ProtocolFamily::Mesif,
    ProtocolFamily::Moesi,
    ProtocolFamily::Rcc,
];

/// A known defect seeded into one table, to prove the checker sees it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Inject {
    /// Delete the L1 MESI `(IS_D, Data)` row.
    MissingRow,
    /// Declare the L1 MESI `M` state forbidden.
    ForbiddenState,
    /// Replace the bridge MESI `(Wb, Cmp)` rows with a stall waiting on
    /// `Cmp` itself — an unreleasable self-cycle.
    Cycle,
}

fn apply_injection(inject: Inject, l1: &mut TransitionTable, bridge: &mut TransitionTable) {
    match inject {
        Inject::MissingRow => {
            // Drop the (IS_D, Data) row *and* the wildcard Data row, so
            // the pair is genuinely uncovered (not silently absorbed by
            // the wildcard) — the checker must name the hole.
            l1.rows
                .retain(|r| !(r.event == "Data" && (r.state == "IS_D" || r.state == "*")));
        }
        Inject::ForbiddenState => {
            l1.forbidden.push("M");
        }
        Inject::Cycle => {
            bridge
                .rows
                .retain(|r| !(r.state == "Wb" && r.event == "Cmp"));
            bridge.rows.push(TransitionRow::stall(
                "Wb",
                "Cmp",
                vec!["Cmp"],
                "protocheck --inject cycle",
            ));
        }
    }
}

/// Per-table stats carried into the JSON report.
struct TableStats {
    family: String,
    controller: &'static str,
    states: usize,
    events: usize,
    rows: usize,
}

/// One family's table-check outcome.
struct FamilyResult {
    family: String,
    tables: Vec<TableStats>,
    defects: Vec<StaticDefect>,
}

/// One compound-FSM check outcome (defects pre-rendered).
struct FsmResult {
    name: String,
    defects: Vec<String>,
}

fn run(args: &Args) -> Result<(), CliError> {
    let inject = match args.text("--inject") {
        None => None,
        Some("missing-row") => Some(Inject::MissingRow),
        Some("forbidden-state") => Some(Inject::ForbiddenState),
        Some("cycle") => Some(Inject::Cycle),
        Some(other) => {
            return Err(usage_error(format!(
                "unknown injection {other:?} (expected missing-row, forbidden-state or cycle)"
            )))
        }
    };

    let mut families: Vec<FamilyResult> = Vec::new();
    for fam in FAMILIES {
        let mut l1 = l1_transition_table(fam);
        let mut bridge = bridge_transition_table(fam);
        let dcoh = dcoh_transition_table();
        if fam == ProtocolFamily::Mesi {
            if let Some(inj) = inject {
                apply_injection(inj, &mut l1, &mut bridge);
            }
        }
        let set = [&l1, &bridge, &dcoh];
        families.push(FamilyResult {
            family: fam.to_string(),
            tables: set
                .iter()
                .map(|t| TableStats {
                    family: fam.to_string(),
                    controller: t.controller,
                    states: t.states.len(),
                    events: t.events.len(),
                    rows: t.rows.len(),
                })
                .collect(),
            defects: check_all(&set),
        });
    }

    // The generated compound FSMs, for the same families plus the
    // directory-less baselines.
    let mut fsms: Vec<FsmResult> = Vec::new();
    for fam in FAMILIES {
        fsms.push(FsmResult {
            name: format!("{fam} compound FSM"),
            defects: check_fsm(&bridge_fsm(fam))
                .iter()
                .map(|d| d.to_string())
                .collect(),
        });
    }
    for fam in [ProtocolFamily::Mesi, ProtocolFamily::Moesi] {
        fsms.push(FsmResult {
            name: format!("{fam} baseline FSM"),
            defects: check_fsm(&baseline_fsm(fam, ProtocolFamily::Mesi))
                .iter()
                .map(|d| d.to_string())
                .collect(),
        });
    }

    let total_defects: usize = families.iter().map(|f| f.defects.len()).sum::<usize>()
        + fsms.iter().map(|f| f.defects.len()).sum::<usize>();
    let tables_checked: usize = families.iter().map(|f| f.tables.len()).sum();

    print_text(&families, &fsms, total_defects, tables_checked, fsms.len());
    if let Some(path) = args.text(JSON.name()) {
        cli::write(path, &render_json(&families, &fsms, total_defects))?;
    }
    if total_defects != 0 {
        return Err(CliError::Failed(format!("{total_defects} defect(s)")));
    }
    Ok(())
}

fn print_text(
    families: &[FamilyResult],
    fsms: &[FsmResult],
    total_defects: usize,
    tables_checked: usize,
    fsm_count: usize,
) {
    for f in families {
        let rows: usize = f.tables.iter().map(|t| t.rows).sum();
        if f.defects.is_empty() {
            println!("{}: l1+bridge+dcoh tables clean ({rows} rows)", f.family);
        } else {
            println!(
                "{}: {} defect(s) in {rows} rows:",
                f.family,
                f.defects.len()
            );
            for d in &f.defects {
                println!("  {d}");
            }
        }
    }
    for f in fsms {
        if !f.defects.is_empty() {
            println!("{}: {} defect(s):", f.name, f.defects.len());
            for d in &f.defects {
                println!("  {d}");
            }
        }
    }
    if total_defects == 0 {
        println!("protocheck: {tables_checked} tables + {fsm_count} compound FSMs clean");
    } else {
        println!("protocheck: {total_defects} defect(s)");
    }
}

fn render_json(families: &[FamilyResult], fsms: &[FsmResult], total_defects: usize) -> String {
    let tables: Vec<String> = families
        .iter()
        .flat_map(|f| &f.tables)
        .map(|t| {
            format!(
                "    {{\"family\": \"{}\", \"controller\": \"{}\", \
                 \"states\": {}, \"events\": {}, \"rows\": {}}}",
                json_escape(&t.family),
                json_escape(t.controller),
                t.states,
                t.events,
                t.rows
            )
        })
        .collect();
    let defect = |family: &str, kind: &str, detail: &str| {
        format!(
            "    {{\"family\": \"{}\", \"kind\": \"{kind}\", \"detail\": \"{}\"}}",
            json_escape(family),
            json_escape(detail)
        )
    };
    let table_defects = families.iter().flat_map(|f| {
        f.defects
            .iter()
            .map(|d| defect(&f.family, d.kind(), d.detail()))
    });
    let fsm_defects = fsms
        .iter()
        .flat_map(|f| f.defects.iter().map(|d| defect(&f.name, "fsm", d)));
    let defects: Vec<String> = table_defects.chain(fsm_defects).collect();
    format!(
        "{{\n  \"tables\": [\n{}\n  ],\n  \"defects\": [\n{}\n  ],\n  \
         \"fsms_checked\": {},\n  \"total_defects\": {}\n}}\n",
        tables.join(",\n"),
        defects.join(",\n"),
        fsms.len(),
        total_defects
    )
}
