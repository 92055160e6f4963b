//! The §VI-C1 address-frequency analysis at the memory controller: for
//! CXL-sensitive applications, a few cache lines are hot-spots for both
//! reads and writes *across the two clusters*; insensitive applications
//! show no multi-host hot lines.

use c3::system::GlobalProtocol;

use crate::cli::{self, Args, CliError, Subcommand, SHARDS};
use crate::run_workload_with;

pub(crate) const CMD: Subcommand = Subcommand {
    name: "hotspots",
    about: "Section VI-C1: multi-host hot lines at the DCOH (default: histogram barnes vips)",
    operands: "[workload...]",
    flags: &[SHARDS],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let defaults = ["histogram", "barnes", "vips"].map(String::from);
    let names = if args.operands().is_empty() {
        &defaults[..]
    } else {
        args.operands()
    };
    let specs = names
        .iter()
        .map(|n| cli::workload(n))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cfg = super::mesi(GlobalProtocol::Cxl);
    cfg.shards = args.shards()?;
    for spec in &specs {
        let (result, hot) = run_workload_with(spec, &cfg, |sim, handles| {
            sim.component_as::<c3_cxl::CxlDirectory>(handles.global_dir)
                .expect("dcoh")
                .engine()
                .hottest(8)
        });
        println!("\n== {} ==  exec {} ns", spec.name, result.exec_ns);
        println!(
            "   {:<8} {:>8} {:>8} {:>8}",
            "line", "reads", "writes", "hosts"
        );
        for h in hot {
            let marker = if h.sharers > 1 && h.writes > 0 {
                "  <- multi-host hot-spot"
            } else {
                ""
            };
            println!(
                "   {:<8} {:>8} {:>8} {:>8}{marker}",
                h.addr.to_string(),
                h.reads,
                h.writes,
                h.sharers
            );
        }
    }
    Ok(())
}
