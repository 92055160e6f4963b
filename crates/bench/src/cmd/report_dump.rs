//! `report_dump` — print the complete statistics report of a few fixed
//! runs, one `key=value` per line, sorted.
//!
//! Exists for byte-identical regression checks: pipe the output to a file
//! on two builds (or two revisions) and `diff`. With no fault plan and no
//! resilience configured, any difference is an unintended behaviour
//! change.
//!
//! ```text
//! cargo run -p c3-bench --bin c3 -- report_dump > /tmp/a.txt
//! git stash && cargo run -p c3-bench --bin c3 -- report_dump > /tmp/b.txt
//! diff /tmp/a.txt /tmp/b.txt
//! ```
//!
//! `--shards N` runs the same systems on the sharded kernel, whose output
//! must be identical for every N (it differs from the sequential
//! kernel's, which draws its RNG streams in another order).

use c3::system::GlobalProtocol;
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_workloads::WorkloadSpec;

use crate::cli::{Args, CliError, Subcommand, SHARDS};
use crate::{run_workload, RunConfig};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "report_dump",
    about: "Full sorted statistics reports of fixed runs, for byte-identity diffs",
    operands: "",
    flags: &[SHARDS],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let shards = args.shards()?;
    for name in ["vips", "barnes", "dedup"] {
        let spec = WorkloadSpec::by_name(name).expect("workload");
        for global in [
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
        ] {
            let mut cfg = RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
                global,
                (Mcm::Weak, Mcm::Weak),
            );
            cfg.ops_per_core = 300;
            cfg.shards = shards;
            let r = run_workload(&spec, &cfg);
            println!("## {name} {global:?} exec_ns={}", r.exec_ns);
            let mut lines: Vec<String> = r.report.iter().map(|(k, v)| format!("{k}={v}")).collect();
            lines.sort_unstable();
            for l in lines {
                println!("{l}");
            }
        }
    }
    Ok(())
}
