//! Table I: the CXL.mem coherence messages and their MESI equivalents.

use c3_protocol::msg::{direction, mesi_equivalent, CxlOpcode};

use crate::cli::{Args, CliError, Subcommand};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "table1",
    about: "Table I: CXL.mem coherence messages and their MESI equivalents",
    operands: "",
    flags: &[],
    run,
};

fn run(_: &Args) -> Result<(), CliError> {
    println!("Table I: CXL.mem coherence messages and MESI equivalents");
    println!(
        "{:<12} {:<5} {:<10} Description",
        "Message", "Dir.", "MESI Eq."
    );
    let rows = [
        (
            CxlOpcode::MemRdA,
            "MemRd, A",
            "Read memory and acquire excl. ownership",
        ),
        (
            CxlOpcode::MemRdS,
            "MemRd, S",
            "Read memory and acquire sharable copy",
        ),
        (
            CxlOpcode::MemWrI,
            "MemWr, I",
            "Writeback, do not keep cachable copy",
        ),
        (
            CxlOpcode::MemWrS,
            "MemWr, S",
            "Writeback, retain current copy and state",
        ),
        (
            CxlOpcode::BiSnpData,
            "BISnpData",
            "Device request sharable copy from host",
        ),
        (
            CxlOpcode::BiSnpInv,
            "BISnpInv",
            "Device request exclusive cachable copy",
        ),
    ];
    for (op, name, desc) in rows {
        println!(
            "{:<12} {:<5} {:<10} {desc}",
            name,
            direction(op),
            mesi_equivalent(op)
        );
    }
    Ok(())
}
