//! Table II: the generated C³ translation table (host = MOESI by default,
//! matching the paper's fragment; pass a family name for others).

use c3::generator::bridge_fsm;
use c3_protocol::states::ProtocolFamily;

use crate::cli::{usage_error, Args, CliError, Subcommand};

pub(crate) const CMD: Subcommand = Subcommand {
    name: "table2",
    about: "Table II: the generated C3 translation table (host family, default MOESI)",
    operands: "[MESI|MESIF|MOESI|RCC]",
    flags: &[],
    run,
};

fn run(args: &Args) -> Result<(), CliError> {
    let arg = match args.operands() {
        [] => "MOESI",
        [family] => family.as_str(),
        [_, extra, ..] => return Err(usage_error(format!("unexpected argument {extra:?}"))),
    };
    let family = match arg.to_uppercase().as_str() {
        "MESI" => ProtocolFamily::Mesi,
        "MESIF" => ProtocolFamily::Mesif,
        "MOESI" => ProtocolFamily::Moesi,
        "RCC" => ProtocolFamily::Rcc,
        _ => return Err(usage_error(format!("unknown family {arg:?}"))),
    };
    let fsm = bridge_fsm(family);
    println!("{}", fsm.dump_table());
    println!(
        "{} consistent compound states, {} translation rows",
        fsm.states.len(),
        fsm.rows.len()
    );
    Ok(())
}
