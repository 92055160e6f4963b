//! The `c3` subcommands, one module per experiment or tool; each exports
//! its [`crate::cli::Subcommand`] as `CMD`.

use c3::system::GlobalProtocol;
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;

use crate::RunConfig;

pub(crate) mod ablation;
pub(crate) mod chaos;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig9;
pub(crate) mod hotspots;
pub(crate) mod metrics;
pub(crate) mod modelcheck;
pub(crate) mod oltp;
pub(crate) mod perf;
pub(crate) mod protocheck;
pub(crate) mod report_dump;
pub(crate) mod sweep;
pub(crate) mod table1;
pub(crate) mod table2;
pub(crate) mod table4;
pub(crate) mod trace;
pub(crate) mod verify;

/// The scaled two-cluster MESI system with weak (Arm) cores under
/// `global` — the configuration most subcommands vary one knob of.
fn mesi(global: GlobalProtocol) -> RunConfig {
    RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        global,
        (Mcm::Weak, Mcm::Weak),
    )
}
