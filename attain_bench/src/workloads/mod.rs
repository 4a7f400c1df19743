//! The five workloads. Each runs in a process of its own, so that the
//! peak-RSS mark, the allocator's state and thread placement do not
//! leak from one into the next.

pub mod campaign;
pub mod enterprise;
pub mod fabric;
pub mod proxy;

use crate::run::{Ctx, Outcome};

/// Runs the workload called `name`; `None` if there is none.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<Outcome> {
    Some(match name {
        "campaign_full" => campaign::workload(ctx),
        "ctrl_path" => enterprise::workload(enterprise::Kind::CtrlPath, ctx),
        "table_churn" => enterprise::workload(enterprise::Kind::TableChurn, ctx),
        "fabric_large" => fabric::workload(ctx),
        "proxy_tcp" => proxy::workload(ctx),
        _ => return None,
    })
}
