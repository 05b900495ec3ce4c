//! The six workloads. Each has an untraced form (end-to-end metrics) and
//! a shorter traced form (per-layer metrics); both drive the crates
//! only through their public functions.

pub mod catalog;
pub mod fleet;
pub mod memsim;
pub mod store;
pub mod wire;

use crate::harness::{Checks, Ctx, EndToEnd, Layers};
use crate::spans::Recorder;
use memsim::Side;

pub fn untraced(workload: &str, ctx: &Ctx, checks: &mut Checks) -> Option<EndToEnd> {
    Some(match workload {
        "catalog_quick" => catalog::untraced(ctx, checks),
        "memsim_loads" => memsim::untraced(Side::Loads, ctx, checks),
        "memsim_stores" => memsim::untraced(Side::Stores, ctx, checks),
        "wire_read" => wire::untraced(ctx, checks),
        "fleet_scrape" => fleet::untraced(ctx, checks),
        "store_rw" => store::untraced(ctx, checks),
        _ => return None,
    })
}

pub fn traced(
    workload: &str,
    ctx: &Ctx,
    checks: &mut Checks,
    rec: &mut Recorder,
) -> Option<Layers> {
    Some(match workload {
        "catalog_quick" => catalog::traced(ctx, checks, rec),
        "memsim_loads" => memsim::traced(Side::Loads, ctx, checks, rec),
        "memsim_stores" => memsim::traced(Side::Stores, ctx, checks, rec),
        "wire_read" => wire::traced(ctx, checks, rec),
        "fleet_scrape" => fleet::traced(ctx, checks, rec),
        "store_rw" => store::traced(ctx, checks, rec),
        _ => return None,
    })
}
