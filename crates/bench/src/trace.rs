//! Figure 2: single-run trace replay of the Michael–Scott enqueue.
//!
//! This is not an evaluation grid — it replays one short run per protocol
//! and prints the per-access outcomes — so it runs one workload at a time
//! through [`run_workload_with`] instead of a campaign. The per-access
//! stream comes from the telemetry recorder: the core's
//! [`EventKind::Access`] and [`EventKind::Backoff`] events carry exactly the
//! fields this walkthrough needs.

use dvs_campaign::run_workload_with;
use dvs_core::config::{Protocol, SystemConfig};
use dvs_kernels::{KernelId, KernelParams, NonBlocking};
use dvs_telemetry::{Component, EventKind, Telemetry};

/// Prints example interleavings of the M-S enqueue on MESI, DeNovoSync0, and
/// DeNovoSync, showing per-access hits/misses (and hardware-backoff stalls).
///
/// # Panics
///
/// Panics if the traced run fails.
pub fn fig2_trace() {
    let mut params = KernelParams::smoke(4);
    params.iters = 2;
    params.nonsynch = (1, 2);
    params.sw_backoff = false;
    let w = dvs_kernels::build(KernelId::NonBlocking(NonBlocking::MsQueue), &params);
    let head = w.layout.segment("head").expect("head").base;
    let tail = w.layout.segment("tail").expect("tail").base;
    for proto in Protocol::ALL {
        println!("== Figure 2 ({proto}): M-S queue, accesses to head/tail/links ==");
        let tel = Telemetry::recorder();
        run_workload_with(SystemConfig::small(4, proto), &w, tel.clone()).expect("figure-2 run");
        let events = tel.take_events().expect("recorder drains");
        let mut shown = 0;
        for e in &events {
            if e.component != Component::Core {
                continue;
            }
            let (sync, write, outcome) = match e.kind {
                EventKind::Access { hit, sync, write } => {
                    let outcome = if hit { "HIT " } else { "MISS" };
                    (sync, write, outcome.to_owned())
                }
                // Backoff penalties only ever hit synchronization reads.
                EventKind::Backoff { cycles } => (true, false, format!("BACKOFF {cycles}")),
                _ => continue, // marks, stalls: not per-access outcomes
            };
            let name = if e.addr == head.raw() {
                "head"
            } else if e.addr == tail.raw() {
                "tail"
            } else if sync {
                "node.next"
            } else {
                continue; // node values and bookkeeping
            };
            println!(
                "  core {} @{:>6}  {:9} {:5} {}",
                e.node,
                e.cycle,
                name,
                if write { "write" } else { "read" },
                outcome
            );
            shown += 1;
            if shown >= 40 {
                println!("  ... (truncated)");
                break;
            }
        }
        println!();
    }
}
