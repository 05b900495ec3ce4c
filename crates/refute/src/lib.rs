//! CounterPoint-style model-refutation harness.
//!
//! CounterPoint (PAPERS.md) uses hardware event counts to refute
//! microarchitectural assumptions; we invert that onto our own simulator.
//! Each [`Mechanism`] in [`CATALOG`] isolates one memsim behaviour
//! (pointer-chase randomness, stream prefetch, store-gather bypass,
//! write-allocate, slice pressure, DMA accounting, ...), states a
//! *closed-form analytical prediction* for the per-channel read/write byte
//! counts it must produce, and carries an explicit tolerance [`Band`].
//!
//! The harness then runs the kernel through the **full measurement path
//! the figures use** — PAPI event group over a PCP component over a real
//! TCP wire client against a `PmcdServer` — so a contradiction indicts
//! either the model, the simulator, or the transport; agreement vouches
//! for all three at once. Verdicts land in the `refute` repro experiment
//! (`repro --only refute`) whose golden makes any divergence beyond band a
//! tier-1 failure.
//!
//! See DESIGN.md §15 for the prediction models and band rationale.

// The no-panic gate (DESIGN.md §8.1): CI's clippy step fails on any of
// these outside test code.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::fmt;

use p9_memsim::{SimMachine, SECTOR_BYTES};
use papi_sim::components::PcpComponent;
use papi_sim::validate::pcp_nest_event_names;
use papi_sim::{Component, EventName};
use pcp_sim::Pmns;
use pcp_wire::{PmcdServer, WireClient, WireConfig};

pub mod mechanisms;

pub use mechanisms::CATALOG;

/// Memory channels per socket; predictions are per-channel vectors.
pub const CHANNELS: usize = p9_arch::MBA_CHANNELS;

/// Tolerance band for one mechanism: the allowed absolute error on each
/// per-channel byte count is `max(ceil(rel * predicted), abs_bytes)`.
///
/// Most mechanisms are *exact* (rel = 0, abs = 0): the model predicts the
/// sector set to the byte and any discrepancy is a contradiction. A
/// non-zero band is itself a modelling statement and must be justified in
/// the mechanism's `model` string (e.g. hashed set-indexing makes capacity
/// eviction statistical rather than enumerable).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    /// Relative slack as a fraction of the predicted value.
    pub rel: f64,
    /// Absolute slack floor in bytes.
    pub abs_bytes: u64,
}

impl Band {
    /// Zero-tolerance band: prediction must match to the byte.
    pub const fn exact() -> Band {
        Band {
            rel: 0.0,
            abs_bytes: 0,
        }
    }

    /// Allowed absolute error for a given predicted byte count.
    pub fn tolerance(&self, predicted: u64) -> u64 {
        let rel = (self.rel * predicted as f64).ceil() as u64;
        rel.max(self.abs_bytes)
    }
}

/// Per-channel read/write byte counts — either predicted analytically or
/// measured over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    pub reads: [u64; CHANNELS],
    pub writes: [u64; CHANNELS],
}

impl Traffic {
    pub fn read_total(&self) -> u64 {
        self.reads.iter().sum()
    }

    pub fn write_total(&self) -> u64 {
        self.writes.iter().sum()
    }

    pub fn total(&self) -> u64 {
        self.read_total() + self.write_total()
    }
}

/// Bytes hitting each channel when `n_sectors` contiguous sectors starting
/// at absolute sector `first_sector` are each touched exactly once.
///
/// Channels interleave per sector (`channel = sector % 8`), so channel `r`
/// receives one sector per full stripe plus one more if its offset within
/// the run precedes the tail.
pub fn sector_range_bytes(first_sector: u64, n_sectors: u64) -> [u64; CHANNELS] {
    let mut out = [0u64; CHANNELS];
    let ch = CHANNELS as u64;
    for (r, slot) in out.iter_mut().enumerate() {
        let off = (r as u64 + ch - first_sector % ch) % ch;
        let sectors = if off >= n_sectors {
            0
        } else {
            (n_sectors - off).div_ceil(ch)
        };
        *slot = sectors * SECTOR_BYTES;
    }
    out
}

/// A mechanism's kernel plus the prediction computed for the concrete
/// region the prepare step allocated.
pub struct Prepared {
    /// Closed-form per-channel prediction for exactly what the kernel
    /// below will do to memory.
    pub prediction: Traffic,
    /// The micro-kernel. Runs between `group.start()` and `group.stop()`
    /// on the same machine `prepare` allocated from.
    pub kernel: Box<dyn FnOnce(&mut SimMachine) + Send>,
}

/// One refutable mechanism: a named micro-kernel generator with an
/// analytical traffic model and a tolerance band.
pub struct Mechanism {
    /// Short stable identifier (CSV key, golden key).
    pub name: &'static str,
    /// One-line closed-form model statement (kept comma-free so it can be
    /// embedded in CSV output verbatim).
    pub model: &'static str,
    /// Tolerance band justified by the model statement.
    pub band: Band,
    /// Allocates regions / sets policy on the machine and returns the
    /// kernel plus its prediction for the concrete base address.
    pub prepare: fn(&mut SimMachine) -> Prepared,
}

/// A judged comparison of prediction vs wire-measured traffic.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub mechanism: &'static str,
    pub band: Band,
    pub predicted: Traffic,
    pub measured: Traffic,
    /// Largest per-channel absolute error in bytes.
    pub worst_err_bytes: u64,
    /// Where the worst error sits, e.g. `read-ch3`.
    pub worst_site: String,
    /// True iff every channel of both directions is within band.
    pub agrees: bool,
}

impl Verdict {
    /// One CSV row: `mechanism,band_rel,band_abs_bytes,pred_read,
    /// meas_read,pred_write,meas_write,worst_err_bytes,worst,verdict`.
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{}",
            self.mechanism,
            self.band.rel,
            self.band.abs_bytes,
            self.predicted.read_total(),
            self.measured.read_total(),
            self.predicted.write_total(),
            self.measured.write_total(),
            self.worst_err_bytes,
            self.worst_site,
            if self.agrees {
                "agree"
            } else {
                "CONTRADICTION"
            },
        )
    }

    /// Human-readable contradiction detail for error reporting.
    pub fn detail(&self) -> String {
        format!(
            "{}: worst error {} bytes at {} (tolerance rel={} abs={}); \
             predicted reads={:?} writes={:?}; measured reads={:?} writes={:?}",
            self.mechanism,
            self.worst_err_bytes,
            self.worst_site,
            self.band.rel,
            self.band.abs_bytes,
            self.predicted.reads,
            self.predicted.writes,
            self.measured.reads,
            self.measured.writes,
        )
    }
}

/// Failure of the harness plumbing itself (not a model contradiction).
#[derive(Debug)]
pub struct RefuteError {
    pub stage: &'static str,
    pub detail: String,
}

impl fmt::Display for RefuteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refute harness failed at {}: {}",
            self.stage, self.detail
        )
    }
}

impl std::error::Error for RefuteError {}

fn stage_err(stage: &'static str, e: impl fmt::Display) -> RefuteError {
    RefuteError {
        stage,
        detail: e.to_string(),
    }
}

/// Compare `measured` against `predicted` channel by channel and direction
/// by direction under the mechanism's band.
pub fn judge(mech: &Mechanism, predicted: Traffic, measured: Traffic) -> Verdict {
    let mut worst_err = 0u64;
    let mut worst_site = String::from("none");
    let mut agrees = true;
    let sides = [
        ("read", &predicted.reads, &measured.reads),
        ("write", &predicted.writes, &measured.writes),
    ];
    for (dir, pred, meas) in sides {
        for ch in 0..CHANNELS {
            let err = pred[ch].abs_diff(meas[ch]);
            if err > mech.band.tolerance(pred[ch]) {
                agrees = false;
            }
            if err > worst_err {
                worst_err = err;
                worst_site = format!("{dir}-ch{ch}");
            }
        }
    }
    Verdict {
        mechanism: mech.name,
        band: mech.band,
        predicted,
        measured,
        worst_err_bytes: worst_err,
        worst_site,
        agrees,
    }
}

/// Run one mechanism on a fresh quiet Summit machine seeded with `seed`
/// and judge the wire-measured traffic against its prediction.
pub fn refute_mechanism(mech: &Mechanism, seed: u64) -> Result<Verdict, RefuteError> {
    let mut machine = SimMachine::quiet(p9_arch::Machine::summit(), seed);
    refute_on(&mut machine, mech)
}

/// Run one mechanism on an existing machine through the full
/// PAPI → PCP → TCP wire measurement path and judge the result.
///
/// The machine should be quiet (no background noise and no PAPI
/// start/stop footprint) — the prediction covers only the kernel's own
/// traffic. A daemon fetch reads the counters without touching memory,
/// so the measurement path itself contributes zero bytes and exactness
/// is meaningful.
pub fn refute_on(machine: &mut SimMachine, mech: &Mechanism) -> Result<Verdict, RefuteError> {
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let mut server = PmcdServer::bind_system(
        "127.0.0.1:0",
        pmns.clone(),
        sockets.clone(),
        WireConfig::default(),
    )
    .map_err(|e| stage_err("bind", e))?;
    let result = refute_with_server(machine, mech, &server, pmns, sockets);
    server.shutdown();
    result
}

fn refute_with_server(
    machine: &mut SimMachine,
    mech: &Mechanism,
    server: &PmcdServer,
    pmns: Pmns,
    sockets: Vec<std::sync::Arc<p9_memsim::machine::SocketShared>>,
) -> Result<Verdict, RefuteError> {
    let client = WireClient::connect(server.local_addr()).map_err(|e| stage_err("connect", e))?;
    let component = PcpComponent::with_client(client, pmns, sockets);

    let (reads, writes) = pcp_nest_event_names(machine);
    let mut names = reads;
    names.extend(writes);
    let mut events = Vec::with_capacity(names.len());
    for name in &names {
        events.push(EventName::parse(name).map_err(|e| stage_err("event-parse", e))?);
    }
    let mut group = component
        .create_group(&events)
        .map_err(|e| stage_err("create-group", e))?;

    let prepared = (mech.prepare)(machine);
    // Drop any cache/prefetcher state the prepare step may have left so the
    // kernel starts cold, then open the measurement window.
    machine.flush_socket(0);
    group.start().map_err(|e| stage_err("start", e))?;
    (prepared.kernel)(machine);
    let vals = group.stop().map_err(|e| stage_err("stop", e))?;

    if vals.len() != 2 * CHANNELS {
        return Err(stage_err(
            "read",
            format!("expected {} event values, got {}", 2 * CHANNELS, vals.len()),
        ));
    }
    let mut measured = Traffic::default();
    for ch in 0..CHANNELS {
        measured.reads[ch] = vals[ch].max(0) as u64;
        measured.writes[ch] = vals[CHANNELS + ch].max(0) as u64;
    }
    Ok(judge(mech, prepared.prediction, measured))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_range_splits_aligned_runs_evenly() {
        // Region bases are 64 KiB aligned, so first_sector % 8 == 0 and a
        // run of 8k sectors puts exactly k sectors on every channel.
        let bytes = sector_range_bytes(0, 64);
        assert_eq!(bytes, [512u64; 8]);
    }

    #[test]
    fn sector_range_handles_offsets_and_tails() {
        // 3 sectors starting at sector 6: sectors 6, 7, 8 → channels 6, 7, 0.
        let bytes = sector_range_bytes(6, 3);
        let mut want = [0u64; 8];
        want[6] = 64;
        want[7] = 64;
        want[0] = 64;
        assert_eq!(bytes, want);
        // Exhaustive cross-check against the naive loop.
        for first in 0..16u64 {
            for n in 0..40u64 {
                let mut naive = [0u64; 8];
                for s in first..first + n {
                    naive[(s % 8) as usize] += 64;
                }
                assert_eq!(sector_range_bytes(first, n), naive, "first={first} n={n}");
            }
        }
    }

    #[test]
    fn band_tolerance_takes_the_larger_slack() {
        let b = Band {
            rel: 0.01,
            abs_bytes: 4096,
        };
        assert_eq!(b.tolerance(100), 4096);
        assert_eq!(b.tolerance(10_000_000), 100_000);
        assert_eq!(Band::exact().tolerance(1 << 30), 0);
    }

    #[test]
    fn judge_flags_out_of_band_channels() {
        let mech = &CATALOG[0];
        let pred = Traffic {
            reads: [1000; 8],
            ..Traffic::default()
        };
        let mut meas = pred;
        let v = judge(mech, pred, meas);
        assert!(v.agrees);
        assert_eq!(v.worst_err_bytes, 0);
        meas.writes[3] = 64;
        let v = judge(mech, pred, meas);
        assert!(
            !v.agrees,
            "unpredicted write must contradict: {}",
            v.detail()
        );
        assert_eq!(v.worst_site, "write-ch3");
    }
}
