//! The whole-machine simulation facade.
//!
//! [`SimMachine`] instantiates per-core cache hierarchies for every usable
//! core of a [`p9_arch::Machine`], owns the socket-shared state (nest
//! counters, simulated clock, noise process), and provides the workload
//! execution API:
//!
//! * [`SimMachine::run_parallel`] — run one closure per active core, on real
//!   OS threads. Per-core state is private and each core publishes its
//!   traffic to the atomic counters at its fence, so this is exact under
//!   the simulator's concurrency model (see crate docs).
//!   Activating `n` cores sizes each core's L3 share according to the
//!   slice-borrowing rule.
//! * [`SimMachine::alloc`] — hand out virtual regions for trace generation.
//!
//! Measurement infrastructure (PAPI components, the PCP daemon) interacts
//! with sockets through [`SocketShared`], which exposes the counters, the
//! simulated clock and the measurement-overhead injection point.

use std::sync::Arc;

use obs::sync::{Mutex, Rank};
use obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::addr::{AddressSpace, Region};
use crate::counters::{Direction, NestCounters};
use crate::hierarchy::{AccessCosts, CoreSim};
use crate::noise::NoiseConfig;
use crate::privilege::{PrivilegeLevel, PrivilegeToken};
use p9_arch::{Machine, MachineKind};

/// Socket-aggregated core-event counters (the "core" PMU view): every
/// core flushes its local statistics here at fence points. Indices follow
/// [`CoreEvent`].
#[derive(Debug, Default)]
pub struct CoreEventCounters {
    values: [Counter; CoreEvent::COUNT],
}

/// The core-PMU events the simulator aggregates per socket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoreEvent {
    /// Run cycles (`PM_RUN_CYC`).
    RunCyc = 0,
    /// Completed load operations (`PM_LD_CMPL`).
    LdCmpl = 1,
    /// Completed store operations (`PM_ST_CMPL`).
    StCmpl = 2,
    /// L1D demand misses (`PM_LD_MISS_L1`).
    LdMissL1 = 3,
    /// Demand fetches from memory (`PM_DATA_FROM_MEMORY`).
    DataFromMem = 4,
}

impl CoreEvent {
    pub const COUNT: usize = 5;
    pub const ALL: [CoreEvent; Self::COUNT] = [
        CoreEvent::RunCyc,
        CoreEvent::LdCmpl,
        CoreEvent::StCmpl,
        CoreEvent::LdMissL1,
        CoreEvent::DataFromMem,
    ];

    /// The POWER event mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CoreEvent::RunCyc => "PM_RUN_CYC",
            CoreEvent::LdCmpl => "PM_LD_CMPL",
            CoreEvent::StCmpl => "PM_ST_CMPL",
            CoreEvent::LdMissL1 => "PM_LD_MISS_L1",
            CoreEvent::DataFromMem => "PM_DATA_FROM_MEMORY",
        }
    }
}

impl CoreEventCounters {
    /// Add `v` to one event's counter.
    pub fn add(&self, ev: CoreEvent, v: u64) {
        self.values[ev as usize].add(v);
    }

    /// Current value of one event.
    pub fn get(&self, ev: CoreEvent) -> u64 {
        self.values[ev as usize].get()
    }
}

/// State shared between the simulated socket, measurement components and
/// daemon threads.
#[derive(Debug)]
pub struct SocketShared {
    counters: Arc<NestCounters>,
    core_events: Arc<CoreEventCounters>,
    noise: NoiseConfig,
    rng: Mutex<StdRng>,
    time_cycles: Counter,
    clock_hz: f64,
    /// Last counter snapshot seen by the conservation checker, for the
    /// monotonicity invariant.
    last_verified: Mutex<crate::CounterSnapshot>,
}

impl SocketShared {
    /// A free-standing socket: nest counters, clock and noise stream
    /// without the per-core cache hierarchies a full [`SimMachine`]
    /// builds. The fleet simulator runs hundreds of hosts per process
    /// and only needs each host's DMA/measurement counter surface —
    /// constructing `SimMachine` per host would cost two orders of
    /// magnitude more memory for state nobody reads.
    pub fn standalone(noise: NoiseConfig, seed: u64, clock_hz: f64) -> Arc<Self> {
        Arc::new(Self::new(noise, seed, clock_hz))
    }

    fn new(noise: NoiseConfig, seed: u64, clock_hz: f64) -> Self {
        SocketShared {
            counters: Arc::new(NestCounters::new()),
            core_events: Arc::new(CoreEventCounters::default()),
            noise,
            rng: Mutex::new(Rank::MEMSIM_RNG, StdRng::seed_from_u64(seed)),
            time_cycles: Counter::new(),
            clock_hz,
            last_verified: Mutex::new(
                Rank::MEMSIM_LAST_VERIFIED,
                crate::CounterSnapshot::default(),
            ),
        }
    }

    /// Check that no channel counter moved backwards since the previous
    /// verification sample, then remember `snap` as the new baseline.
    fn check_monotonic(
        &self,
        snap: &crate::CounterSnapshot,
    ) -> Result<(), crate::verify::ConservationError> {
        let mut prev = self.last_verified.lock();
        for ch in 0..p9_arch::MBA_CHANNELS {
            if snap.read_bytes[ch] < prev.read_bytes[ch] {
                return Err(crate::verify::ConservationError::Monotonic {
                    channel: ch,
                    dir: "read",
                    prev: prev.read_bytes[ch],
                    now: snap.read_bytes[ch],
                });
            }
            if snap.write_bytes[ch] < prev.write_bytes[ch] {
                return Err(crate::verify::ConservationError::Monotonic {
                    channel: ch,
                    dir: "write",
                    prev: prev.write_bytes[ch],
                    now: snap.write_bytes[ch],
                });
            }
        }
        *prev = *snap;
        Ok(())
    }

    /// The socket's nest counters.
    pub fn counters(&self) -> &NestCounters {
        &self.counters
    }

    /// A shareable handle to the counters (for daemon threads).
    pub fn counters_arc(&self) -> Arc<NestCounters> {
        Arc::clone(&self.counters)
    }

    /// The socket's aggregated core-event counters.
    pub fn core_events(&self) -> &CoreEventCounters {
        &self.core_events
    }

    /// A shareable handle to the core-event counters.
    pub fn core_events_arc(&self) -> Arc<CoreEventCounters> {
        Arc::clone(&self.core_events)
    }

    /// Simulated time on this socket, in seconds.
    pub fn now_seconds(&self) -> f64 {
        // Samplers model asynchronous wall-clock reads, so a stale
        // clock is fine.
        self.time_cycles.get() as f64 / self.clock_hz
    }

    /// Simulated time in cycles.
    pub fn now_cycles(&self) -> u64 {
        self.time_cycles.get()
    }

    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Inject the memory traffic of one measurement action (counter start
    /// or stop). Called by the measurement substrates, *not* by workloads.
    pub fn measurement_touch(&self) {
        let (r, w) = {
            let mut rng = self.rng.lock();
            self.noise.sample_overhead(&mut *rng)
        };
        self.counters.record_bulk(r, Direction::Read);
        self.counters.record_bulk(w, Direction::Write);
    }

    /// Advance the socket clock by `dcycles`, accruing background traffic
    /// for the elapsed window.
    pub fn advance_cycles(&self, dcycles: u64) {
        if dcycles == 0 {
            return;
        }
        self.time_cycles.add(dcycles);
        let seconds = dcycles as f64 / self.clock_hz;
        let (r, w) = {
            let mut rng = self.rng.lock();
            self.noise.sample_background(&mut *rng, seconds)
        };
        self.counters.record_bulk(r, Direction::Read);
        self.counters.record_bulk(w, Direction::Write);
    }

    /// Advance the socket clock by `seconds` of idle / host time.
    pub fn advance_seconds(&self, seconds: f64) {
        self.advance_cycles((seconds * self.clock_hz) as u64);
    }

    /// Record device DMA traffic (e.g. GPU H2D/D2H copies) on the nest.
    pub fn record_dma(&self, bytes: u64, dir: Direction) {
        self.counters.record_bulk(bytes, dir);
    }
}

/// One simulated socket: shared state plus per-core hierarchies.
#[derive(Debug)]
pub struct SocketSim {
    shared: Arc<SocketShared>,
    cores: Vec<CoreSim>,
    /// Number of cores the L3 shares are currently sized for (0 = not yet
    /// configured).
    configured_active: usize,
}

/// The simulated machine.
#[derive(Debug)]
pub struct SimMachine {
    arch: Machine,
    sockets: Vec<SocketSim>,
    costs: AccessCosts,
    address_space: AddressSpace,
}

impl SimMachine {
    /// Build a machine with the given noise model and RNG seed.
    pub fn new(arch: Machine, noise: NoiseConfig, seed: u64) -> Self {
        let costs = AccessCosts::default();
        let sockets = (0..arch.node.num_sockets())
            .map(|s| {
                let shared = Arc::new(SocketShared::new(
                    noise.clone(),
                    seed.wrapping_add(s as u64).wrapping_mul(0x9E37_79B9),
                    arch.clock_hz,
                ));
                let usable = arch.node.sockets[s].usable_cores;
                let cores = (0..usable)
                    .map(|_| {
                        let mut core = CoreSim::new(
                            (arch.l1d.capacity_bytes, arch.l1d.ways),
                            (arch.l2.capacity_bytes / 2, arch.l2.ways),
                            (
                                p9_arch::L3_PER_CORE_BYTES.min(arch.l3_slice.capacity_bytes),
                                arch.l3_slice.ways,
                            ),
                            shared.counters_arc(),
                            costs,
                        );
                        core.wire_core_events(shared.core_events_arc());
                        core
                    })
                    .collect();
                SocketSim {
                    shared,
                    cores,
                    configured_active: 0,
                }
            })
            .collect();

        SimMachine {
            arch,
            sockets,
            costs,
            address_space: AddressSpace::new(),
        }
    }

    /// Convenience constructor: Summit node with Summit noise.
    pub fn summit(seed: u64) -> Self {
        Self::new(Machine::summit(), NoiseConfig::summit(), seed)
    }

    /// Convenience constructor: Tellico node with Tellico noise.
    pub fn tellico(seed: u64) -> Self {
        Self::new(Machine::tellico(), NoiseConfig::tellico(), seed)
    }

    /// Convenience constructor: noise-free machine for exact-traffic tests.
    pub fn quiet(arch: Machine, seed: u64) -> Self {
        Self::new(arch, NoiseConfig::none(), seed)
    }

    /// The architecture description.
    pub fn arch(&self) -> &Machine {
        &self.arch
    }

    /// Timing-model costs in effect.
    pub fn costs(&self) -> AccessCosts {
        self.costs
    }

    /// Shared state of `socket` (counters, clock, overhead injection).
    pub fn socket_shared(&self, socket: usize) -> Arc<SocketShared> {
        Arc::clone(&self.sockets[socket].shared)
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Privilege token for user contexts on this machine: elevated on the
    /// Tellico testbed (the study had root there), plain user on Summit.
    pub fn privilege_token(&self) -> PrivilegeToken {
        match self.arch.kind {
            MachineKind::Summit => PrivilegeToken::user(),
            MachineKind::Tellico => PrivilegeToken::elevated(),
        }
    }

    /// Privilege level of ordinary contexts on this machine.
    pub fn user_privilege(&self) -> PrivilegeLevel {
        self.privilege_token().level()
    }

    /// Allocate a virtual region for trace generation.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        self.address_space.alloc(bytes)
    }

    /// Allocate room for `n` elements of `elem_bytes`.
    pub fn alloc_elems(&mut self, n: u64, elem_bytes: u64) -> Region {
        self.address_space.alloc_elems(n, elem_bytes)
    }

    /// Toggle the `-fprefetch-loop-arrays` store mode on every core of
    /// `socket`.
    pub fn set_software_prefetch(&mut self, socket: usize, enabled: bool) {
        for core in &mut self.sockets[socket].cores {
            core.set_software_prefetch(enabled);
        }
    }

    /// Swap the model-mechanism policy on every core of `socket`
    /// (ablation studies).
    pub fn set_policy(&mut self, socket: usize, policy: crate::hierarchy::ModelPolicy) {
        for core in &mut self.sockets[socket].cores {
            core.set_policy(policy);
        }
    }

    /// Run `f(thread_index, core)` on `nthreads` cores of `socket`
    /// concurrently, then advance the socket clock by the slowest thread's
    /// cycle delta (plus background noise for the window).
    pub fn run_parallel<F>(&mut self, socket: usize, nthreads: usize, f: F)
    where
        F: Fn(usize, &mut CoreSim) + Sync,
    {
        assert!(nthreads >= 1, "need at least one thread");
        assert!(
            nthreads <= self.sockets[socket].cores.len(),
            "{} threads exceed {} usable cores",
            nthreads,
            self.sockets[socket].cores.len()
        );
        let _span = obs::span!("memsim.run_parallel", nthreads as u64);
        self.configure_active(socket, nthreads);

        let sock = &mut self.sockets[socket];
        let before: Vec<u64> = sock.cores[..nthreads].iter().map(|c| c.cycles()).collect();

        std::thread::scope(|scope| {
            for (tid, core) in sock.cores[..nthreads].iter_mut().enumerate() {
                let f = &f;
                scope.spawn(move || {
                    f(tid, core);
                    core.fence();
                });
            }
        });

        let dmax = sock.cores[..nthreads]
            .iter()
            .zip(&before)
            .map(|(c, &b)| c.cycles() - b)
            .max()
            .unwrap_or(0);
        sock.shared.advance_cycles(dmax);
        self.assert_conservation(socket);
    }

    /// Run `f` on core 0 of `socket` (single-threaded kernel).
    pub fn run_single<F>(&mut self, socket: usize, f: F)
    where
        F: FnOnce(&mut CoreSim),
    {
        let _span = obs::span!("memsim.run_single", socket as u64);
        self.configure_active(socket, 1);
        let sock = &mut self.sockets[socket];
        let before = sock.cores[0].cycles();
        f(&mut sock.cores[0]);
        sock.cores[0].fence();
        let delta = sock.cores[0].cycles() - before;
        sock.shared.advance_cycles(delta);
        self.assert_conservation(socket);
    }

    /// Full conservation check of `socket`: per-core stats identities, the
    /// `record_bulk` split, per-channel byte equality against the shadow
    /// books, and counter monotonicity.
    ///
    /// ```text
    /// MBA bytes[ch] == SECTOR_BYTES x shadow transactions[ch] + bulk bytes[ch]
    /// ```
    pub fn verify_socket_conservation(
        &self,
        socket: usize,
    ) -> Result<(), crate::verify::ConservationError> {
        use crate::verify::ConservationError;
        use crate::SECTOR_BYTES;
        use p9_arch::MBA_CHANNELS;

        let sock = &self.sockets[socket];
        let snap = sock.shared.counters.snapshot();
        sock.shared.check_monotonic(&snap)?;

        let bulk = sock.shared.counters.bulk_shadow();
        bulk.check_split()?;

        let mut shadow_reads = [0u64; MBA_CHANNELS];
        let mut shadow_writes = [0u64; MBA_CHANNELS];
        for (i, core) in sock.cores.iter().enumerate() {
            core.verify_conservation(i)?;
            for ch in 0..MBA_CHANNELS {
                shadow_reads[ch] += core.shadow().reads()[ch];
                shadow_writes[ch] += core.shadow().writes()[ch];
            }
        }

        for ch in 0..MBA_CHANNELS {
            let expected = SECTOR_BYTES * shadow_reads[ch] + bulk.read_bytes[ch];
            if snap.read_bytes[ch] != expected {
                return Err(ConservationError::Channel {
                    channel: ch,
                    dir: "read",
                    counter: snap.read_bytes[ch],
                    expected,
                });
            }
            let expected = SECTOR_BYTES * shadow_writes[ch] + bulk.write_bytes[ch];
            if snap.write_bytes[ch] != expected {
                return Err(ConservationError::Channel {
                    channel: ch,
                    dir: "write",
                    counter: snap.write_bytes[ch],
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Panic with the conservation report if `socket`'s books disagree.
    /// Called after every kernel.
    fn assert_conservation(&self, socket: usize) {
        if let Err(e) = self.verify_socket_conservation(socket) {
            panic!("counter conservation violated on socket {socket}: {e}");
        }
    }

    /// Size the L3 share of the cores for an `active`-core workload (the
    /// slice-borrowing model). No-op when unchanged; otherwise O(cores
    /// ever used), not O(socket): a core that never ran has nothing to
    /// flush, and its new share owns no memory until it inserts.
    fn configure_active(&mut self, socket: usize, active: usize) {
        if self.sockets[socket].configured_active == active {
            return;
        }
        let share = self.arch.l3_effective_per_core(socket, active);
        let ways = self.arch.l3_slice.ways;
        let sock = &mut self.sockets[socket];
        for core in &mut sock.cores {
            core.configure_l3(share, ways);
        }
        sock.configured_active = active;
    }

    /// Effective per-core L3 bytes for an `active`-core workload.
    pub fn l3_share(&self, socket: usize, active: usize) -> u64 {
        self.arch.l3_effective_per_core(socket, active)
    }

    /// Write back and drop all cached state on `socket` (between
    /// experiments).
    pub fn flush_socket(&mut self, socket: usize) {
        for core in &mut self.sockets[socket].cores {
            core.flush_caches();
        }
    }

    /// Drop all cached state without traffic (fresh process image).
    pub fn reset_cold(&mut self, socket: usize) {
        for core in &mut self.sockets[socket].cores {
            core.reset_cold();
        }
    }

    /// Direct access to a core (single-threaded trace generation where the
    /// caller manages phase boundaries itself).
    pub fn core_mut(&mut self, socket: usize, core: usize) -> &mut CoreSim {
        &mut self.sockets[socket].cores[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_tiny() -> SimMachine {
        SimMachine::quiet(Machine::tiny(64), 7)
    }

    #[test]
    fn parallel_threads_generate_scaled_traffic() {
        let mut m = quiet_tiny();
        let bytes = 16 * 1024u64;
        let regions: Vec<Region> = (0..4).map(|_| m.alloc(bytes)).collect();
        let shared = m.socket_shared(0);
        let before = shared.counters().snapshot();
        m.run_parallel(0, 4, |tid, core| {
            core.load_seq(regions[tid].base(), bytes);
        });
        let d = shared.counters().snapshot().delta(&before);
        let total = 4 * bytes;
        assert!(d.total_read() >= total);
        assert!(d.total_read() <= total + 4 * 16 * crate::SECTOR_BYTES);
    }

    #[test]
    fn batched_equals_single_times_n_when_quiet() {
        // The batched-factoring shortcut used by the bench harness: with
        // disjoint footprints and all cores active, N threads produce
        // exactly N x the traffic of one thread with the same L3 share.
        let bytes = 32 * 1024u64;

        let mut m1 = quiet_tiny();
        let r: Vec<Region> = (0..4).map(|_| m1.alloc(bytes)).collect();
        let s1 = m1.socket_shared(0);
        m1.run_parallel(0, 4, |tid, core| {
            // Two passes: second exercises cache reuse under the 4-core L3 share.
            core.load_seq(r[tid].base(), bytes);
            core.load_seq(r[tid].base(), bytes);
        });
        let four_thread = s1.counters().total_read();

        let mut m2 = quiet_tiny();
        let r2: Vec<Region> = (0..4).map(|_| m2.alloc(bytes)).collect();
        let s2 = m2.socket_shared(0);
        // One representative core, but configured as if 4 were active.
        m2.run_parallel(0, 4, |tid, core| {
            if tid == 0 {
                core.load_seq(r2[0].base(), bytes);
                core.load_seq(r2[0].base(), bytes);
            }
        });
        let one_thread = s2.counters().total_read();
        // Hashed set placement makes per-buffer conflict misses vary
        // slightly; the factoring identity holds statistically.
        let diff = (four_thread as f64 - 4.0 * one_thread as f64).abs();
        assert!(
            diff / (four_thread as f64) < 0.02,
            "four {four_thread} vs 4x {one_thread}"
        );
    }

    /// A sampler racing 21 streaming cores only ever sees whole sectors,
    /// monotonically, and the books balance afterwards.
    #[test]
    fn concurrent_reader_sees_whole_sectors_monotonically() {
        use crate::{CounterSnapshot, SECTOR_BYTES};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        let mut m = SimMachine::quiet(Machine::summit(), 5);
        let bytes = 1 << 20;
        let regions: Vec<Region> = (0..21).map(|_| m.alloc(2 * bytes)).collect();
        let shared = m.socket_shared(0);
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        let samples = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let (mut prev, mut samples) = (CounterSnapshot::default(), 0u64);
                while !done.load(Ordering::Acquire) {
                    let snap = shared.counters().snapshot();
                    for ch in 0..p9_arch::MBA_CHANNELS {
                        for dir in [Direction::Read, Direction::Write] {
                            let now = snap.channel(ch, dir);
                            assert_eq!(now % SECTOR_BYTES, 0, "torn {dir:?} on channel {ch}");
                            assert!(now >= prev.channel(ch, dir), "{dir:?} {ch} went back");
                        }
                    }
                    prev = snap;
                    samples += 1;
                }
                samples
            });
            start.wait();
            m.run_parallel(0, 21, |tid, core| {
                core.load_seq(regions[tid].base(), bytes);
                core.store_seq(regions[tid].base() + bytes, bytes);
            });
            done.store(true, Ordering::Release);
            reader.join().expect("reader")
        });
        assert!(samples > 0);
        assert!(shared.counters().total_read() >= 21 * bytes);
        m.verify_socket_conservation(0).expect("conserved");
    }

    #[test]
    fn l3_share_depends_on_active_cores() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        assert_eq!(m.l3_share(0, 1), 110 * 1024 * 1024);
        assert!(m.l3_share(0, 21) < 6 * 1024 * 1024);
    }

    #[test]
    fn clock_advances_with_work() {
        let mut m = quiet_tiny();
        let r = m.alloc(64 * 1024);
        let shared = m.socket_shared(0);
        assert_eq!(shared.now_cycles(), 0);
        m.run_single(0, |core| core.load_seq(r.base(), 64 * 1024));
        assert!(shared.now_cycles() > 0);
        let t = shared.now_seconds();
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn noise_injected_only_when_configured() {
        let quiet = SimMachine::quiet(Machine::tiny(64), 3);
        let shared = quiet.socket_shared(0);
        shared.measurement_touch();
        assert_eq!(shared.counters().total_read(), 0);

        let noisy = SimMachine::new(Machine::tiny(64), NoiseConfig::summit(), 3);
        let shared = noisy.socket_shared(0);
        shared.measurement_touch();
        assert!(shared.counters().total_read() > 0);
        assert!(shared.counters().total_write() > 0);
    }

    #[test]
    fn privilege_tokens_follow_machine_kind() {
        assert_eq!(SimMachine::summit(1).user_privilege(), PrivilegeLevel::User);
        assert_eq!(
            SimMachine::tellico(1).user_privilege(),
            PrivilegeLevel::Elevated
        );
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut m = SimMachine::new(Machine::tiny(16), NoiseConfig::summit(), 42);
            let r = m.alloc(128 * 1024);
            let shared = m.socket_shared(0);
            shared.measurement_touch();
            m.run_single(0, |core| core.load_seq(r.base(), 128 * 1024));
            shared.measurement_touch();
            (
                shared.counters().total_read(),
                shared.counters().total_write(),
                shared.now_cycles(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dma_recording() {
        let m = quiet_tiny();
        let shared = m.socket_shared(0);
        shared.record_dma(1_000_000, Direction::Read);
        assert_eq!(shared.counters().total_read(), 1_000_000);
    }
}
