//! Shared helpers for the figure/table regeneration catalog.
//!
//! Every experiment renders a CSV (plus a short header of run parameters)
//! whose rows correspond to the series of one paper figure. `EXPERIMENTS.md` at
//! the repository root records the paper-vs-measured comparison for each.

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

use p9_memsim::SimMachine;
use papi_sim::papi::{setup_node, NodeSetup};

pub mod experiments;
pub mod figures;
pub mod obsreport;
pub mod runner;

/// Minimal `--key value` / `--flag` argument parser (no external deps).
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    pub fn parse() -> Args {
        Args::from_argv(std::env::args().skip(1))
    }

    pub fn from_argv(argv: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let argv: Vec<String> = argv.into_iter().collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    out.pairs.push((key.to_owned(), argv[i + 1].clone()));
                    i += 2;
                } else {
                    out.flags.push(key.to_owned());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        out
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_owned()
    }

    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Every `--key` given, with or without a value — what a binary
    /// checks against the keys it knows.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let pairs = self.pairs.iter().map(|(k, _)| k.as_str());
        pairs.chain(self.flags.iter().map(String::as_str))
    }
}

/// How large a sweep an experiment run covers.
///
/// `Quick` trims every sweep to the sizes that finish in seconds (the
/// golden-figure regression suite and the benchmark's `catalog_quick`
/// workload run here); `Default` is the figures' historical sweep;
/// `Full` extends to the paper's largest problem sizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Quick,
    Default,
    Full,
}

impl Mode {
    /// `--quick` / `--full` flags (default: `Default`). `--quick` wins
    /// when both are given, matching the cheaper interpretation.
    pub fn from_args(args: &Args) -> Mode {
        if args.flag("quick") {
            Mode::Quick
        } else if args.flag("full") {
            Mode::Full
        } else {
            Mode::Default
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Default => "default",
            Mode::Full => "full",
        }
    }
}

/// Which of the paper's systems an experiment models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    Summit,
    Tellico,
}

impl System {
    pub fn from_arg(s: &str) -> System {
        match s {
            "tellico" => System::Tellico,
            _ => System::Summit,
        }
    }

    pub fn machine(self, seed: u64) -> SimMachine {
        match self {
            System::Summit => SimMachine::summit(seed),
            System::Tellico => SimMachine::tellico(seed),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            System::Summit => "summit",
            System::Tellico => "tellico",
        }
    }
}

/// Wire a machine with its PAPI stack.
pub fn node(system: System, seed: u64) -> (SimMachine, NodeSetup) {
    let m = system.machine(seed);
    let setup = setup_node(&m, Vec::new());
    (m, setup)
}

/// The GEMM problem-size sweep used by Figs. 2–4. Full extends to the
/// paper's largest sizes (slower); Quick keeps one point either side of
/// the Eq. 3/4 cache-region bounds so the golden suite still exercises
/// the crossover.
pub fn gemm_sizes_for(mode: Mode) -> Vec<u64> {
    let mut v = match mode {
        Mode::Quick => return vec![64, 96, 128, 192, 256],
        _ => vec![
            64, 96, 128, 192, 256, 320, 384, 448, 512, 640, 768, 896, 1024, 1280, 1536,
        ],
    };
    if mode == Mode::Full {
        v.extend([2048, 2560, 3072]);
    }
    v
}

/// The capped-GEMV output-size sweep of Fig. 5 (square until the capping
/// point at 1280, capped beyond). Quick still crosses the capping point
/// and reaches the write-noise floor around 10⁴.
pub fn gemv_sizes_for(mode: Mode) -> Vec<u64> {
    let mut v = match mode {
        Mode::Quick => return vec![128, 512, 1280, 4096, 16384],
        _ => vec![
            128, 256, 512, 768, 1024, 1280, 2048, 4096, 8192, 16384, 32768, 65536,
        ],
    };
    if mode == Mode::Full {
        v.extend([131_072, 262_144]);
    }
    v
}

/// The FFT problem sizes of Figs. 6–9 (divisible by the 2×4 grid).
pub fn fft_sizes_for(mode: Mode) -> Vec<usize> {
    let mut v = match mode {
        Mode::Quick => return vec![112, 168, 224],
        _ => vec![112, 168, 224, 336, 448, 560, 672, 896],
    };
    if mode == Mode::Full {
        v.extend([1120, 1344]);
    }
    v
}

/// Derive the seed for one sweep point from the experiment's base seed,
/// its tag and a point-local salt (section index × 10⁶ + problem size
/// for the sweeps). Every point builds its own `SimMachine` from this,
/// so points are independent of execution order and of each other —
/// the property the parallel runner's determinism rests on. The mixer
/// is a splitmix64 finalizer over an FNV-folded tag.
pub fn point_seed(base: u64, tag: &str, salt: u64) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1));
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The standard experiment header as a string (the runner composes
/// experiment output from strings so parallel workers never interleave
/// on stdout).
pub fn header_lines(figure: &str, params: &[(&str, String)]) -> String {
    let mut out = format!("# {figure}\n");
    for (k, v) in params {
        out.push_str(&format!("# {k} = {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sorted_and_grid_compatible() {
        for mode in [Mode::Quick, Mode::Default, Mode::Full] {
            let g = gemm_sizes_for(mode);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            let f = fft_sizes_for(mode);
            assert!(f.windows(2).all(|w| w[0] < w[1]));
            // Figs. 6-9 run on a 2x4 grid: sizes must divide.
            assert!(f.iter().all(|n| n % 4 == 0 && n % 2 == 0));
            let v = gemv_sizes_for(mode);
            assert!(v.contains(&figures::GEMV_CAP), "sweep must hit the cap");
        }
    }

    #[test]
    fn system_parsing() {
        assert_eq!(System::from_arg("tellico"), System::Tellico);
        assert_eq!(System::from_arg("summit"), System::Summit);
        assert_eq!(System::from_arg("anything-else"), System::Summit);
        assert_eq!(System::Tellico.name(), "tellico");
    }

    #[test]
    fn node_wiring_matches_system() {
        let (m, setup) = node(System::Tellico, 3);
        assert_eq!(m.arch().node.sockets[0].usable_cores, 16);
        assert!(setup
            .papi
            .component_status()
            .iter()
            .any(|s| s.name == "perf_uncore" && s.enabled));
    }
}
