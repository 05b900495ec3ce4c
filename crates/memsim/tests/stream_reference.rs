//! Property test: `PrefetchEngine` against a naive reference stream table.
//!
//! The engine checks its most-recently-matched slot before scanning a
//! fixed array and hands back a lazily expanded prefetch window. The
//! oracle below is the same four rules written the obvious way — one
//! plain scan over a `Vec`, recency looked up rather than cached, prefetch
//! targets in a `Vec` — and the two are compared access by access on
//! generated interleavings of sequential, strided (both directions),
//! same-sector-repeat and random accesses.

use proptest::prelude::*;

use p9_memsim::prefetch::{
    PrefetchEngine, CONFIRMATIONS, PREFETCH_DEPTH, STALE_AFTER, STREAM_SLOTS,
};

/// Largest sector delta a stream may adopt as its stride (1 MiB).
const MAX_STRIDE: i64 = (1 << 20) / 64;

struct RefStream {
    last: i64,
    /// 0 = no hypothesis yet.
    stride: i64,
    confirms: u32,
    touched: u64,
    /// Strides ahead of `last` already prefetched.
    covered: i64,
}

impl RefStream {
    fn new(last: i64, stride: i64, confirms: u32, touched: u64) -> Self {
        RefStream {
            last,
            stride,
            confirms,
            touched,
            covered: 0,
        }
    }
}

#[derive(Default)]
struct RefEngine {
    streams: Vec<RefStream>,
    clock: u64,
}

impl RefEngine {
    fn observe(&mut self, sector: u64) -> Vec<u64> {
        self.clock += 1;
        let (sector, clock) = (sector as i64, self.clock);
        let n = self.streams.len();

        // Rules 1 and 2, most recently touched stream first (it wins
        // ties), then table order.
        let mut order: Vec<usize> = (0..n).collect();
        if let Some(mru) = (0..n).max_by_key(|&i| self.streams[i].touched) {
            order.insert(0, mru);
        }
        for i in order {
            let s = &mut self.streams[i];
            if s.last == sector {
                s.touched = clock;
                return Vec::new();
            }
            if s.stride != 0 && sector - s.last == s.stride {
                s.last = sector;
                s.touched = clock;
                s.confirms += 1;
                if s.confirms < u32::from(CONFIRMATIONS) {
                    return Vec::new();
                }
                // The stream moved one stride, so one stride less is
                // covered; prefetch from there out to the full depth.
                let depth = PREFETCH_DEPTH as i64;
                let covered = (s.covered - 1).max(0);
                s.covered = depth;
                return (covered + 1..=depth)
                    .map(|k| sector + s.stride * k)
                    .filter(|&target| target >= 0)
                    .map(|target| target as u64)
                    .collect();
            }
        }

        // Rule 3: the closest stream in range (first wins ties) adopts the
        // delta if it has no stride yet or is unconfirmed and this is tighter.
        let closest = (0..n)
            .filter(|&i| (sector - self.streams[i].last).abs() <= MAX_STRIDE)
            .min_by_key(|&i| (sector - self.streams[i].last).abs());
        if let Some(i) = closest {
            let s = &mut self.streams[i];
            let delta = sector - s.last;
            let unconfirmed = s.confirms < u32::from(CONFIRMATIONS);
            if s.stride == 0 || (unconfirmed && delta.abs() < s.stride.abs()) {
                *s = RefStream::new(sector, delta, 1, clock);
                return Vec::new();
            }
        }

        // Rule 4: a fresh candidate, replacing the least recently touched
        // stream once the table is full.
        let fresh = RefStream::new(sector, 0, 0, clock);
        if n < STREAM_SLOTS {
            self.streams.push(fresh);
        } else {
            let lru = (0..n).min_by_key(|&i| self.streams[i].touched).unwrap();
            self.streams[lru] = fresh;
        }
        Vec::new()
    }

    fn confirmed(s: &RefStream) -> bool {
        s.confirms >= u32::from(CONFIRMATIONS)
    }

    fn stride_stream_active(&self) -> bool {
        self.streams.iter().any(|s| {
            Self::confirmed(s) && s.stride.abs() > 1 && self.clock - s.touched < STALE_AFTER
        })
    }

    fn sequential_stream_at(&self, sector: u64) -> bool {
        self.streams
            .iter()
            .any(|s| Self::confirmed(s) && s.stride.abs() == 1 && s.last == sector as i64)
    }
}

/// One access pattern; several are interleaved into a case.
#[derive(Clone, Debug)]
enum Run {
    /// `base ± i * stride` (stride 1 = sequential), cut off below sector 0.
    Strided {
        base: u64,
        stride: u64,
        down: bool,
        len: u64,
    },
    /// A sequential walk touching every sector `times` times in a row.
    Dwell { base: u64, times: u64, len: u64 },
    /// Scattered sectors, mostly further apart than any adoptable stride.
    /// Long ones outlast `STALE_AFTER` and recycle the whole table.
    Random { seed: u64, len: u64 },
}

impl Run {
    fn sectors(&self) -> Vec<u64> {
        match *self {
            Run::Strided {
                base,
                stride,
                down,
                len,
            } => {
                let step = if down {
                    -(stride as i64)
                } else {
                    stride as i64
                };
                (0..len as i64)
                    .map(|i| base as i64 + i * step)
                    .take_while(|&s| s >= 0)
                    .map(|s| s as u64)
                    .collect()
            }
            Run::Dwell { base, times, len } => (0..len).map(|i| base + i / times).collect(),
            Run::Random { seed, len } => {
                let mut x = seed | 1;
                (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                        x >> 40
                    })
                    .collect()
            }
        }
    }
}

fn run_strategy() -> impl Strategy<Value = Run> {
    // A small base universe so separate runs cross each other's positions:
    // that is what makes two streams match one access (the tie the most
    // recently touched one wins) and contend for the same table entries.
    let base = 0u64..(1 << 10);
    prop_oneof![
        (base.clone(), 1u64..80).prop_map(|(base, len)| Run::Strided {
            base,
            stride: 1,
            down: false,
            len
        }),
        (base.clone(), 1u64..300, any::<bool>(), 1u64..60).prop_map(|(base, stride, down, len)| {
            Run::Strided {
                base,
                stride,
                down,
                len,
            }
        }),
        (base, 2u64..6, 1u64..60).prop_map(|(base, times, len)| Run::Dwell { base, times, len }),
        (any::<u64>(), 1u64..60).prop_map(|(seed, len)| Run::Random { seed, len }),
        (any::<u64>(), STALE_AFTER..STALE_AFTER + 200)
            .prop_map(|(seed, len)| Run::Random { seed, len }),
    ]
}

/// Merge the runs into one access sequence: `picks` (cycled) chooses which
/// unfinished run supplies the next access.
fn interleave(runs: &[Vec<u64>], picks: &[usize]) -> Vec<u64> {
    let mut cursor = vec![0usize; runs.len()];
    let mut out = Vec::new();
    for step in 0.. {
        let live: Vec<usize> = (0..runs.len())
            .filter(|&i| cursor[i] < runs[i].len())
            .collect();
        if live.is_empty() {
            break;
        }
        let lane = live[picks[step % picks.len()] % live.len()];
        out.push(runs[lane][cursor[lane]]);
        cursor[lane] += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_reference_stream_table(
        runs in prop::collection::vec(run_strategy(), 1..6),
        picks in prop::collection::vec(0usize..8, 1..24),
    ) {
        let runs: Vec<Vec<u64>> = runs.iter().map(Run::sectors).collect();
        let mut engine = PrefetchEngine::new();
        let mut oracle = RefEngine::default();

        for (i, sector) in interleave(&runs, &picks).into_iter().enumerate() {
            let got: Vec<u64> = engine.observe(sector).sectors().collect();
            let want = oracle.observe(sector);
            prop_assert!(
                got == want,
                "access {} ({}): prefetches {:?}, reference {:?}", i, sector, got, want
            );
            prop_assert_eq!(
                engine.stride_stream_active(),
                oracle.stride_stream_active(),
                "access {} ({}): stride-active diverges", i, sector
            );
            for at in [sector.saturating_sub(1), sector, sector + 1] {
                prop_assert_eq!(
                    engine.sequential_stream_at(at),
                    oracle.sequential_stream_at(at),
                    "access {} ({}): sequential-at {} diverges", i, sector, at
                );
            }
        }
    }
}
