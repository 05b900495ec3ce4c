//! `store_rw`: the storage engine alone — writes beside reads beside
//! compaction, so a query win paid for by ingest (or the reverse) shows.
//!
//! 16 counter series sampled at 1 kHz with seeded deltas. Three times,
//! on a fresh `Store::new(StoreConfig::default())`: ingest in 20 equal
//! batches, `flush`, `compact`; on the first store, between flush and
//! compaction, selector queries over 5 % windows at seeded offsets. The
//! program under test receives only the generated samples and windows.

use obs::metrics::ExportSemantics;
use obs::series::Sample;
use store::{chunk, Selector, SeriesData, SeriesKey, Store, StoreConfig};

use crate::harness::{ns_per_call, repeated_setup, timed, Checks, Ctx, EndToEnd, Layers, Rng};
use crate::spans::Recorder;
use crate::stats::{median, median_batch_rate, tail_or_max, Batch};

const SERIES: usize = 16;
/// Samples per series. Fixed, not scaled with `--seconds`: a query walks
/// every chunk entry of the store (33 k of them here, ~7 MB), and at
/// twice this size that walk falls out of this machine's last-level
/// cache, where its latency swings by half between runs of the same
/// code.
const SAMPLES_PER_SERIES: u64 = 500_000;
const CADENCE_NS: u64 = 1_000_000;
const INGEST_BATCHES: u64 = 20;
/// Fresh stores built, queried and compacted per untraced run.
const ROUNDS: usize = 3;
/// 5 %-window queries per round of a nominal-length run.
const QUERIES_PER_ROUND: u64 = 400;
/// Traced run: one round, plus the other window sizes.
const NARROW_QUERIES: u64 = 200;
const WIDE_QUERIES: u64 = 20;
const HEAD_QUERIES: u64 = 100;
/// Ticks left unsealed in the heads for the head queries.
const HEAD_TICKS: u64 = 200;
/// Samples per chunk in the codec micro-measurement: the engine's own
/// default chunk size.
const CHUNK_SAMPLES: usize = 240;

/// Generated inputs: per-series counter increments and the query plan.
struct Inputs {
    keys: Vec<SeriesKey>,
    deltas: Vec<Vec<u16>>,
    /// `(series, index of the first sample in the window)` per query.
    windows: Vec<(usize, u64)>,
    samples: u64,
    window: u64,
}

impl Inputs {
    fn total(&self) -> u64 {
        self.samples * SERIES as u64
    }
}

fn t_of(index: u64) -> u64 {
    (index + 1) * CADENCE_NS
}

fn generate(ctx: &Ctx) -> Inputs {
    let samples = SAMPLES_PER_SERIES;
    let window = samples / 20;
    let mut values = Rng::new(ctx.stream_seed(5));
    let deltas = (0..SERIES)
        .map(|_| (0..samples).map(|_| values.below(4096) as u16).collect())
        .collect();
    let mut offsets = Rng::new(ctx.stream_seed(6));
    let queries = ROUNDS as u64 * ctx.scaled(QUERIES_PER_ROUND);
    let windows = (0..queries)
        .map(|_| {
            (
                offsets.below(SERIES as u64) as usize,
                offsets.below(samples - window + 1),
            )
        })
        .collect();
    let keys = (0..SERIES)
        .map(|s| {
            SeriesKey::new(format!("mba.ch{}.bytes", s % 8)).with_label("host", format!("h{s}"))
        })
        .collect();
    Inputs {
        keys,
        deltas,
        windows,
        samples,
        window,
    }
}

/// Ingest ticks `from..to` of every series, fleet-interleaved like a
/// sampling scheduler. Returns how many ingests failed.
fn ingest(store: &Store, inputs: &Inputs, values: &mut [u64; SERIES], from: u64, to: u64) -> u64 {
    let mut failed = 0;
    for i in from..to {
        let t_ns = t_of(i);
        for (s, key) in inputs.keys.iter().enumerate() {
            values[s] += u64::from(inputs.deltas[s][i as usize]);
            failed += u64::from(
                store
                    .ingest(key, ExportSemantics::Counter, t_ns, values[s])
                    .is_err(),
            );
        }
    }
    failed
}

fn selector(series: usize) -> Selector {
    Selector::metric("mba.*").with_label("host", format!("h{series}"))
}

/// A query result must be exactly the generated window: one series, the
/// right number of rows, strictly increasing timestamps on the sampling
/// grid, and a value range equal to the sum of the generated deltas.
fn window_is_exact(
    hit: &[SeriesData],
    inputs: &Inputs,
    series: usize,
    first: u64,
    rows: u64,
) -> bool {
    let [data] = hit else { return false };
    let s = &data.samples;
    if s.len() as u64 != rows || data.key != inputs.keys[series] {
        return false;
    }
    let on_grid = s
        .iter()
        .enumerate()
        .all(|(k, sample)| sample.t_ns == t_of(first + k as u64));
    let grown: u64 = inputs.deltas[series][first as usize + 1..(first + rows) as usize]
        .iter()
        .map(|&d| u64::from(d))
        .sum();
    on_grid && s[s.len() - 1].value - s[0].value == grown
}

/// Query `rows` samples of `series` starting at sample `first`.
fn query(store: &Store, series: usize, first: u64, rows: u64) -> Result<Vec<SeriesData>, String> {
    store
        .query(&selector(series), t_of(first), t_of(first + rows - 1))
        .map_err(|e| e.to_string())
}

pub fn untraced(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let (inputs, setups) = repeated_setup(3, || generate(ctx));
    e2e.setups_s = setups;
    let per_batch = inputs.samples / INGEST_BATCHES;
    let queries = inputs.windows.len() / ROUNDS;
    let (mut ingests, mut flush_s, mut compact_s) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let store = Store::new(StoreConfig::default());
        let mut values = [0u64; SERIES];
        for b in 0..INGEST_BATCHES {
            let from = b * per_batch;
            let (failed, s) =
                timed(|| ingest(&store, &inputs, &mut values, from, from + per_batch));
            let work = per_batch * SERIES as u64;
            ingests.push(Batch {
                work: work as f64,
                seconds: s,
            });
            checks.tally(work, failed, "ingests");
        }
        let (flushed, s) = timed(|| store.flush());
        flush_s.push(s);
        checks.result("flush", flushed);
        checks.check(store.sample_count() == inputs.total(), || {
            format!(
                "store holds {} of {} samples",
                store.sample_count(),
                inputs.total()
            )
        });
        // Every timed query runs against the first store, built on a
        // fresh heap: on a store built after another was dropped, the
        // same queries measured up to a fifth slower (the entry walk is
        // memory-bound and inherits the heap's fragmentation), which is
        // the allocator's history and not the store's speed.
        if round == 0 {
            for &(series, first) in &inputs.windows {
                let hit = e2e.op(|| query(&store, series, first, inputs.window));
                let exact = matches!(&hit, Ok(h) if window_is_exact(h, &inputs, series, first, inputs.window));
                checks.check(exact, || {
                    format!("query series {series} from sample {first}: wrong window")
                });
            }
        }
        let (compacted, s) = timed(|| store.compact(t_of(inputs.samples)));
        compact_s.push(s);
        checks.result("compact", compacted);
        checks.check(store.sample_count() == inputs.total(), || {
            format!(
                "compaction changed the sample count to {}",
                store.sample_count()
            )
        });
        let (series, first) = inputs.windows[round];
        let after = query(&store, series, first, inputs.window);
        checks.check(
            matches!(&after, Ok(h) if window_is_exact(h, &inputs, series, first, inputs.window)),
            || "query after compaction: wrong window".into(),
        );
    }
    // Work is samples ingested; ops are queries. The fixed work is one
    // round — build, flush, a third of the queries, compact — with every
    // phase at its median, so compaction is in `wall_s` beside the other
    // two.
    e2e.work_per_s = median_batch_rate(&ingests);
    let ingest_s: Vec<f64> = ingests.iter().map(|b| b.seconds).collect();
    e2e.wall_s = median(&ingest_s) * INGEST_BATCHES as f64
        + median(&flush_s)
        + median(&e2e.op_us) / 1e6 * queries as f64
        + median(&compact_s);
    e2e
}

/// The traced run's query driver: seeded windows against one store.
struct Queries<'a> {
    store: &'a Store,
    inputs: &'a Inputs,
    rng: Rng,
}

impl Queries<'_> {
    /// Time `count` queries of `rows` rows, each under a span called
    /// `name`, starting at seeded samples within `firsts`; returns every
    /// latency in microseconds.
    fn run(
        &mut self,
        name: &'static str,
        count: u64,
        rows: u64,
        firsts: std::ops::Range<u64>,
        checks: &mut Checks,
        rec: &mut Recorder,
    ) -> Vec<f64> {
        (0..count)
            .map(|i| {
                let series = self.rng.below(SERIES as u64) as usize;
                let first = firsts.start + self.rng.below(firsts.end - firsts.start);
                let (hit, s) = rec.timed(name, i, || query(self.store, series, first, rows));
                let exact =
                    matches!(&hit, Ok(h) if window_is_exact(h, self.inputs, series, first, rows));
                checks.check(exact, || {
                    format!("{name}: series {series} from sample {first}: wrong window")
                });
                s * 1e6
            })
            .collect()
    }
}

pub fn traced(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Layers {
    let mut layers = Layers::default();
    let inputs = rec.span("store_rw.generate", 0, || generate(ctx));
    let store = Store::new(StoreConfig::default());
    let mut values = [0u64; SERIES];
    let mut queries = Queries {
        store: &store,
        inputs: &inputs,
        rng: Rng::new(ctx.stream_seed(7)),
    };

    // Writes: all but the last HEAD_TICKS ticks in timed batches, then
    // the rest, so the heads hold an unsealed tail for the head queries.
    let sealed_ticks = inputs.samples - HEAD_TICKS;
    let per_batch = sealed_ticks / INGEST_BATCHES;
    let mut ingest_ns = Vec::new();
    for b in 0..INGEST_BATCHES {
        let from = b * per_batch;
        let (failed, s) = rec.timed("store.ingest", b, || {
            ingest(&store, &inputs, &mut values, from, from + per_batch)
        });
        let work = per_batch * SERIES as u64;
        checks.tally(work, failed, "ingests");
        ingest_ns.push(s * 1e9 / work as f64);
    }
    layers.set("store.ingest_ns_per_sample", median(&ingest_ns));
    let done = INGEST_BATCHES * per_batch;
    let failed = ingest(&store, &inputs, &mut values, done, inputs.samples);
    checks.tally(
        (inputs.samples - done) * SERIES as u64,
        failed,
        "tail ingests",
    );
    let head = queries.run(
        "store.query_head",
        HEAD_QUERIES,
        HEAD_TICKS / 2,
        sealed_ticks..sealed_ticks + HEAD_TICKS / 2,
        checks,
        rec,
    );
    layers.set("store.query_head_p50_us", median(&head));

    let (flushed, s) = rec.timed("store.flush", 0, || store.flush());
    checks.result("flush", flushed);
    layers.set("store.flush_ms", s * 1e3);
    checks.check(store.sample_count() == inputs.total(), || {
        format!(
            "store holds {} of {} samples",
            store.sample_count(),
            inputs.total()
        )
    });
    let stats = store.stats();
    layers.set("store.sealed_bytes", stats.compressed_bytes as f64);
    layers.set(
        "store.bytes_per_sample",
        stats.compressed_bytes as f64 / inputs.total() as f64,
    );
    layers.set(
        "store.compression_ratio",
        store.compression_ratio().unwrap_or(0.0),
    );

    // Reads, at three window sizes.
    let mut sized = |name, count, rows| {
        queries.run(name, count, rows, 0..inputs.samples - rows + 1, checks, rec)
    };
    let standard = sized(
        "store.query",
        ctx.scaled(QUERIES_PER_ROUND) / 2,
        inputs.window,
    );
    let narrow = sized("store.query_narrow", NARROW_QUERIES, inputs.samples / 200);
    let wide = sized("store.query_wide", WIDE_QUERIES, inputs.samples / 4);
    let query_s = median(&standard) / 1e6;
    layers.set("store.query_p50_us", median(&standard));
    layers.set("store.query_p95_us", tail_or_max(&standard, 0.95));
    layers.set("store.query_narrow_p50_us", median(&narrow));
    layers.set("store.query_narrow_p90_us", tail_or_max(&narrow, 0.90));
    layers.set("store.query_wide_p50_us", median(&wide));
    layers.set(
        "store.query_ns_per_row",
        query_s * 1e9 / inputs.window as f64,
    );
    layers.set("store.query_rows_per_s", inputs.window as f64 / query_s);

    // Compaction.
    let (compacted, s) = rec.timed("store.compact", 0, || store.compact(t_of(inputs.samples)));
    layers.set("store.compact_s", s);
    if let Some(c) = checks.result("compact", compacted) {
        layers.set(
            "store.compact_ns_per_chunk",
            s * 1e9 / c.chunks_rewritten.max(1) as f64,
        );
        layers.set("store.chunks_rewritten", c.chunks_rewritten as f64);
        layers.set("store.segments_before", c.segments_before as f64);
        layers.set("store.segments_after", c.segments_after as f64);
    }
    checks.check(store.sample_count() == inputs.total(), || {
        format!(
            "compaction changed the sample count to {}",
            store.sample_count()
        )
    });

    // The chunk codec alone, on one chunk's worth of series 0.
    let mut value = 0u64;
    let samples: Vec<Sample> = (0..CHUNK_SAMPLES as u64)
        .map(|i| {
            value += u64::from(inputs.deltas[0][i as usize]);
            Sample {
                t_ns: t_of(i),
                value,
            }
        })
        .collect();
    let open = rec.begin("store.chunk_codec", 0);
    let encode_ns = ns_per_call(20, 500, || {
        std::hint::black_box(chunk::encode(&samples).ok());
    });
    if let Some(encoded) = checks.result("encode chunk", chunk::encode(&samples)) {
        let decode_ns = ns_per_call(20, 500, || {
            std::hint::black_box(encoded.samples().ok());
        });
        checks.check(encoded.samples().as_deref() == Ok(&samples[..]), || {
            "chunk does not decode to its samples".into()
        });
        layers.set(
            "store.chunk_decode_ns_per_sample",
            decode_ns / CHUNK_SAMPLES as f64,
        );
    }
    rec.end(open);
    layers.set(
        "store.chunk_encode_ns_per_sample",
        encode_ns / CHUNK_SAMPLES as f64,
    );
    layers
}
