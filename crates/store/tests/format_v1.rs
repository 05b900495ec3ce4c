//! Format version 1, pinned byte for byte in both directions: fixed
//! sample sets encode to exactly these chunk bytes, one flushed segment
//! file has exactly this length and FNV-1a digest, and the pinned bytes
//! decode back to the samples they came from. A codec change that moves
//! a single byte fails here, whatever else it keeps working.

use std::sync::Arc;

use obs::metrics::ExportSemantics;
use obs::series::Sample;
use store::chunk::{self, Chunk};
use store::{segment, Selector, SeriesKey, Store, StoreConfig};

/// The widest gap a chunk can encode (`i64::MAX` ns).
const MAX_GAP_NS: u64 = i64::MAX as u64;

fn s(t_ns: u64, value: u64) -> Sample {
    Sample { t_ns, value }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every shape the codec must keep stable, with the bytes it encodes to.
fn pinned() -> Vec<(&'static str, Vec<Sample>, &'static str)> {
    vec![
        (
            "fixed cadence",
            (0..8u64)
                .map(|i| s(1_000_000 + i * 250_000, 7_000 + 3 * i * i))
                .collect(),
            "08c0843dd836a0c21e03003f001700fb01002b0067002f",
        ),
        (
            "jittered timestamps",
            vec![
                s(1_000, 5),
                s(2_003, 9),
                s(2_998, 9),
                s(4_500, 130),
                s(4_501, 131),
                s(9_000_000, 70_000),
                s(9_000_777, 1),
            ],
            "07e80705d60f0c0f00f6078b01b91701d48aca08f3a304c3fec908f1a204",
        ),
        (
            "gap near MAX_GAP_NS",
            vec![
                s(1, 10),
                s(1 + MAX_GAP_NS, 11),
                s(2 + MAX_GAP_NS, 12),
                s(4 + MAX_GAP_NS, 13),
            ],
            "04010afeffffffffffffffff0101fbffffffffffffffff01070201",
        ),
        (
            "values around 2^53 and u64::MAX",
            vec![
                s(10, (1 << 53) - 1),
                s(20, 1 << 53),
                s(30, (1 << 53) + 1),
                s(40, u64::MAX),
                s(50, u64::MAX - 1),
                s(60, 0),
                s(70, 1 << 63),
            ],
            "070affffffffffffff0f14ffffffffffffff1f000100feffffffffffffefff01000100feffffffffffffffff010080808080808080808001",
        ),
        ("one sample", vec![s(42, u64::MAX)], "012affffffffffffffffff01"),
    ]
}

#[test]
fn sample_sets_encode_to_the_pinned_chunk_bytes_and_back() {
    for (name, samples, want) in pinned() {
        let chunk = chunk::encode(&samples).expect("ordered run encodes");
        assert_eq!(hex(chunk.bytes()), want, "{name}: encoded bytes");
        let back = Chunk::from_bytes(unhex(want)).expect("pinned bytes decode");
        assert_eq!(back.samples().expect("decode"), samples, "{name}");
        assert_eq!(
            (back.min_t(), back.max_t(), back.count() as usize),
            (
                samples[0].t_ns,
                samples[samples.len() - 1].t_ns,
                samples.len()
            ),
            "{name}: header"
        );
    }
}

#[test]
fn a_flushed_segment_has_the_pinned_length_and_digest() {
    let store = Store::new(StoreConfig {
        chunk_samples: 4,
        segment_bytes: 1 << 20,
        retention_ns: None,
    });
    let sets = pinned();
    let keys: Vec<SeriesKey> = sets
        .iter()
        .enumerate()
        .map(|(i, _)| SeriesKey::new(format!("pin.m{}", i % 2)).with_label("set", format!("{i}")))
        .collect();
    // Interleaved like a sampling scheduler, so the flush orders them.
    let longest = sets.iter().map(|(_, samples, _)| samples.len()).max();
    for i in 0..longest.unwrap_or(0) {
        for (key, (_, samples, _)) in keys.iter().zip(&sets) {
            if let Some(p) = samples.get(i) {
                store
                    .ingest(key, ExportSemantics::Counter, p.t_ns, p.value)
                    .expect("ingest");
            }
        }
    }
    store.flush().expect("flush");
    let names = store.fs().list();
    let [name] = &names[..] else {
        panic!("expected one segment file, got {names:?}")
    };
    let file = store.fs().read(name).expect("listed file reads");
    assert_eq!(
        (name.as_str(), file.len(), fnv1a(&file)),
        ("seg-00000000.pseg", 299, 0xcda6_2af8_e8b9_940c),
        "segment name, length and FNV-1a digest"
    );

    // The file decodes back to every series, sample for sample.
    let copy: Arc<[u8]> = file.to_vec().into();
    let seg = segment::decode(name, &copy).expect("segment decodes");
    for (i, (key, (set, samples, _))) in keys.iter().zip(&sets).enumerate() {
        let mut got = Vec::new();
        for e in seg.entries().iter().filter(|e| &e.key == key) {
            got.extend(e.chunk.samples().expect("chunk decodes"));
        }
        assert_eq!(&got, samples, "{set}: segment round trip");
        let queried = store
            .query(
                &Selector::metric("pin.*").with_label("set", format!("{i}")),
                0,
                u64::MAX,
            )
            .expect("query");
        assert_eq!(queried[0].samples, *samples, "{set}: query");
    }
}
