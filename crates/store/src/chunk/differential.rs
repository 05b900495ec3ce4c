//! The chunk decoder against the one it replaced. [`oracle`] is the
//! byte-at-a-time `walk` and `get_varint` of format version 1, copied
//! verbatim; on seeded valid chunks, every truncation of them and over
//! a hundred thousand single-byte mutations, [`walk`] must visit the
//! same samples in the same order and end with the same result, typed
//! error included. `samples_in` must be the filtered full decode on
//! windows that meet the chunk's edges.

use super::*;

/// Format version 1's decoder, as it was before the fast path.
mod oracle {
    use crate::StoreError;
    use obs::series::Sample;

    #[inline]
    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Decode a LEB128 varint at `pos`, advancing it.
    #[inline]
    pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = bytes.get(*pos) else {
                return Err(StoreError::Corrupt("varint runs past end of chunk"));
            };
            *pos += 1;
            if shift >= 63 && byte > 1 {
                return Err(StoreError::Corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(StoreError::Corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Decode a chunk payload, handing each sample to `visit` oldest first
    /// until it returns `false` or the payload ends. A walk that runs to the
    /// end also validates that nothing trails the last sample.
    pub(super) fn walk(
        bytes: &[u8],
        mut visit: impl FnMut(Sample) -> bool,
    ) -> Result<(), StoreError> {
        let mut pos = 0usize;
        let count = get_varint(bytes, &mut pos)?;
        if count == 0 {
            return Err(StoreError::Corrupt("chunk encodes zero samples"));
        }
        if count > bytes.len() as u64 {
            // Each encoded sample costs at least two bytes after the first;
            // a count beyond the payload size is corruption, not data.
            return Err(StoreError::Corrupt("chunk count exceeds payload size"));
        }
        let mut t = get_varint(bytes, &mut pos)?;
        let mut v = get_varint(bytes, &mut pos)?;
        if !visit(Sample { t_ns: t, value: v }) {
            return Ok(());
        }
        let mut dt = 0i64;
        for _ in 1..count {
            let dod = unzigzag(get_varint(bytes, &mut pos)?);
            dt = dt.wrapping_add(dod);
            let step =
                u64::try_from(dt).map_err(|_| StoreError::Corrupt("negative timestamp delta"))?;
            if step == 0 {
                return Err(StoreError::Corrupt("zero timestamp delta"));
            }
            t = t
                .checked_add(step)
                .ok_or(StoreError::Corrupt("timestamp overflows u64"))?;
            v ^= get_varint(bytes, &mut pos)?;
            if !visit(Sample { t_ns: t, value: v }) {
                return Ok(());
            }
        }
        if pos != bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after last sample"));
        }
        Ok(())
    }
}

/// xorshift64*: seeded, so every run tests the same inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value of a seeded bit width: varints of every length.
    fn wide(&mut self) -> u64 {
        let bits = self.below(65) as u32;
        self.next().checked_shr(64 - bits).unwrap_or(0)
    }
}

fn s(t_ns: u64, value: u64) -> Sample {
    Sample { t_ns, value }
}

/// A strictly increasing run of `n` samples whose timestamp steps and
/// value XORs are drawn `narrow` (one-byte varints), or at any width.
fn run(rng: &mut Rng, n: usize, narrow: bool) -> Vec<Sample> {
    let (mut t, mut v) = (rng.below(1 << 40), rng.next());
    (0..n)
        .map(|_| {
            let step = if narrow {
                1 + rng.below(60)
            } else {
                1 + rng.wide() % (1 << 48)
            };
            t += step;
            v ^= if narrow { rng.below(128) } else { rng.wide() };
            s(t, v)
        })
        .collect()
}

/// The shapes the format pin covers, plus seeded runs of every length
/// from 1 to 40 at three widths, so the last pair to take the fast path
/// starts at every distance from the payload's end around its window.
fn inputs() -> Vec<Vec<Sample>> {
    let max_gap = MAX_GAP_NS;
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut value = 0u64;
    let mut all = vec![
        (0..240u64)
            .map(|i| {
                value += rng.below(4096);
                s((i + 1) * 1_000_000, value)
            })
            .collect(),
        (0..60u64)
            .map(|i| s((i + 1) * 1_000_000 + rng.below(1_000), rng.next()))
            .collect(),
        vec![
            s(1, 10),
            s(1 + max_gap, 11),
            s(2 + max_gap, 12),
            s(4 + max_gap, 13),
        ],
        vec![s(0, 0), s(max_gap, 1), s(2 * max_gap, 2), s(u64::MAX, 3)],
        vec![
            s(10, (1 << 53) - 1),
            s(20, 1 << 53),
            s(30, (1 << 53) + 1),
            s(40, u64::MAX),
            s(50, u64::MAX - 1),
            s(60, 0),
            s(70, 1 << 63),
        ],
        vec![s(42, u64::MAX)],
        vec![s(u64::MAX, 0)],
    ];
    for n in 1..=40 {
        all.push(run(&mut rng, n, true));
        all.push(run(&mut rng, n, false));
        let mut mixed = run(&mut rng, n, true);
        if let Some(last) = mixed.last_mut() {
            last.value = !last.value;
        }
        all.push(mixed);
    }
    all
}

/// Decode `bytes` with both decoders, each visitor stopping after
/// `stop_after` samples, and require the same visits and result.
fn agree(bytes: &[u8], stop_after: usize, what: &str) {
    let mut want = Vec::new();
    let want_end = oracle::walk(bytes, |s| {
        want.push(s);
        want.len() < stop_after
    });
    let mut got = Vec::new();
    let got_end = walk(bytes, |s| {
        got.push(s);
        got.len() < stop_after
    });
    assert!(
        (&got, &got_end) == (&want, &want_end),
        "{what}: {bytes:02x?}\n  got {got_end:?} after {got:?}\n want {want_end:?} after {want:?}"
    );
    // The segment path derives a chunk's header by the same walk.
    if stop_after == usize::MAX {
        let header = Chunk::from_bytes(bytes.to_vec()).map(|c| (c.min_t(), c.max_t(), c.count()));
        let expected = want_end.map(|()| {
            let (first, last) = (want[0].t_ns, want[want.len() - 1].t_ns);
            (first, last, want.len() as u32)
        });
        assert_eq!(header, expected, "{what} header: {bytes:02x?}");
    }
}

#[test]
fn the_fast_path_visits_and_fails_exactly_like_the_checked_decoder() {
    let mut rng = Rng(0x0123_4567_89ab_cdef);
    let mut mutations = 0u64;
    let mut edge_distances = std::collections::BTreeSet::new();
    for samples in inputs() {
        let chunk = encode(&samples).unwrap();
        let good = chunk.bytes();
        // Where each delta pair starts (the count is one byte here), as
        // distances from the end: 20 and 21 are the last the fast path
        // may take, 19 the first it must leave to the checked one.
        if samples.len() < 128 {
            for k in 1..samples.len() {
                let start = encode(&samples[..k]).unwrap().bytes().len();
                edge_distances.insert(good.len() - start);
            }
        }
        agree(good, usize::MAX, "valid");
        agree(
            good,
            1 + rng.below(samples.len() as u64) as usize,
            "stopped early",
        );
        for n in 0..good.len() {
            agree(&good[..n], usize::MAX, "truncated");
        }
        let mut long = good.to_vec();
        long.push(rng.below(256) as u8);
        agree(&long, usize::MAX, "trailing byte");
        let per_byte = if samples.len() > 100 { 2 } else { 48 };
        let mut hostile = good.to_vec();
        for at in 0..good.len() {
            for k in 0..per_byte {
                let flip = match k {
                    0 => 0x80,
                    1 => 0x7f,
                    _ => 1 + rng.below(255) as u8,
                };
                hostile[at] ^= flip;
                agree(&hostile, usize::MAX, "mutated");
                hostile[at] ^= flip;
                mutations += 1;
            }
        }
    }
    assert!(mutations >= 100_000, "only {mutations} mutations");
    for d in [19, 20, 21] {
        assert!(
            edge_distances.contains(&d),
            "no pair starts {d} bytes from the end"
        );
    }
}

#[test]
fn windows_on_chunk_edges_are_the_filtered_full_decode() {
    let mut rng = Rng(0xfeed_f00d_dead_beef);
    for samples in inputs() {
        let chunk = Chunk::from_bytes(encode(&samples).unwrap().bytes().to_vec()).unwrap();
        let (lo, hi) = (chunk.min_t(), chunk.max_t());
        let mid = samples[samples.len() / 2].t_ns;
        let windows = [
            (lo, hi),
            (lo, u64::MAX),
            (0, hi),
            (lo, lo),
            (hi, hi),
            (0, lo),
            (hi, u64::MAX),
            (lo.saturating_add(1), hi),
            (lo, hi.saturating_sub(1)),
            (lo, mid),
            (mid, hi),
            (hi, lo),
            (mid.saturating_add(1), mid),
            (rng.below(hi.max(1)), rng.below(hi.max(1))),
        ];
        for (from, to) in windows {
            let mut want = vec![s(7, 7)];
            oracle::walk(chunk.bytes(), |p| {
                if p.t_ns >= from && p.t_ns <= to {
                    want.push(p);
                }
                true
            })
            .unwrap();
            let mut got = vec![s(7, 7)];
            chunk.samples_in(from, to, &mut got).unwrap();
            assert_eq!(got, want, "window [{from}, {to}] of {samples:?}");
        }
    }
}
