//! Property test: `SetAssocCache` against a naive reference LRU model.
//!
//! Using a single-set configuration (capacity = ways × 64 B), every
//! sector maps to the same set, so the packed/rotating implementation can
//! be compared operation-by-operation against an obviously correct
//! `Vec`-based LRU list with dirty flags. The op alphabet includes the
//! states lazy allocation adds: every probe runs on a cache that was
//! never inserted into, and on one that was flushed and is reused.

use proptest::prelude::*;

use p9_memsim::cache::{Evicted, SetAssocCache};

/// The oracle: most-recent-first list of (sector, dirty).
#[derive(Default)]
struct RefLru {
    ways: usize,
    list: Vec<(u64, bool)>,
}

impl RefLru {
    fn new(ways: usize) -> Self {
        RefLru {
            ways,
            list: Vec::new(),
        }
    }

    fn access(&mut self, sector: u64, mark_dirty: bool) -> bool {
        if let Some(pos) = self.list.iter().position(|&(s, _)| s == sector) {
            let (s, d) = self.list.remove(pos);
            self.list.insert(0, (s, d || mark_dirty));
            true
        } else {
            false
        }
    }

    fn insert(&mut self, sector: u64, dirty: bool) -> Evicted {
        assert!(self.list.iter().all(|&(s, _)| s != sector));
        self.list.insert(0, (sector, dirty));
        if self.list.len() > self.ways {
            let (s, d) = self.list.pop().unwrap();
            if d {
                Evicted::Dirty(s)
            } else {
                Evicted::Clean(s)
            }
        } else {
            Evicted::None
        }
    }

    fn insert_mid(&mut self, sector: u64, dirty: bool) -> Evicted {
        assert!(self.list.iter().all(|&(s, _)| s != sector));
        // Mid position over the full way count, matching the implementation
        // (empty tail slots count as positions).
        let evicted = if self.list.len() >= self.ways {
            let (s, d) = self.list.pop().unwrap();
            Some(if d {
                Evicted::Dirty(s)
            } else {
                Evicted::Clean(s)
            })
        } else {
            None
        };
        let mid = (self.ways / 2).min(self.list.len());
        self.list.insert(mid, (sector, dirty));
        evicted.unwrap_or(Evicted::None)
    }

    fn touch_dirty(&mut self, sector: u64) -> bool {
        for e in self.list.iter_mut() {
            if e.0 == sector {
                e.1 = true;
                return true;
            }
        }
        false
    }

    fn remove(&mut self, sector: u64) -> Option<bool> {
        let pos = self.list.iter().position(|&(s, _)| s == sector)?;
        Some(self.list.remove(pos).1)
    }

    /// Drop everything, returning the dirty sectors (sorted).
    fn flush(&mut self) -> Vec<u64> {
        let dirty = self.dirty_set();
        self.list.clear();
        dirty
    }

    fn dirty_set(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .list
            .iter()
            .filter(|&&(_, d)| d)
            .map(|&(s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }
}

#[derive(Clone, Debug)]
enum Op {
    Access(u64, bool),
    Insert(u64, bool),
    InsertMid(u64, bool),
    TouchDirty(u64),
    Remove(u64),
    Contains(u64),
    /// Re-access whatever is most recent (the way-0 fast path, which must
    /// still set the dirty bit).
    AccessMru(bool),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Small sector universe so collisions and evictions are common.
    let sec = 0u64..24;
    prop_oneof![
        (sec.clone(), any::<bool>()).prop_map(|(s, d)| Op::Access(s, d)),
        (sec.clone(), any::<bool>()).prop_map(|(s, d)| Op::Insert(s, d)),
        (sec.clone(), any::<bool>()).prop_map(|(s, d)| Op::InsertMid(s, d)),
        sec.clone().prop_map(Op::TouchDirty),
        sec.clone().prop_map(Op::Remove),
        any::<bool>().prop_map(Op::AccessMru),
        // A flush now and then — about every other case, so LRU depth
        // still builds up — and a probe otherwise.
        sec.prop_map(|s| if s == 0 { Op::Flush } else { Op::Contains(s) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_cache_matches_reference_lru(
        ways in 1usize..12,
        ops in prop::collection::vec(op_strategy(), 1..200)
    ) {
        // Single set: capacity = ways sectors.
        let mut cache = SetAssocCache::new(ways as u64 * 64, ways);
        prop_assume!(cache.sets() == 1);
        let mut oracle = RefLru::new(ways);

        for op in ops {
            match op {
                Op::Access(s, d) => {
                    prop_assert_eq!(cache.access(s, d), oracle.access(s, d));
                }
                Op::Insert(s, d) => {
                    // Both models require absence before insert.
                    if oracle.access(s, false) {
                        prop_assert!(cache.access(s, false));
                        continue;
                    }
                    prop_assert_eq!(cache.insert(s, d), oracle.insert(s, d));
                }
                Op::InsertMid(s, d) => {
                    if oracle.access(s, false) {
                        prop_assert!(cache.access(s, false));
                        continue;
                    }
                    prop_assert_eq!(cache.insert_mid(s, d), oracle.insert_mid(s, d));
                }
                Op::TouchDirty(s) => {
                    prop_assert_eq!(cache.touch_dirty(s), oracle.touch_dirty(s));
                }
                Op::Remove(s) => {
                    prop_assert_eq!(cache.remove(s), oracle.remove(s));
                }
                Op::Contains(s) => {
                    let present = oracle.list.iter().any(|&(r, _)| r == s);
                    prop_assert_eq!(cache.contains(s), present);
                }
                Op::AccessMru(d) => {
                    let Some(&(mru, _)) = oracle.list.first() else { continue };
                    prop_assert_eq!(cache.access(mru, d), oracle.access(mru, d));
                }
                Op::Flush => {
                    let mut dirty = Vec::new();
                    cache.flush(|s| dirty.push(s));
                    dirty.sort_unstable();
                    prop_assert_eq!(dirty, oracle.flush());
                    prop_assert_eq!(cache.resident(), 0);
                }
            }
        }

        // Final state agreement: same resident count, same dirty set.
        prop_assert_eq!(cache.resident(), oracle.list.len());
        let mut dirty = Vec::new();
        cache.flush(|s| dirty.push(s));
        dirty.sort_unstable();
        prop_assert_eq!(dirty, oracle.dirty_set());
    }
}
