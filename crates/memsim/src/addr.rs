//! Virtual address-space management for trace generation.
//!
//! Workload kernels do not need backing memory to exercise the cache
//! simulator — only addresses. [`AddressSpace`] hands out page-aligned,
//! non-overlapping [`Region`]s that kernels index exactly the way the real
//! code would index its arrays. Very large problem sizes (e.g. the 4.8 GB
//! per-rank FFT pencils of Fig. 10) can thus be traced without allocating
//! host memory.

/// Alignment of fresh regions. 64 KiB pages, matching the large base pages
/// commonly configured on POWER9 Linux.
pub const REGION_ALIGN: u64 = 64 * 1024;

/// A contiguous virtual allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    base: u64,
    len: u64,
}

impl Region {
    /// Starting byte address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the region has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of the `i`-th element of `elem_bytes`-sized elements.
    ///
    /// Panics (in debug builds) if the element lies outside the region —
    /// trace generators indexing out of bounds are bugs.
    #[inline(always)]
    pub fn elem(&self, i: u64, elem_bytes: u64) -> u64 {
        debug_assert!(
            (i + 1) * elem_bytes <= self.len,
            "element {i} x {elem_bytes}B out of region of {} bytes",
            self.len
        );
        self.base + i * elem_bytes
    }

    /// Sub-region view: `offset` bytes in, `len` bytes long.
    pub fn slice(&self, offset: u64, len: u64) -> Region {
        assert!(offset + len <= self.len, "slice out of bounds");
        Region {
            base: self.base + offset,
            len,
        }
    }

    /// One past the last byte address.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// A bump allocator over a simulated virtual address space.
///
/// Regions never overlap and are aligned so that distinct arrays never share
/// a cache sector (sharing would create false reuse in the cache model).
#[derive(Debug)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// A fresh address space. The first allocation starts above the zero
    /// page so that address 0 is never valid.
    pub fn new() -> Self {
        AddressSpace { next: REGION_ALIGN }
    }

    /// Allocate `len` bytes.
    pub fn alloc(&mut self, len: u64) -> Region {
        let base = self.next;
        let len_rounded = round_up(len.max(1), REGION_ALIGN);
        self.next = base + len_rounded;
        Region { base, len }
    }

    /// Allocate room for `n` elements of `elem_bytes` each.
    pub fn alloc_elems(&mut self, n: u64, elem_bytes: u64) -> Region {
        self.alloc(n * elem_bytes)
    }

    /// Total bytes of address space handed out so far (including alignment
    /// padding).
    pub fn footprint(&self) -> u64 {
        self.next - REGION_ALIGN
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(100);
        let b = asp.alloc(REGION_ALIGN + 1);
        let c = asp.alloc(1);
        assert!(a.end() <= b.base());
        assert!(b.end() <= c.base());
        assert_eq!(a.base() % REGION_ALIGN, 0);
        assert_eq!(b.base() % REGION_ALIGN, 0);
        assert_eq!(c.base() % REGION_ALIGN, 0);
    }

    #[test]
    fn element_addressing() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc_elems(16, 8);
        assert_eq!(a.elem(0, 8), a.base());
        assert_eq!(a.elem(15, 8), a.base() + 120);
        assert_eq!(a.len(), 128);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(64);
        let _ = a.slice(32, 64);
    }

    #[test]
    fn footprint_tracks_allocations() {
        let mut asp = AddressSpace::new();
        assert_eq!(asp.footprint(), 0);
        asp.alloc(1);
        assert_eq!(asp.footprint(), REGION_ALIGN);
        asp.alloc(2 * REGION_ALIGN);
        assert_eq!(asp.footprint(), 3 * REGION_ALIGN);
    }
}
