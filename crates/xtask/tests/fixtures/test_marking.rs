//! Scrubber/test-marking fixture: every unjustified `Ordering::Relaxed`
//! below except the one in `real_code` sits in `#[cfg(test)]`-gated code
//! that line-based detection used to miss — a multi-line attribute,
//! nested test modules, and an attribute sharing its line with the item.

pub fn real_code(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

#[cfg(all(
    test,
    feature = "extra"
))]
mod gated_multiline {
    pub fn helper(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod outer {
    fn a(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    mod nested {
        fn b(c: &AtomicU64) -> u64 {
            c.load(Ordering::Relaxed)
        }
    }
}

#[cfg(test)] mod same_line { pub fn c(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) } }
