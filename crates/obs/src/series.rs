//! One timestamped observation of a scalar metric. A window of history
//! is a `&[Sample]`, oldest first: the [`crate::derive`] functions read
//! one, a live [`crate::Monitor`] keeps one per watched metric, and a
//! store query returns one per matched series.

/// One observation of a scalar metric at a caller-supplied time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Caller-supplied timestamp in nanoseconds (simulated or wall).
    pub t_ns: u64,
    /// The scalar value at that time.
    pub value: u64,
}
