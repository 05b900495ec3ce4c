//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! The only task so far is [`lint`]: the repo-specific static-analysis
//! pass described in DESIGN.md §8.1.

pub mod lint;
