//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! The only task so far is [`lint`]: the repo-specific static-analysis pass
//! described in DESIGN.md §8 (rules 1–4) and §13 (the cross-line
//! concurrency rules 5–6, built on the token layer in `tokens` and the
//! lock-order/blocking analyzer in `conc`).

pub mod lint;

pub(crate) mod conc;
pub(crate) mod tokens;
