//! Source rules no compiler pass keeps, over every `.rs` file under
//! `src/`, `examples/` and `crates/*/src`. `//` comment lines and
//! top-level `#[cfg(test)]` items are skipped: each runs from a line that
//! is exactly `#[cfg(test)]` to the next line that is exactly `}`, the
//! shape `cargo fmt` gives it. A file off its pin prints every site.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Where `Ordering::Relaxed` may appear, and why relaxed is enough there.
/// Every event tally goes through `obs::Counter`, which argues it once.
#[rustfmt::skip] // one row per line: these are tables
const RELAXED: &[(&str, usize, &str)] = &[
    ("crates/obs/src/metrics.rs", 10, "Counter/Gauge/Histogram cells: independent statistics, exact once writers are quiescent"),
    ("crates/obs/src/trace.rs", 6, "ring indices each written by one side only, a drop tally, unique-id handouts"),
    ("crates/bench/src/runner.rs", 1, "job tickets: the claimed job itself moves through its Mutex"),
];

/// Reads of the socket-wide nest counters outside `crates/memsim` and
/// `crates/pcp`, which implement the privilege boundary, and why each
/// needs no `PrivilegeToken`.
#[rustfmt::skip]
const PRIVILEGED: &[(&str, usize, &str)] = &[
    ("crates/bench/src/experiments.rs", 3, "catalog points read the counters of the quiet machine they built and own"),
    ("crates/bench/src/figures.rs", 2, "the sweep driver is the node's operator; it reads the handle its PAPI stack opened with an elevated token"),
    ("crates/kernels/src/measure.rs", 2, "the harness drives the run through the handle its event set opened with an elevated token"),
    ("crates/papi/src/components/uncore/pmu.rs", 1, "elevation was proven at open(), which takes a &PrivilegeToken; the handle is the witness, as a perf fd is"),
];

/// A scanned line: file from the repo root, 1-based number, text.
type Line = (String, usize, String);

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn scan() -> Vec<Line> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let mut dirs = vec![root.join("src"), root.join("examples")];
    dirs.extend(crates.flatten().map(|c| c.path().join("src")));
    let mut files = Vec::new();
    dirs.iter().for_each(|dir| rust_files(dir, &mut files));
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let file = path.strip_prefix(root).expect("under root").display();
        let text = std::fs::read_to_string(&path).expect("source");
        let mut in_test = false;
        for (i, line) in text.lines().enumerate() {
            in_test |= line == "#[cfg(test)]";
            if !in_test && !line.trim_start().starts_with("//") {
                out.push((file.to_string(), i + 1, line.to_string()));
            }
            in_test &= line != "}";
        }
    }
    out
}

/// Fails unless each file has exactly its pinned number of lines that
/// `hit` accepts (none for a file without a pin).
fn check(pins: &[(&str, usize, &str)], what: &str, hit: impl Fn(&Line) -> bool) {
    let hits: Vec<Line> = scan().into_iter().filter(|l| hit(l)).collect();
    let hit_files = hits.iter().map(|l| l.0.as_str());
    let files: BTreeSet<&str> = pins.iter().map(|p| p.0).chain(hit_files).collect();
    let mut bad = Vec::new();
    for file in files {
        let here: Vec<&Line> = hits.iter().filter(|l| l.0 == file).collect();
        let pinned = pins.iter().find(|p| p.0 == file).map_or(0, |p| p.1);
        if here.len() != pinned {
            bad.push(format!("{file}: {} found, {pinned} pinned", here.len()));
            for (f, n, text) in here {
                bad.push(format!("{f}:{n}: {}", text.trim()));
            }
        }
    }
    let bad = bad.join("\n");
    assert!(bad.is_empty(), "{what} sites off their pins:\n{bad}");
}

#[test]
fn relaxed_ordering_stays_in_the_pinned_files() {
    let relaxed = |l: &Line| l.2.contains("Ordering::Relaxed");
    check(RELAXED, "Ordering::Relaxed", relaxed);
}

#[test]
fn nest_counter_reads_outside_the_privilege_boundary_are_pinned() {
    let boundary = ["crates/memsim/", "crates/pcp/"];
    check(PRIVILEGED, "nest-counter read", |(file, _, text)| {
        !boundary.iter().any(|b| file.starts_with(b))
            && (text.contains(".counters()") || text.contains(".counters_arc()"))
    });
}

#[test]
fn every_global_registry_metric_has_a_call_site() {
    let md = include_str!("../METRICS.md");
    let table = md.split("## Global registry").nth(1).expect("the section");
    let mut calls = Vec::new();
    let rows = table.lines().take_while(|l| !l.starts_with("## "));
    for row in rows.filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        calls.push(format!("{}!(\"{}\")", cells[2], cells[1].trim_matches('`')));
    }
    let rows = calls.len();
    let code: String = scan().into_iter().map(|l| l.2 + "\n").collect();
    calls.retain(|call| !code.contains(call.as_str()));
    assert!(rows >= 20, "the table has only {rows} rows");
    assert!(calls.is_empty(), "catalogued, never registered: {calls:?}");
}
