//! Rules 5–6 must fire on their seeded fixtures — and stay silent on the
//! clean one.

use xtask::lint::{lint_concurrency, lint_concurrency_full, Rule};

const GOOD_LOCKS: &str = include_str!("fixtures/good_locks.rs");
const BAD_CYCLE: &str = include_str!("fixtures/bad_lock_cycle.rs");
const BAD_BLOCKING: &str = include_str!("fixtures/bad_blocking.rs");

fn one(name: &str, src: &str) -> Vec<(String, String)> {
    vec![(name.to_string(), src.to_string())]
}

#[test]
fn clean_hierarchy_reports_nothing() {
    let (v, w) = lint_concurrency_full(&one("fixtures/good_locks.rs", GOOD_LOCKS));
    assert!(v.is_empty(), "{v:?}");
    // The third-party lock waiver is inventoried.
    assert!(
        w.iter().any(|w| w.tag == "lock-ok"),
        "lock-ok waiver missing from {w:?}"
    );
}

#[test]
fn missing_annotation_inversion_and_cycle_all_fire() {
    let v = lint_concurrency(&one("fixtures/bad_lock_cycle.rs", BAD_CYCLE));
    assert!(
        v.iter().all(|x| x.rule == Rule::LockOrder),
        "all findings are rule 5: {v:?}"
    );

    // The unannotated static.
    assert!(
        v.iter()
            .any(|x| x.line == 7 && x.msg.contains("lacks a lock-rank annotation")),
        "{v:?}"
    );
    // demo.2 held while demo.1 is acquired.
    assert!(
        v.iter().any(|x| x.line == 19
            && x.msg.contains("inversion")
            && x.msg.contains("demo.1")
            && x.msg.contains("demo.2")),
        "{v:?}"
    );
    // The seeded A→B / B→A cycle, with the offending edge path and the
    // full graph rendered into the message.
    let cycle = v
        .iter()
        .find(|x| x.msg.starts_with("lock-acquisition cycle detected"))
        .unwrap_or_else(|| panic!("no cycle finding in {v:?}"));
    assert!(cycle.msg.contains("x.1 -> y.1"), "{}", cycle.msg);
    assert!(cycle.msg.contains("y.1 -> x.1"), "{}", cycle.msg);
    assert!(
        cycle.msg.contains("full lock-acquisition graph:"),
        "{}",
        cycle.msg
    );
    assert_eq!(v.len(), 3, "{v:?}");
}

#[test]
fn guard_across_recv_and_transitive_sleep_fire() {
    let (v, w) = lint_concurrency_full(&one("fixtures/bad_blocking.rs", BAD_BLOCKING));
    let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
    assert_eq!(rules, vec![Rule::BlockingUnderLock; 2], "{v:?}");
    let lines: Vec<_> = v.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![20, 26], "{v:?}");
    // The direct case names the blocking call, the transitive one the
    // callee it reached the sleep through.
    assert!(v[0].msg.contains("recv"), "{v:?}");
    assert!(v[1].msg.contains("settle"), "{v:?}");
    // `good_dropped` and `waived` stay silent; the waiver is inventoried.
    assert!(
        w.iter().any(|w| w.tag == "blocking-ok" && w.line == 39),
        "{w:?}"
    );
}

#[test]
fn call_edges_cross_files() {
    // File A holds its ranked lock while calling into file B, which
    // acquires a lower rank of the same namespace: an inversion the
    // analyzer can only see by following the workspace call.
    let a = r#"
use std::sync::Mutex;
// lock-rank: pair.2 — inner lock held around the cross-file call.
static INNER: Mutex<u32> = Mutex::new(0);
pub fn caller() -> u32 {
    let g = INNER.lock().unwrap();
    reenter();
    *g
}
"#;
    let b = r#"
use std::sync::Mutex;
// lock-rank: pair.1 — outer lock, must never be taken under pair.2.
static OUTER: Mutex<u32> = Mutex::new(0);
pub fn reenter() -> u32 {
    let g = OUTER.lock().unwrap();
    *g
}
"#;
    let v = lint_concurrency(&[
        ("a.rs".to_string(), a.to_string()),
        ("b.rs".to_string(), b.to_string()),
    ]);
    assert!(
        v.iter().any(|x| x.file == "a.rs"
            && x.rule == Rule::LockOrder
            && x.msg.contains("inversion")
            && x.msg.contains("via call")
            && x.msg.contains("reenter")),
        "{v:?}"
    );
}

#[test]
fn reacquisition_of_the_same_lock_is_reported() {
    let src = r#"
use std::sync::Mutex;
// lock-rank: solo.1 — fixture lock.
static ONE: Mutex<u32> = Mutex::new(0);
pub fn twice() -> u32 {
    let a = ONE.lock().unwrap();
    let b = ONE.lock().unwrap();
    *a + *b
}
"#;
    let v = lint_concurrency(&one("re.rs", src));
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].msg.contains("reacquiring"), "{v:?}");
}

#[test]
fn statement_scoped_guard_does_not_leak() {
    // An unbound `.lock()` lives only to the end of its statement; the
    // blocking call on the next line is clean.
    let src = r#"
use std::sync::Mutex;
// lock-rank: tmp.1 — fixture lock.
static COUNT: Mutex<u32> = Mutex::new(0);
pub fn bump(rx: &std::sync::mpsc::Receiver<u32>) -> u32 {
    *COUNT.lock().unwrap() += 1;
    rx.recv().unwrap_or(0)
}
"#;
    let v = lint_concurrency(&one("stmt.rs", src));
    assert!(v.is_empty(), "{v:?}");
}
