//! Rules 5 and 6: whole-workspace lock-order and no-blocking-under-lock.
//!
//! Built on [`crate::tokens`] (a delimiter-matched token stream over the
//! scrubbed code view). The analysis is deliberately name-based and
//! conservative — no type inference, no external crates:
//!
//! **Rule 5 (lock-order).** Every `Mutex<...>`/`RwLock<...>` declaration
//! in the analyzed crates must carry a `// lock-rank: <ns>.<N>`
//! annotation binding the declared name (field, static, or fn-return
//! accessor) to a rank. The analyzer tracks guard bindings
//! (`let g = x.lock()...` lives to end of enclosing block, `drop(g)`,
//! or consumption by `Condvar::wait*`; bare `x.lock()...` expressions
//! live to end of statement), records every rank acquired while a guard
//! is live — including transitively through direct calls to workspace
//! `fn`s whose name is unique — and fails on (a) same-namespace rank
//! inversions (held rank N acquiring M <= N, which also catches
//! reacquisition) and (b) any cycle in the global rank graph, rendered
//! edge-by-edge in the error.
//!
//! **Rule 6 (no-blocking-under-lock).** While a guard is live, any
//! blocking call — `recv`/`recv_timeout`/`recv_deadline`, `join`,
//! `accept`, socket/stream I/O (`read`, `read_exact`, `read_to_end`,
//! `write_all`, `flush`), `sleep`, `connect`, `Condvar::wait*` — is
//! flagged, directly or through a uniquely-resolved workspace call,
//! unless the site carries `// blocking-ok: <why>`. A `Condvar::wait*`
//! that consumes the tracked guard ends the guard instead (the wait
//! atomically releases it); the enclosing fn is still marked blocking
//! for its callers.
//!
//! Known limitations (documented in DESIGN.md §13): calls through
//! trait objects / non-unique fn names are not followed; a guard
//! rebound from a `Condvar::wait` result is not re-tracked; closures
//! are attributed to the enclosing fn.

use crate::lint::{annotation_text, Rule, Violation, Waiver};
use crate::tokens::{block_end, stmt_end, tokenize, Tok};
use std::collections::{BTreeMap, BTreeSet};

/// Metric/trace macros that take the named lock internally (via the
/// registry / ring-registration path). Only applies when the mapped
/// binding name actually carries a lock-rank in the analyzed set.
const MACRO_LOCKS: &[(&str, &str)] = &[
    ("counter", "entries"),
    ("gauge", "entries"),
    ("histogram", "entries"),
    ("span", "RINGS"),
    ("instant", "RINGS"),
];

/// Method names never followed as workspace calls in `Type::m(...)`,
/// `x.m(...)` and `self.field.m(...)` form: std/container vocabulary
/// that would otherwise collide with same-named workspace fns.
const DENY_METHODS: &[&str] = &[
    "clone",
    "flush",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "next",
    "take",
    "get",
    "read",
    "write",
    "send",
    "lock",
    "try_lock",
    "min",
    "max",
    "sum",
    "snapshot",
    "stats",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "drain",
    "map",
    "filter",
    "find",
    "collect",
    "join",
    "recv",
    "matches",
    "elapsed",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "into_inner",
    "to_owned",
    "to_string",
    "to_vec",
    "as_bytes",
    "new",
    "default",
    "with_capacity",
    "insert",
    "wait",
    "wait_timeout",
    "wait_while",
    "notify_one",
    "notify_all",
    "spawn",
    "retain",
    "keys",
    "values",
    "cloned",
    "rev",
    "chain",
    "split",
    "trim",
    "parse",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "borrow",
    "as_ref",
    "as_mut",
    "take_mut",
];

/// Additionally denied for plain `x.m(...)` receivers (no `self.` or
/// type path to disambiguate): names common on std containers that are
/// also bona-fide workspace fns.
const DENY_METHODS_UNTYPED: &[&str] = &[
    "remove", "store", "load", "set", "add", "inc", "record", "observe", "key", "value", "count",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "impl", "pub", "use", "mod",
    "as", "in", "move", "ref", "else", "unsafe", "where", "crate", "self", "Self", "super",
    "break", "continue", "static", "const", "type", "struct", "enum", "trait", "dyn", "mut",
    "Some", "Ok", "Err", "None", "Box", "assert",
];

/// Blocking methods in `.m(...)` form. `true` = only when the argument
/// list is empty (distinguishes `rx.recv()` from e.g. `Vec::recv`-less
/// noise and `w.flush()` from nothing).
const BLOCKING_METHODS: &[(&str, bool)] = &[
    ("recv", true),
    ("recv_timeout", false),
    ("recv_deadline", false),
    ("join", true),
    ("accept", true),
    ("flush", true),
    ("wait", false),
    ("wait_timeout", false),
    ("wait_while", false),
    ("read", false),
    ("read_exact", false),
    ("read_to_end", false),
    ("write_all", false),
];

const WAIT_FAMILY: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Blocking free/path calls: `thread::sleep(..)`, `TcpStream::connect(..)`.
const BLOCKING_CALLEES: &[&str] = &["sleep", "connect"];

#[derive(Debug, Clone)]
struct Decl {
    name: String,
    ns: String,
    rank: u32,
    file: usize,
    line: usize, // 0-based
}

#[derive(Debug, Clone)]
struct AcqEvent {
    lock: String,
    tok: usize,
    line: usize,
    /// True for macro-implied acquisitions (`counter!` → `entries`),
    /// which only count when the mapped name actually carries a rank.
    mac: bool,
}

#[derive(Debug, Clone)]
struct CallEvent {
    callee: String,
    tok: usize,
    line: usize,
}

#[derive(Debug, Clone)]
struct BlockEvent {
    desc: String,
    tok: usize,
    line: usize,
    /// Identifier arguments, for `Condvar::wait*` guard consumption.
    wait_args: Vec<String>,
}

#[derive(Debug, Clone)]
struct GuardEvent {
    lock: String,
    bind: Option<String>,
    /// First token index inside the guard's live region.
    start: usize,
    /// Scope end (exclusive) before drop/wait truncation.
    scope_end: usize,
}

#[derive(Debug, Clone)]
struct DropEvent {
    arg: String,
    tok: usize,
}

#[derive(Debug, Default)]
struct FnUnit {
    name: String,
    acqs: Vec<AcqEvent>,
    unranked: Vec<(usize, usize, Option<String>)>, // (tok, line, receiver)
    calls: Vec<CallEvent>,
    blocks: Vec<BlockEvent>,
    guards: Vec<GuardEvent>,
    drops: Vec<DropEvent>,
}

struct FileScan {
    rel: String,
    scrub: crate::lint::Scrubbed,
    decls: Vec<Decl>,
    units: Vec<FnUnit>,
    bad_decls: Vec<(usize, String)>, // (line, msg)
}

/// Run rules 5 and 6 over `(rel_path, source)` pairs. Returns the
/// violations plus every waiver (`lock-ok`, `blocking-ok`) that was
/// actually used to suppress a finding.
pub(crate) fn check(files: &[(String, String)]) -> (Vec<Violation>, Vec<Waiver>) {
    let scans: Vec<FileScan> = files
        .iter()
        .enumerate()
        .map(|(idx, (rel, src))| scan_file(idx, rel, src))
        .collect();

    let mut violations = Vec::new();
    let mut waivers = Vec::new();

    // ---- rank table -------------------------------------------------
    let mut ranks: BTreeMap<String, Decl> = BTreeMap::new();
    for scan in &scans {
        for (line, msg) in &scan.bad_decls {
            violations.push(viol(&scan.rel, *line, msg.clone()));
        }
        for d in &scan.decls {
            match ranks.get(&d.name) {
                None => {
                    ranks.insert(d.name.clone(), d.clone());
                }
                Some(prev) if prev.ns == d.ns && prev.rank == d.rank => {}
                Some(prev) => {
                    violations.push(viol(
                        &scan.rel,
                        d.line,
                        format!(
                            "conflicting lock-rank for `{}`: {}.{} here vs {}.{} at {}:{}",
                            d.name,
                            d.ns,
                            d.rank,
                            prev.ns,
                            prev.rank,
                            scans[prev.file].rel,
                            prev.line + 1
                        ),
                    ));
                }
            }
        }
    }

    // ---- fn name resolution (unique bodied fns only) ----------------
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, scan) in scans.iter().enumerate() {
        for (ui, u) in scan.units.iter().enumerate() {
            if !u.name.starts_with('<') {
                by_name.entry(u.name.as_str()).or_default().push((fi, ui));
            }
        }
    }
    let resolve = |name: &str| -> Option<(usize, usize)> {
        match by_name.get(name) {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    };

    // ---- fixpoint fn summaries --------------------------------------
    // Per-(file, unit): locks acquired (name -> provenance) and, if the
    // fn may block, why.
    type Summary = (BTreeMap<String, String>, Option<String>);
    let mut sums: BTreeMap<(usize, usize), Summary> = BTreeMap::new();
    for (fi, scan) in scans.iter().enumerate() {
        for (ui, u) in scan.units.iter().enumerate() {
            let mut r = BTreeMap::new();
            for a in &u.acqs {
                r.entry(a.lock.clone())
                    .or_insert_with(|| format!("acquired at {}:{}", scan.rel, a.line + 1));
            }
            let b = u
                .blocks
                .first()
                .map(|b| format!("{} at {}:{}", b.desc, scan.rel, b.line + 1));
            sums.insert((fi, ui), (r, b));
        }
    }
    let keys: Vec<(usize, usize)> = sums.keys().copied().collect();
    for _ in 0..=keys.len() {
        let mut changed = false;
        for &(fi, ui) in &keys {
            let calls = scans[fi].units[ui].calls.clone();
            for c in &calls {
                let Some(target) = resolve(&c.callee) else {
                    continue;
                };
                if target == (fi, ui) {
                    continue;
                }
                let (tr, tb) = sums.get(&target).cloned().unwrap_or_default();
                let entry = sums.get_mut(&(fi, ui)).expect("summary exists");
                for (lock, prov) in tr {
                    entry.0.entry(lock).or_insert_with(|| {
                        changed = true;
                        clip(&format!("via `{}`: {}", c.callee, prov))
                    });
                }
                if entry.1.is_none() {
                    if let Some(why) = tb {
                        entry.1 = Some(clip(&format!("calls `{}`: {}", c.callee, why)));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- per-guard evaluation ---------------------------------------
    // Edge: (from lock, to lock) -> (file rel, line, detail).
    let mut edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();
    for scan in &scans {
        for u in &scan.units {
            // Unresolvable receivers plus resolved names with no rank
            // anywhere in the workspace: both need a rank or a waiver.
            let loose = u
                .unranked
                .iter()
                .map(|(_, line, recv)| (*line, recv.clone()))
                .chain(
                    u.acqs
                        .iter()
                        .filter(|a| !a.mac && !ranks.contains_key(&a.lock))
                        .map(|a| (a.line, Some(a.lock.clone()))),
                );
            for (line, recv) in loose {
                if let Some((why, wl)) = annotation_text(&scan.scrub, line, "lock-ok:") {
                    waivers.push(Waiver {
                        file: scan.rel.clone(),
                        line: wl + 1,
                        tag: "lock-ok".into(),
                        why,
                    });
                    continue;
                }
                let what = match recv {
                    Some(n) => {
                        format!(".lock() on `{n}`, which carries no `// lock-rank:` annotation")
                    }
                    None => "cannot resolve the receiver of this .lock()".into(),
                };
                violations.push(viol(
                    &scan.rel,
                    line,
                    format!("{what}; annotate the declaration or waive with `// lock-ok: <why>`"),
                ));
            }
            for g in &u.guards {
                let Some(held) = ranks.get(&g.lock) else {
                    continue;
                };
                let end = effective_end(g, u);
                let within = |t: usize| t >= g.start && t < end;
                for a in u.acqs.iter().filter(|a| within(a.tok)) {
                    let Some(to) = ranks.get(&a.lock) else {
                        continue;
                    };
                    record_edge(
                        &mut edges,
                        &mut violations,
                        held,
                        to,
                        &g.lock,
                        &a.lock,
                        &scan.rel,
                        a.line,
                        None,
                    );
                }
                for c in u.calls.iter().filter(|c| within(c.tok)) {
                    let Some(target) = resolve(&c.callee) else {
                        continue;
                    };
                    let (tr, tb) = sums.get(&target).cloned().unwrap_or_default();
                    for (lock, prov) in &tr {
                        let Some(to) = ranks.get(lock) else { continue };
                        record_edge(
                            &mut edges,
                            &mut violations,
                            held,
                            to,
                            &g.lock,
                            lock,
                            &scan.rel,
                            c.line,
                            Some(&format!("`{}` ({})", c.callee, prov)),
                        );
                    }
                    if let Some(why) = tb {
                        blocking_finding(
                            &mut violations,
                            &mut waivers,
                            scan,
                            c.line,
                            &format!("call to `{}` may block ({})", c.callee, clip(&why)),
                            &g.lock,
                            held,
                        );
                    }
                }
                for b in u.blocks.iter().filter(|b| within(b.tok)) {
                    blocking_finding(
                        &mut violations,
                        &mut waivers,
                        scan,
                        b.line,
                        &format!("blocking call {}", b.desc),
                        &g.lock,
                        held,
                    );
                }
            }
        }
    }

    // ---- cycle detection over rank keys -----------------------------
    if let Some(v) = find_cycle(&edges, &ranks) {
        violations.push(v);
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    waivers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (violations, waivers)
}

fn viol(rel: &str, line0: usize, msg: String) -> Violation {
    Violation {
        file: rel.to_string(),
        line: line0 + 1,
        rule: Rule::LockOrder,
        msg,
    }
}

fn clip(s: &str) -> String {
    if s.len() > 160 {
        let mut cut = 157;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &s[..cut])
    } else {
        s.to_string()
    }
}

fn key_of(d: &Decl) -> String {
    format!("{}.{}", d.ns, d.rank)
}

#[allow(clippy::too_many_arguments)]
fn record_edge(
    edges: &mut BTreeMap<(String, String), (String, usize, String)>,
    violations: &mut Vec<Violation>,
    held: &Decl,
    to: &Decl,
    held_name: &str,
    to_name: &str,
    rel: &str,
    line: usize,
    via: Option<&str>,
) {
    let detail = match via {
        Some(v) => format!("holding `{held_name}`, via call to {v}"),
        None => format!("holding `{held_name}`, acquires `{to_name}`"),
    };
    edges
        .entry((held_name.to_string(), to_name.to_string()))
        .or_insert_with(|| (rel.to_string(), line, detail));
    if held.ns == to.ns && to.rank <= held.rank {
        let what = if held_name == to_name {
            format!(
                "lock-order inversion: reacquiring `{held_name}` ({}) while it is already held",
                key_of(held)
            )
        } else {
            format!(
                "lock-order inversion: acquiring `{to_name}` ({}) while holding `{held_name}` ({}); ranks within a namespace must strictly increase",
                key_of(to),
                key_of(held)
            )
        };
        let what = match via {
            Some(v) => format!("{what}; via call to {v}"),
            None => what,
        };
        violations.push(viol(rel, line, what));
    }
}

fn blocking_finding(
    violations: &mut Vec<Violation>,
    waivers: &mut Vec<Waiver>,
    scan: &FileScan,
    line: usize,
    what: &str,
    held_name: &str,
    held: &Decl,
) {
    if let Some((why, wl)) = annotation_text(&scan.scrub, line, "blocking-ok:") {
        waivers.push(Waiver {
            file: scan.rel.clone(),
            line: wl + 1,
            tag: "blocking-ok".into(),
            why,
        });
        return;
    }
    violations.push(Violation {
        file: scan.rel.clone(),
        line: line + 1,
        rule: Rule::BlockingUnderLock,
        msg: format!(
            "{what} while holding `{held_name}` ({}); drop the guard first or waive with `// blocking-ok: <why>`",
            key_of(held)
        ),
    });
}

fn effective_end(g: &GuardEvent, u: &FnUnit) -> usize {
    let mut end = g.scope_end;
    if let Some(bind) = &g.bind {
        for d in &u.drops {
            if d.tok > g.start && d.tok < end && &d.arg == bind {
                end = d.tok;
            }
        }
        for b in &u.blocks {
            if b.tok > g.start && b.tok < end && b.wait_args.iter().any(|a| a == bind) {
                end = b.tok;
            }
        }
    }
    end
}

/// DFS over the `ns.N` rank-key graph; first cycle found is rendered
/// with per-edge provenance plus the whole acquisition graph.
fn find_cycle(
    edges: &BTreeMap<(String, String), (String, usize, String)>,
    ranks: &BTreeMap<String, Decl>,
) -> Option<Violation> {
    // Collapse lock-name edges onto rank keys; remember one witness per
    // key edge (first in BTreeMap order = deterministic).
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut witness: BTreeMap<(String, String), (String, String, usize, String)> = BTreeMap::new();
    for ((from, to), (rel, line, detail)) in edges {
        let (Some(df), Some(dt)) = (ranks.get(from), ranks.get(to)) else {
            continue;
        };
        let (kf, kt) = (key_of(df), key_of(dt));
        if kf == kt {
            continue; // self-loops are reported as inversions already
        }
        graph.entry(kf.clone()).or_default().insert(kt.clone());
        graph.entry(kt.clone()).or_default();
        witness.entry((kf, kt)).or_insert_with(|| {
            (
                format!("{from} -> {to}"),
                rel.clone(),
                *line,
                detail.clone(),
            )
        });
    }

    let nodes: Vec<String> = graph.keys().cloned().collect();
    let mut color: BTreeMap<&str, u8> = nodes.iter().map(|n| (n.as_str(), 0u8)).collect();
    let mut path: Vec<&str> = Vec::new();
    let mut cycle: Option<Vec<String>> = None;

    fn dfs<'a>(
        n: &'a str,
        graph: &'a BTreeMap<String, BTreeSet<String>>,
        color: &mut BTreeMap<&'a str, u8>,
        path: &mut Vec<&'a str>,
        cycle: &mut Option<Vec<String>>,
    ) {
        if cycle.is_some() {
            return;
        }
        color.insert(n, 1);
        path.push(n);
        if let Some(next) = graph.get(n) {
            for m in next {
                match color.get(m.as_str()).copied().unwrap_or(0) {
                    0 => dfs(m, graph, color, path, cycle),
                    1
                        // Back edge: slice the current path from m.
                        if cycle.is_none() => {
                            let start = path.iter().position(|p| *p == m.as_str()).unwrap_or(0);
                            let mut c: Vec<String> =
                                path[start..].iter().map(|s| s.to_string()).collect();
                            c.push(m.clone());
                            *cycle = Some(c);
                        }
                    _ => {}
                }
                if cycle.is_some() {
                    break;
                }
            }
        }
        path.pop();
        color.insert(n, 2);
    }

    for n in &nodes {
        if color.get(n.as_str()).copied().unwrap_or(0) == 0 {
            dfs(n, &graph, &mut color, &mut path, &mut cycle);
        }
        if cycle.is_some() {
            break;
        }
    }
    let cycle = cycle?;

    let mut msg = String::from("lock-acquisition cycle detected:\n");
    let mut anchor: Option<(String, usize)> = None;
    for w in cycle.windows(2) {
        if let Some((names, rel, line, detail)) = witness.get(&(w[0].clone(), w[1].clone())) {
            msg.push_str(&format!(
                "    {} -> {} ({names}): {detail} at {rel}:{}\n",
                w[0],
                w[1],
                line + 1
            ));
            if anchor.is_none() {
                anchor = Some((rel.clone(), *line));
            }
        }
    }
    msg.push_str("  full lock-acquisition graph:\n");
    for ((kf, kt), (names, rel, line, _)) in &witness {
        msg.push_str(&format!(
            "    {kf} -> {kt} ({names}) [{rel}:{}]\n",
            line + 1
        ));
    }
    let (file, line) = anchor.unwrap_or_else(|| ("<workspace>".into(), 0));
    Some(Violation {
        file,
        line: line + 1,
        rule: Rule::LockOrder,
        msg: msg.trim_end().to_string(),
    })
}

// ---------------------------------------------------------------------
// Per-file scanning
// ---------------------------------------------------------------------

fn scan_file(file_idx: usize, rel: &str, src: &str) -> FileScan {
    let scrub = crate::lint::scrub(src);
    let toks = tokenize(&scrub.code, &scrub.is_test);
    let n = toks.len();

    // -- lock declarations -------------------------------------------
    let mut decls = Vec::new();
    let mut bad_decls = Vec::new();
    for i in 0..n {
        if !toks[i].ident
            || (toks[i].text != "Mutex" && toks[i].text != "RwLock")
            || toks[i].is_test
        {
            continue;
        }
        if i + 1 >= n || toks[i + 1].text != "<" {
            continue; // `Mutex::new`, use-paths, bare mentions
        }
        match bind_decl(&toks, i) {
            Some((name, name_line)) => {
                let ann = annotation_text(&scrub, toks[i].line, "lock-rank:")
                    .or_else(|| annotation_text(&scrub, name_line, "lock-rank:"));
                match ann {
                    Some((text, _)) => match parse_rank(&text) {
                        Some((ns, rank)) => decls.push(Decl {
                            name,
                            ns,
                            rank,
                            file: file_idx,
                            line: toks[i].line,
                        }),
                        None => bad_decls.push((
                            toks[i].line,
                            format!(
                                "malformed lock-rank annotation on `{name}`: expected `// lock-rank: <ns>.<N>`"
                            ),
                        )),
                    },
                    None => bad_decls.push((
                        toks[i].line,
                        format!(
                            "Mutex/RwLock declaration `{name}` lacks a lock-rank annotation; add `// lock-rank: <ns>.<N>`"
                        ),
                    )),
                }
            }
            None => bad_decls.push((
                toks[i].line,
                "cannot infer a binding name for this Mutex/RwLock declaration; \
                 bind it to a named field, static, or fn return"
                    .to_string(),
            )),
        }
    }

    // -- fn bodies + ownership map ------------------------------------
    let mut units: Vec<FnUnit> = vec![FnUnit {
        name: format!("<toplevel:{rel}>"),
        ..Default::default()
    }];
    let mut owner: Vec<usize> = vec![0; n];
    let mut i = 0;
    let mut spans: Vec<(usize, usize, usize)> = Vec::new(); // (open+1, close, unit)
    while i < n {
        if toks[i].ident && toks[i].text == "fn" && !toks[i].is_test {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.ident) {
                // Find the body opening brace (skip the parameter list).
                let mut j = i + 2;
                let mut open = None;
                while j < n {
                    match toks[j].text.as_str() {
                        "(" | "[" => {
                            j = toks[j].mate.map(|m| m + 1).unwrap_or(j + 1);
                            continue;
                        }
                        "{" => {
                            open = Some(j);
                            break;
                        }
                        ";" | "}" => break, // bodiless trait decl / malformed
                        _ => j += 1,
                    }
                }
                if let Some(open) = open {
                    let close = toks[open].mate.unwrap_or(n);
                    units.push(FnUnit {
                        name: name_tok.text.clone(),
                        ..Default::default()
                    });
                    spans.push((open + 1, close, units.len() - 1));
                }
            }
        }
        i += 1;
    }
    // Later (inner) spans overwrite enclosing ones.
    for (s, e, u) in &spans {
        for slot in owner.iter_mut().take((*e).min(n)).skip(*s) {
            *slot = *u;
        }
    }

    // -- event extraction ---------------------------------------------
    let mut i = 0;
    while i < n {
        if toks[i].is_test {
            i += 1;
            continue;
        }
        let u = owner[i];

        // `.method(` forms -------------------------------------------
        if toks[i].text == "." && i + 2 < n && toks[i + 1].ident && toks[i + 2].text == "(" {
            let m = toks[i + 1].text.clone();
            let close = toks[i + 2].mate.unwrap_or(i + 2);
            let empty = close == i + 3;
            if m == "lock" && empty {
                lock_acq(&toks, i, close, &mut units[u]);
                i = close + 1;
                continue;
            }
            if (m == "read" || m == "write") && empty {
                // RwLock acquisition only when the receiver is a known
                // ranked name; an argless io `.read()`/`.write()` is
                // meaningless, so anything else is ignored.
                let (recv, _) = receiver(&toks, i);
                if recv.is_some() {
                    lock_acq(&toks, i, close, &mut units[u]);
                }
                i = close + 1;
                continue;
            }
            if let Some(&(_, need_empty)) = BLOCKING_METHODS.iter().find(|(name, _)| *name == m) {
                if !need_empty || empty {
                    let wait_args = if WAIT_FAMILY.contains(&m.as_str()) {
                        toks[i + 3..close]
                            .iter()
                            .filter(|t| t.ident)
                            .map(|t| t.text.clone())
                            .collect()
                    } else {
                        Vec::new()
                    };
                    units[u].blocks.push(BlockEvent {
                        desc: format!("`.{m}(...)`"),
                        tok: i,
                        line: toks[i + 1].line,
                        wait_args,
                    });
                    i += 3;
                    continue;
                }
            }
            // call-candidate classification by receiver shape
            let r = i.wrapping_sub(1);
            if i >= 1 && toks[r].ident {
                let follow = if r >= 2 && toks[r - 1].text == "." {
                    // self.field.m( — followed; a.b.m( — skipped
                    r >= 2 && toks[r - 2].text == "self" && !DENY_METHODS.contains(&m.as_str())
                } else if toks[r].text == "self" {
                    true // self.m( — always followed
                } else {
                    !DENY_METHODS.contains(&m.as_str())
                        && !DENY_METHODS_UNTYPED.contains(&m.as_str())
                };
                if follow && !KEYWORDS.contains(&m.as_str()) {
                    units[u].calls.push(CallEvent {
                        callee: m,
                        tok: i,
                        line: toks[i + 1].line,
                    });
                }
            }
            i += 3;
            continue;
        }

        // `name!(` macro forms ---------------------------------------
        if toks[i].ident && i + 1 < n && toks[i + 1].text == "!" {
            if let Some(&(_, lock)) = MACRO_LOCKS.iter().find(|(name, _)| *name == toks[i].text) {
                units[u].acqs.push(AcqEvent {
                    lock: lock.to_string(),
                    tok: i,
                    line: toks[i].line,
                    mac: true,
                });
            }
            i += 2;
            continue;
        }

        // `name(` free/path-call forms -------------------------------
        if toks[i].ident
            && i + 1 < n
            && toks[i + 1].text == "("
            && (i == 0 || (toks[i - 1].text != "." && toks[i - 1].text != "fn"))
        {
            let name = toks[i].text.clone();
            let close = toks[i + 1].mate.unwrap_or(i + 1);
            let path = i >= 1 && toks[i - 1].text == ":";
            if name == "drop" {
                let args: Vec<&Tok> = toks[i + 2..close.min(n)]
                    .iter()
                    .filter(|t| t.ident)
                    .collect();
                if args.len() == 1 {
                    units[u].drops.push(DropEvent {
                        arg: args[0].text.clone(),
                        tok: i,
                    });
                }
            } else if BLOCKING_CALLEES.contains(&name.as_str()) {
                units[u].blocks.push(BlockEvent {
                    desc: format!("`{name}(...)`"),
                    tok: i,
                    line: toks[i].line,
                    wait_args: Vec::new(),
                });
            } else if !KEYWORDS.contains(&name.as_str())
                && (!path || !DENY_METHODS.contains(&name.as_str()))
            {
                units[u].calls.push(CallEvent {
                    callee: name,
                    tok: i,
                    line: toks[i].line,
                });
            }
            i += 2;
            continue;
        }

        i += 1;
    }

    FileScan {
        rel: rel.to_string(),
        scrub,
        decls,
        units,
        bad_decls,
    }
}

/// Record a `.lock()` / ranked `.read()`/`.write()` acquisition at dot
/// index `d` (arg close paren at `close`): resolve the receiver, create
/// the guard region, classify unranked receivers.
fn lock_acq(toks: &[Tok], d: usize, close: usize, unit: &mut FnUnit) {
    let (recv, rstart) = receiver(toks, d);
    let line = toks[d].line;
    let Some(name) = recv else {
        unit.unranked.push((d, line, None));
        return;
    };
    unit.acqs.push(AcqEvent {
        lock: name.clone(),
        tok: d,
        line,
        mac: false,
    });
    // Guard binding: `let [mut] NAME = <receiver>...`.
    let bind = let_binding(toks, rstart);
    let start = close + 1;
    let scope_end = match &bind {
        Some(b) if b != "_" => block_end(toks, d, toks.len()),
        _ => stmt_end(toks, d, toks.len()),
    };
    unit.guards.push(GuardEvent {
        lock: name,
        bind: bind.filter(|b| b != "_"),
        start,
        scope_end,
    });
}

/// Resolve the receiver of `.lock()` at dot index `d`. Returns the
/// bound name (field/var/fn) plus the first token of the receiver
/// expression (for `let` detection).
fn receiver(toks: &[Tok], d: usize) -> (Option<String>, usize) {
    if d == 0 {
        return (None, d);
    }
    let last = d - 1;
    if toks[last].ident {
        // a.b.c.lock(): name = c; rstart walks the `ident .` chain back.
        let name = toks[last].text.clone();
        let mut s = last;
        while s >= 2 && toks[s - 1].text == "." && toks[s - 2].ident {
            s -= 2;
        }
        return (Some(name), s);
    }
    if toks[last].text == ")" {
        // registry().lock(): name = the called fn (whose return carries
        // the rank binding).
        if let Some(open) = toks[last].mate {
            if open >= 1 && toks[open - 1].ident {
                let name = toks[open - 1].text.clone();
                let mut s = open - 1;
                while s >= 3
                    && toks[s - 1].text == ":"
                    && toks[s - 2].text == ":"
                    && toks[s - 3].ident
                {
                    s -= 3;
                }
                return (Some(name), s);
            }
        }
    }
    (None, last)
}

/// Detect `let [mut] NAME =` immediately before the receiver at
/// `rstart`; returns the bound name.
fn let_binding(toks: &[Tok], rstart: usize) -> Option<String> {
    if rstart < 2 || toks[rstart - 1].text != "=" {
        return None;
    }
    let mut k = rstart - 2;
    if !toks[k].ident {
        return None; // tuple/struct patterns: treat as unbound
    }
    let name = toks[k].text.clone();
    if k >= 1 && toks[k - 1].text == "mut" {
        k -= 1;
    }
    if k >= 1 && toks[k - 1].ident && toks[k - 1].text == "let" {
        Some(name)
    } else {
        None
    }
}

/// Walk back from the `Mutex`/`RwLock` token to find what the type is
/// bound to: `name: ..Mutex<..>` (field/static/param) or
/// `fn name(..) -> ..Mutex<..>` (accessor). Returns (name, name line).
fn bind_decl(toks: &[Tok], mx: usize) -> Option<(String, usize)> {
    let mut j = mx;
    let mut saw_arrow = false;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        match t.text.as_str() {
            ";" | "{" | "}" => return None,
            ":" => {
                // `::` path separator vs binding colon.
                if (j >= 1 && toks[j - 1].text == ":")
                    || toks.get(j + 1).map(|t| t.text == ":").unwrap_or(false)
                {
                    continue;
                }
                if j >= 1 && toks[j - 1].ident {
                    return Some((toks[j - 1].text.clone(), toks[j - 1].line));
                }
                return None;
            }
            ">" if j >= 1 && toks[j - 1].text == "-" => {
                saw_arrow = true;
                j -= 1; // consume the '-'
            }
            ")" if saw_arrow => {
                if let Some(open) = t.mate {
                    if open >= 2 && toks[open - 1].ident && toks[open - 2].text == "fn" {
                        return Some((toks[open - 1].text.clone(), toks[open - 1].line));
                    }
                    j = open; // keep walking (e.g. generics before parens)
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse `<ns>.<N>` out of annotation text (trailing prose allowed).
fn parse_rank(text: &str) -> Option<(String, u32)> {
    let t = text.trim();
    let dot = t.find('.')?;
    let ns: String = t[..dot].trim().to_string();
    if ns.is_empty()
        || !ns
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
    {
        return None;
    }
    let digits: String = t[dot + 1..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return None;
    }
    Some((ns, digits.parse().ok()?))
}
