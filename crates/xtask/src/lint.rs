//! `papi-verify` static-analysis pass.
//!
//! Three repo-specific rules, enforced over every non-test source line of
//! the workspace (vendored shims excluded):
//!
//! 1. **relaxed-ok** — every `Ordering::Relaxed` must carry a
//!    `// relaxed-ok: <why>` justification on the same line or in the
//!    comment block directly above it (multi-line justifications carry the
//!    tag on their first line). The simulator is deliberately lock-free
//!    around the nest counters; the annotation forces each site to argue
//!    why relaxed ordering cannot lose or reorder anything the readers
//!    care about.
//! 2. **privilege-taint** — outside `memsim` and `pcp` (the two crates that
//!    *implement* the privilege boundary), any `pub fn` whose body reads
//!    `NestCounters` (via `.counters()` / `.counters_arc()`) must either
//!    take a `&PrivilegeToken` in its signature or waive the rule with a
//!    `// privilege-ok: <why>` comment at the access site. This is a taint
//!    check: socket-wide counters are privileged state, and every public
//!    door to them must show its capability.
//! 3. **metric-catalog** — the metric name at every `counter!` / `gauge!` /
//!    `histogram!` call site in non-test code must be a string literal
//!    that appears (backtick-quoted) in the checked-in `METRICS.md`, or
//!    waive the rule with a `// metric-ok: <why>` comment. Exported
//!    metric names are external API: dashboards, scrape rules and the
//!    PMNS `pmcd.obs.*` subtree all key on them, so an uncatalogued name
//!    is an undocumented interface and a typo is a silently dead series.
//!    The `obs` crate (which implements the macros) is exempt.
//!
//! What is *not* here, because a standard tool or the code itself does
//! it: no-panic in the daemon crates is a clippy deny list on their
//! `lib.rs` (DESIGN.md §8.1), and lock order / blocking under a lock is
//! asserted by the locks themselves in every test (`obs::sync`,
//! DESIGN.md §13).
//!
//! The rules run on a lightweight lexer (comments, strings and char
//! literals stripped; `#[cfg(test)]` items brace-matched and skipped).
//! Not a full parser — deliberately dependency-free so `cargo xtask lint`
//! works offline.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates allowed to read `NestCounters` without a token (rule 2): they
/// implement the privilege boundary rather than crossing it.
const TAINT_EXEMPT_CRATES: &[&str] = &["memsim", "pcp"];

/// Metric-registration macros whose name argument must be catalogued
/// (rule 3).
const METRIC_NEEDLES: &[&str] = &["counter!(", "gauge!(", "histogram!("];

/// Crates exempt from rule 3: the metrics crate itself.
const METRIC_EXEMPT_CRATES: &[&str] = &["obs"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub msg: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    RelaxedOk,
    PrivilegeTaint,
    MetricCatalog,
}

impl Rule {
    /// Every rule, in rule-number order.
    pub const ALL: [Rule; 3] = [Rule::RelaxedOk, Rule::PrivilegeTaint, Rule::MetricCatalog];

    /// The comment tag that justifies (rule 1) or waives (rules 2–3) a
    /// site under this rule.
    fn waiver_tag(self) -> &'static str {
        match self {
            Rule::RelaxedOk => "relaxed-ok:",
            Rule::PrivilegeTaint => "privilege-ok:",
            Rule::MetricCatalog => "metric-ok:",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::RelaxedOk => "relaxed-ok",
            Rule::PrivilegeTaint => "privilege-taint",
            Rule::MetricCatalog => "metric-catalog",
        })
    }
}

/// The set of documented metric names, parsed from `METRICS.md`: every
/// backtick-quoted whitespace-free token in the document counts as a
/// catalogued name, so both table rows and prose mentions register.
#[derive(Debug, Clone, Default)]
pub struct MetricCatalog {
    names: std::collections::BTreeSet<String>,
}

impl MetricCatalog {
    pub fn parse(md: &str) -> Self {
        let mut names = std::collections::BTreeSet::new();
        for line in md.lines() {
            let mut rest = line;
            while let Some(start) = rest.find('`') {
                let after = &rest[start + 1..];
                let Some(end) = after.find('`') else { break };
                let tok = &after[..end];
                if !tok.is_empty() && !tok.contains(char::is_whitespace) {
                    names.insert(tok.to_owned());
                }
                rest = &after[end + 1..];
            }
        }
        MetricCatalog { names }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// A source file split into parallel per-line views. Every view has the
/// same number of lines and — because the scrubber blanks characters
/// one-for-one — identical per-line character counts, so a character
/// position is meaningful across views.
struct Scrubbed {
    /// Code with comments, string contents and char literals blanked.
    code: Vec<String>,
    /// Comment text per line (line + block comments).
    comment: Vec<String>,
    /// The unmodified source lines — for checks that must see string
    /// literals, like the metric name at a `counter!` call site.
    raw: Vec<String>,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    is_test: Vec<bool>,
}

/// Lex `source` into code/comment line views.
fn scrub(source: &str) -> Scrubbed {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }

    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(source.len() / 4);
    let mut state = State::Code;
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '\n' {
            code.push('\n');
            comment.push('\n');
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '"' {
                    state = State::Str;
                    code.push(' ');
                    comment.push(' ');
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&code) {
                    // Possible raw / byte / raw-byte string prefix.
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') && (c == 'r' || bytes.get(i + 1) != Some(&'"')) {
                        // r"…", r#"…"#, br"…" — but a plain b"…" only when
                        // the quote directly follows the b.
                        for _ in i..=j {
                            code.push(' ');
                            comment.push(' ');
                        }
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    } else if c == 'b' && bytes.get(i + 1) == Some(&'"') {
                        code.push_str("  ");
                        comment.push_str("  ");
                        state = State::Str;
                        i += 2;
                        continue;
                    } else {
                        code.push(c);
                        comment.push(' ');
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a char literal closes with
                    // a quote one or two (escaped) chars later.
                    let is_char = matches!(
                        (next, bytes.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        state = State::Char;
                    }
                    code.push(' ');
                    comment.push(' ');
                } else {
                    code.push(c);
                    comment.push(' ');
                }
            }
            State::LineComment => {
                code.push(' ');
                comment.push(c);
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    continue;
                } else if c == '/' && next == Some('*') {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                }
                code.push(' ');
                comment.push(c);
            }
            State::Str => {
                if c == '\\' {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                code.push(' ');
                comment.push(' ');
                if c == '"' {
                    state = State::Code;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            code.push(' ');
                            comment.push(' ');
                        }
                        i += hashes + 1;
                        state = State::Code;
                        continue;
                    }
                }
                code.push(' ');
                comment.push(' ');
            }
            State::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                code.push(' ');
                comment.push(' ');
                if c == '\'' {
                    state = State::Code;
                }
            }
        }
        i += 1;
    }

    let code: Vec<String> = code.lines().map(str::to_owned).collect();
    let comment: Vec<String> = comment.lines().map(str::to_owned).collect();
    let raw: Vec<String> = source.lines().map(str::to_owned).collect();
    let is_test = mark_test_lines(&code);
    Scrubbed {
        code,
        comment,
        raw,
        is_test,
    }
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Mark lines belonging to `#[cfg(test)]` items. Attribute spans may
/// wrap across lines (`#[cfg(all(\n    test,\n    ...\n))]` — brackets
/// are matched character by character) and are tested with their
/// whitespace flattened out. The gated item is then brace-matched
/// (block items, including an item opening on the attribute's own line)
/// or taken to the terminating `;` (statements, `use`, type aliases),
/// so nested modules and `#[cfg(test)] mod t { … }` one-liners both mark
/// correctly.
fn mark_test_lines(code: &[String]) -> Vec<bool> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Idle,
        Attr,    // inside an attribute's brackets
        Between, // after an attribute, before its item (or next attribute)
        Item,    // inside a gated item
    }

    let n = code.len();
    let mut out = vec![false; n];
    let mut state = St::Idle;
    let mut gated = false;
    let mut chain_start = 0usize; // first line of the attribute chain
    let mut depth: i64 = 0; // attr bracket depth / item brace depth
    let mut opened = false; // item: first `{` seen
    let mut attr_buf = String::new();

    for ln in 0..n {
        let cv: Vec<char> = code[ln].chars().collect();
        let mut i = 0usize;
        loop {
            match state {
                St::Idle => {
                    while i < cv.len() && cv[i].is_whitespace() {
                        i += 1;
                    }
                    if i + 1 < cv.len() && cv[i] == '#' && cv[i + 1] == '[' {
                        state = St::Attr;
                        gated = false;
                        chain_start = ln;
                        depth = 0;
                        attr_buf.clear();
                        continue; // reprocess from `#`
                    }
                    break; // rest of the line is plain code
                }
                St::Attr => {
                    let mut closed = false;
                    while i < cv.len() {
                        attr_buf.push(cv[i]);
                        match cv[i] {
                            '[' => depth += 1,
                            ']' => {
                                depth -= 1;
                                if depth == 0 {
                                    closed = true;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                        if closed {
                            break;
                        }
                    }
                    if closed {
                        let flat: String = attr_buf.split_whitespace().collect();
                        gated = gated || flat.contains("cfg(test") || flat.contains("cfg(all(test");
                        attr_buf.clear();
                        state = St::Between;
                        continue;
                    }
                    attr_buf.push(' ');
                    break; // attribute continues on the next line
                }
                St::Between => {
                    while i < cv.len() && cv[i].is_whitespace() {
                        i += 1;
                    }
                    if i >= cv.len() {
                        break; // item (or next attribute) on a later line
                    }
                    if i + 1 < cv.len() && cv[i] == '#' && cv[i + 1] == '[' {
                        state = St::Attr; // stacked attribute, chain continues
                        depth = 0;
                        continue;
                    }
                    if !gated {
                        state = St::Idle;
                        break; // ungated item: leave the rest of the line alone
                    }
                    for slot in out.iter_mut().take(ln + 1).skip(chain_start) {
                        *slot = true;
                    }
                    state = St::Item;
                    depth = 0;
                    opened = false;
                    continue;
                }
                St::Item => {
                    out[ln] = true;
                    let mut done = false;
                    while i < cv.len() {
                        match cv[i] {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => {
                                depth -= 1;
                                if opened && depth <= 0 {
                                    done = true;
                                }
                            }
                            ';' if !opened && depth == 0 => done = true,
                            _ => {}
                        }
                        i += 1;
                        if done {
                            break;
                        }
                    }
                    if done {
                        state = St::Idle;
                        continue; // the same line may start another item/attr
                    }
                    break; // item continues on the next line
                }
            }
        }
        // Lines fully inside a wrapped gated construct still need marking
        // even when the per-line loop exits early.
        if state == St::Item || (gated && (state == St::Attr || state == St::Between)) {
            out[ln] = true;
        }
        // Not-yet-gated attribute chains are marked retroactively once the
        // gate is confirmed and the item starts; nothing to do here.
    }
    out
}

/// Scrubbed views of `source` for external property tests: the code
/// lines (comments, string contents, and char literals blanked — what
/// the rules match against) and the comment lines.
pub fn scrub_lines(source: &str) -> (Vec<String>, Vec<String>) {
    let s = scrub(source);
    (s.code, s.comment)
}

/// True when the comment on line `ln`, or the contiguous comment block
/// directly above it, carries `tag`. The block above may not be broken
/// by code or blank lines (the line directly above may carry code with a
/// trailing comment, matching the one-line form).
fn annotated(s: &Scrubbed, ln: usize, tag: &str) -> bool {
    if s.comment[ln].contains(tag) {
        return true;
    }
    let mut i = ln;
    while i > 0 {
        i -= 1;
        if s.comment[i].contains(tag) {
            return true;
        }
        if !s.code[i].trim().is_empty() || s.comment[i].trim().is_empty() {
            break;
        }
    }
    false
}

/// Lint one file's source with rules 1–2 only (no metric catalog; rule 3
/// needs the workspace's `METRICS.md` and runs via
/// [`lint_source_with_catalog`]).
pub fn lint_source(crate_name: &str, file: &str, source: &str) -> Vec<Violation> {
    lint_source_with_catalog(crate_name, file, source, None)
}

/// Lint one file's source. `crate_name` is the directory name under
/// `crates/` (the root package lints as `papi-repro`). Rule 3 runs only
/// when a parsed [`MetricCatalog`] is supplied.
pub fn lint_source_with_catalog(
    crate_name: &str,
    file: &str,
    source: &str,
    catalog: Option<&MetricCatalog>,
) -> Vec<Violation> {
    lint_scrubbed(crate_name, file, &scrub(source), catalog)
}

fn lint_scrubbed(
    crate_name: &str,
    file: &str,
    s: &Scrubbed,
    catalog: Option<&MetricCatalog>,
) -> Vec<Violation> {
    let mut out = Vec::new();

    // Rule 1: relaxed-ok justifications.
    for (ln, code) in s.code.iter().enumerate() {
        if s.is_test[ln] || !code.contains("Ordering::Relaxed") {
            continue;
        }
        if !annotated(s, ln, Rule::RelaxedOk.waiver_tag()) {
            out.push(Violation {
                file: file.to_owned(),
                line: ln + 1,
                rule: Rule::RelaxedOk,
                msg: "`Ordering::Relaxed` without a `// relaxed-ok:` justification".to_owned(),
            });
        }
    }

    // Rule 2: privilege taint.
    if !TAINT_EXEMPT_CRATES.contains(&crate_name) {
        taint_check(s, file, &mut out);
    }

    // Rule 3: metric names must be catalogued in METRICS.md.
    if let Some(catalog) = catalog {
        if !METRIC_EXEMPT_CRATES.contains(&crate_name) {
            metric_catalog_check(s, file, catalog, &mut out);
        }
    }

    out.sort_by_key(|v| v.line);
    out
}

/// Rule 3 body: find every metric-macro call site in non-test code,
/// extract its name literal from the raw view (the scrubber blanks
/// string contents out of the code view) and require it to appear in
/// the catalog — or carry a `// metric-ok:` waiver.
fn metric_catalog_check(
    s: &Scrubbed,
    file: &str,
    catalog: &MetricCatalog,
    out: &mut Vec<Violation>,
) {
    for (ln, code) in s.code.iter().enumerate() {
        if s.is_test[ln] {
            continue;
        }
        for needle in METRIC_NEEDLES {
            let mut pos = 0;
            while let Some(p) = code[pos..].find(needle) {
                let at = pos + p;
                pos = at + needle.len();
                // Token boundary on the left: `counter!(` must not match
                // inside a longer macro name.
                if code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                if annotated(s, ln, Rule::MetricCatalog.waiver_tag()) {
                    continue;
                }
                match metric_name_at(&s.raw, ln, needle) {
                    Some(name) if catalog.contains(&name) => {}
                    Some(name) => out.push(Violation {
                        file: file.to_owned(),
                        line: ln + 1,
                        rule: Rule::MetricCatalog,
                        msg: format!(
                            "metric name \"{name}\" is not catalogued in METRICS.md \
                             (document it there or add a `// metric-ok:` waiver)"
                        ),
                    }),
                    None => out.push(Violation {
                        file: file.to_owned(),
                        line: ln + 1,
                        rule: Rule::MetricCatalog,
                        msg: format!(
                            "`{needle}…)` without a string-literal metric name; exported \
                             names are external API and must be literals catalogued in \
                             METRICS.md (or waived with `// metric-ok:`)"
                        ),
                    }),
                }
            }
        }
    }
}

/// The string literal naming the metric at a macro call site: the first
/// quoted token after `needle` on the raw line, falling back to the next
/// line for calls whose argument wrapped.
fn metric_name_at(raw: &[String], ln: usize, needle: &str) -> Option<String> {
    let start = raw[ln].find(needle)? + needle.len();
    first_quoted(&raw[ln][start..]).or_else(|| raw.get(ln + 1).and_then(|l| first_quoted(l)))
}

fn first_quoted(s: &str) -> Option<String> {
    let open = s.find('"')?;
    let rest = &s[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_owned())
}

/// Needles that constitute a `NestCounters` read.
const TAINT_NEEDLES: &[&str] = &[".counters()", ".counters_arc()"];

fn taint_check(s: &Scrubbed, file: &str, out: &mut Vec<Violation>) {
    let flat: String = s
        .code
        .iter()
        .flat_map(|l| l.chars().chain(std::iter::once('\n')))
        .collect();
    let line_of = |pos: usize| flat[..pos].matches('\n').count();

    let mut search = 0;
    while let Some(rel) = flat[search..].find("fn ") {
        let at = search + rel;
        search = at + 3;
        // Token boundary on the left.
        if at > 0
            && flat[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let fn_line = line_of(at);
        if s.is_test[fn_line] {
            continue;
        }
        // Public? The declaration line must start with plain `pub`
        // (`pub(crate)`/`pub(super)` are not public API).
        let decl = s.code[fn_line].trim_start();
        let is_pub = decl.starts_with("pub fn")
            || decl.starts_with("pub async fn")
            || decl.starts_with("pub const fn")
            || decl.starts_with("pub unsafe fn");
        if !is_pub {
            continue;
        }
        // Signature: everything up to the body brace (or `;` for decls).
        let Some(body_open) = find_body_open(&flat, at) else {
            continue;
        };
        let signature = &flat[at..body_open];
        let Some(body_close) = match_brace(&flat, body_open) else {
            continue;
        };
        let body = &flat[body_open..body_close];
        if !TAINT_NEEDLES.iter().any(|n| body.contains(n)) {
            continue;
        }
        if signature.contains("PrivilegeToken") {
            continue;
        }
        // No token in the signature: every access site needs a waiver.
        for needle in TAINT_NEEDLES {
            let mut pos = 0;
            while let Some(p) = body[pos..].find(needle) {
                let abs = body_open + pos + p;
                pos += p + needle.len();
                let ln = line_of(abs);
                if !annotated(s, ln, Rule::PrivilegeTaint.waiver_tag()) {
                    out.push(Violation {
                        file: file.to_owned(),
                        line: ln + 1,
                        rule: Rule::PrivilegeTaint,
                        msg: format!(
                            "public fn reads NestCounters via `{needle}` without taking \
                             `&PrivilegeToken` (add the parameter or a `// privilege-ok:` waiver)"
                        ),
                    });
                }
            }
        }
        search = body_close;
    }
}

/// Find the `{` opening the body of the fn declared at `at`, or `None` for
/// a bodiless declaration (trait method). Skips braces inside the argument
/// list / return type generics by tracking parens and angle depth coarsely.
fn find_body_open(flat: &str, at: usize) -> Option<usize> {
    let bytes = flat.as_bytes();
    let mut paren = 0i64;
    for (off, &b) in bytes[at..].iter().enumerate() {
        match b {
            b'(' | b'[' => paren += 1,
            b')' | b']' => paren -= 1,
            b'{' if paren == 0 => return Some(at + off),
            b';' if paren == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Index one past the `}` matching the `{` at `open`.
fn match_brace(flat: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (off, b) in flat.as_bytes()[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Recursively collect `.rs` files under `dir`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// What one lint pass over the workspace produced.
pub struct Report {
    /// Files scanned.
    pub nfiles: usize,
    pub violations: Vec<Violation>,
    /// Comment lines carrying each rule's `*-ok:` tag, in [`Rule::ALL`]
    /// order — the suppressions ROADMAP tracks.
    pub waivers: [usize; 3],
}

/// Lint the whole workspace rooted at `root`. Walks the root package's
/// `src/` and `examples/` plus every `crates/*/src` (vendored shims and
/// `tests/` trees are out of scope: the former are stand-ins, the latter
/// are test code by definition). Rule 3 reads the workspace `METRICS.md`;
/// a missing catalog is itself a violation, so the rule cannot silently
/// disappear.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    walk(&root.join("src"), &mut files)?;
    walk(&root.join("examples"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            walk(&dir.join("src"), &mut files)?;
            walk(&dir.join("examples"), &mut files)?;
        }
    }

    let catalog = std::fs::read_to_string(root.join("METRICS.md"))
        .ok()
        .map(|md| MetricCatalog::parse(&md));

    let mut violations = Vec::new();
    if catalog.is_none() {
        violations.push(Violation {
            file: "METRICS.md".to_owned(),
            line: 1,
            rule: Rule::MetricCatalog,
            msg: "METRICS.md is missing; the metric-name catalog is required".to_owned(),
        });
    }
    let mut waivers = [0; 3];
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let crate_name = crate_of(rel);
        let scrubbed = scrub(&std::fs::read_to_string(path)?);
        // This crate's own sources quote the tags in prose.
        if crate_name != "xtask" {
            for comment in &scrubbed.comment {
                for (count, rule) in waivers.iter_mut().zip(Rule::ALL) {
                    *count += usize::from(comment.contains(rule.waiver_tag()));
                }
            }
        }
        violations.extend(lint_scrubbed(
            &crate_name,
            &rel.display().to_string(),
            &scrubbed,
            catalog.as_ref(),
        ));
    }
    Ok(Report {
        nfiles: files.len(),
        violations,
        waivers,
    })
}

/// Crate name of a workspace-relative path (`crates/<name>/…` or the root
/// package).
fn crate_of(rel: &Path) -> String {
    let mut parts = rel.components();
    match parts.next().and_then(|c| c.as_os_str().to_str()) {
        Some("crates") => parts
            .next()
            .and_then(|c| c.as_os_str().to_str())
            .unwrap_or("papi-repro")
            .to_owned(),
        _ => "papi-repro".to_owned(),
    }
}

/// Entry point for `cargo xtask lint`: prints findings and one summary
/// line, returns the violation count.
pub fn run(root: &Path) -> std::io::Result<usize> {
    let report = lint_workspace(root)?;
    for v in &report.violations {
        eprintln!("{v}");
    }
    let by_tag: Vec<String> = Rule::ALL
        .iter()
        .zip(report.waivers)
        .map(|(rule, n)| format!("{} {n}", rule.waiver_tag().trim_end_matches(':')))
        .collect();
    eprintln!(
        "lint: {} rules, {} files, {} violation(s), {} waivers ({})",
        Rule::ALL.len(),
        report.nfiles,
        report.violations.len(),
        report.waivers.iter().sum::<usize>(),
        by_tag.join(", ")
    );
    Ok(report.violations.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let s = scrub("let x = \"panic!\"; // panic! in comment\n");
        assert!(!s.code[0].contains("panic!"));
        assert!(s.comment[0].contains("panic!"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let s = scrub("fn f<'a>(x: &'a str) { x.unwrap() }\n");
        assert!(s.code[0].contains(".unwrap()"));
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let s = scrub(src);
        assert!(!s.is_test[0]);
        assert!(s.is_test[2]);
        assert!(s.is_test[3]);
        assert!(s.is_test[4]);
        assert!(!s.is_test[5]);
    }

    #[test]
    fn relaxed_annotation_may_precede() {
        let src = "// relaxed-ok: statistics only\nx.load(Ordering::Relaxed);\n";
        assert!(lint_source("memsim", "f.rs", src).is_empty());
        let bad = "x.load(Ordering::Relaxed);\n";
        let v = lint_source("memsim", "f.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RelaxedOk);
    }

    #[test]
    fn metric_catalog_parses_backtick_tokens_and_checks_sites() {
        let cat = MetricCatalog::parse(
            "# Metrics\n\n| `a.count` | counter |\nprose mentions `b.depth` too, \
             but `not a name` has spaces.\n",
        );
        assert_eq!(cat.len(), 2, "{cat:?}");
        assert!(cat.contains("a.count") && cat.contains("b.depth"));
        let ok = "fn f() { obs::counter!(\"a.count\").inc(); }\n";
        assert!(lint_source_with_catalog("kernels", "f.rs", ok, Some(&cat)).is_empty());
        let wrapped = "fn f() {\n    obs::counter!(\n        \"a.count\"\n    ).inc();\n}\n";
        assert!(lint_source_with_catalog("kernels", "f.rs", wrapped, Some(&cat)).is_empty());
        let bad = "fn f() { obs::gauge!(\"rogue.depth\").set(1); }\n";
        let v = lint_source_with_catalog("kernels", "f.rs", bad, Some(&cat));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::MetricCatalog);
        // A computed name cannot be checked against the catalog, so it
        // is a violation unless waived.
        let dynamic = "fn f(n: &'static str) { obs::counter!(n).inc(); }\n";
        let v = lint_source_with_catalog("kernels", "f.rs", dynamic, Some(&cat));
        assert_eq!(v.len(), 1, "{v:?}");
        let waived = "// metric-ok: name computed per channel\n\
                      fn f(n: &'static str) { obs::counter!(n).inc(); }\n";
        assert!(lint_source_with_catalog("kernels", "f.rs", waived, Some(&cat)).is_empty());
    }

    #[test]
    fn relaxed_annotation_spans_comment_block() {
        // Tag on the first line of a multi-line justification.
        let src = "// relaxed-ok: a long argument that\n// wraps onto a second line.\nx.load(Ordering::Relaxed);\n";
        assert!(lint_source("memsim", "f.rs", src).is_empty());
        // A blank line breaks the block: the tag no longer applies.
        let bad = "// relaxed-ok: detached\n\nx.load(Ordering::Relaxed);\n";
        let v = lint_source("memsim", "f.rs", bad);
        assert_eq!(v.len(), 1);
        // An intervening code line breaks the block too.
        let bad = "// relaxed-ok: for the store\ny.store(1, Ordering::Relaxed);\nx.load(Ordering::Relaxed);\n";
        let v = lint_source("memsim", "f.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }
}
