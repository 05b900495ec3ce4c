//! Scrubber property tests: whatever text sits inside string literals,
//! raw strings, char literals, or comments must never appear in the
//! scrubbed *code* view — so the rules can never match inside a
//! literal — and the scrub must preserve the line structure exactly.

use proptest::prelude::*;

/// A sentinel that never occurs in the generated code skeleton; if the
/// scrubber leaks literal contents, this is what leaks.
const SENTINEL: &str = "LEAKME";

/// One fragment of generated source: either plain code, or a literal /
/// comment form wrapping the sentinel.
#[derive(Debug, Clone)]
enum Frag {
    Code(&'static str),
    Str,
    RawStr(usize),
    Char,
    LineComment,
    BlockComment(usize),
}

fn frag() -> impl Strategy<Value = Frag> {
    (0usize..11).prop_map(|k| match k {
        0 => Frag::Code("let x = y;"),
        1 => Frag::Code("fn f(a: u32) -> u32 { a }"),
        2 => Frag::Code("if x > 'a' as u32 {}"),
        3 => Frag::Code("m.lock()"),
        4 => Frag::Code("v.push(1);"),
        5 => Frag::Str,
        6 => Frag::RawStr(1),
        7 => Frag::RawStr(2),
        8 => Frag::Char,
        9 => Frag::LineComment,
        _ => Frag::BlockComment(2),
    })
}

/// Render fragments into one source string; literal forms carry the
/// sentinel, code forms never do.
fn render(frags: &[Frag], newlines: &[bool]) -> String {
    let mut out = String::new();
    for (i, f) in frags.iter().enumerate() {
        match f {
            Frag::Code(c) => out.push_str(c),
            Frag::Str => out.push_str(&format!("let s = \"{SENTINEL} \\\" {SENTINEL}\";")),
            Frag::RawStr(h) => {
                let hashes = "#".repeat(*h);
                out.push_str(&format!(
                    "let r = r{hashes}\"{SENTINEL} \" {SENTINEL}\"{hashes};"
                ));
            }
            // Char literals hold one char; the sentinel leak analogue is
            // a quote-ish payload that must not open a string.
            Frag::Char => out.push_str("let c = '\"';"),
            Frag::LineComment => out.push_str(&format!("// {SENTINEL}")),
            Frag::BlockComment(depth) => {
                let open = "/* ".repeat(*depth);
                let close = " */".repeat(*depth);
                out.push_str(&format!("{open}{SENTINEL}{close}"));
            }
        }
        // A line comment must end its line or it swallows what follows.
        if newlines[i % newlines.len()] || matches!(f, Frag::LineComment) {
            out.push('\n');
        } else {
            out.push(' ');
        }
    }
    out
}

proptest! {
    #[test]
    fn literals_never_leak_into_code_lines(
        frags in prop::collection::vec(frag(), 1..24),
        newlines in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let src = render(&frags, &newlines);
        let (code, comment) = xtask::lint::scrub_lines(&src);

        // Line structure is preserved 1:1 against the raw source…
        let raw: Vec<&str> = src.lines().collect();
        prop_assert_eq!(code.len(), raw.len());
        prop_assert_eq!(comment.len(), raw.len());
        // …and so is every line's char count (positions stay meaningful
        // across the parallel views).
        for (c, r) in code.iter().zip(&raw) {
            prop_assert_eq!(c.chars().count(), r.chars().count());
        }

        // The payload only ever survives into the comment view.
        for line in &code {
            prop_assert!(
                !line.contains(SENTINEL),
                "literal text leaked into code view: {:?}\nsource:\n{}",
                line,
                src
            );
        }

        // Quotes inside char literals / strings never leave an unclosed
        // string open: `lock()` written as *code* is still visible.
        let probe = format!("{src}\nz.lock();\n");
        let (code2, _) = xtask::lint::scrub_lines(&probe);
        prop_assert!(
            code2.last().is_some_and(|l| l.contains("z.lock()")),
            "trailing code line was swallowed:\n{}",
            probe
        );
    }
}
