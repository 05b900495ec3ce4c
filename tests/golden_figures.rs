//! Golden-figure regression suite: every experiment of the catalog is
//! re-run in the mode its committed reference (`results/GOLDEN_<tag>.json`)
//! was recorded in, and the composed output is compared column-by-column.
//!
//! Text columns must match exactly. Numeric columns of the measurement
//! figures (fig2…fig12, ablation) are allowed a relative error of 1e-6 —
//! the model is deterministic, so this slack only covers float-formatting
//! differences, never physics drift. Regenerate the references with
//! `cargo run --release -p repro-bench --bin repro -- --quick --write-golden`
//! after an *intentional* model change, and say so in the commit.

use std::fs;
use std::path::PathBuf;

use obs::chrome::{parse_json, Json};
use repro_bench::runner::run_experiments;
use repro_bench::{experiments, Args, Mode};

/// Relative tolerance for numeric columns of measurement figures.
const NUMERIC_REL_EPS: f64 = 1e-6;

fn golden_path(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("GOLDEN_{tag}.json"))
}

/// Read a committed golden reference: (recorded mode, recorded output).
fn read_golden(tag: &str) -> (Mode, String) {
    let path = golden_path(tag);
    let doc = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden reference {} ({e}); regenerate with \
             `repro --quick --write-golden`",
            path.display()
        )
    });
    let Json::Obj(fields) = parse_json(&doc).expect("golden reference is valid JSON") else {
        panic!("golden reference {} is not a JSON object", path.display());
    };
    let get = |key: &str| -> &str {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("golden reference has no string field '{key}'"))
    };
    let mode = match get("mode") {
        "quick" => Mode::Quick,
        "full" => Mode::Full,
        _ => Mode::Default,
    };
    (mode, get("output").to_owned())
}

/// Whether a tag's numeric columns get the measurement tolerance; all
/// other experiments (schematics, tables, listings) must match exactly.
fn is_measurement(tag: &str) -> bool {
    matches!(
        tag,
        "fig2"
            | "fig3"
            | "fig4"
            | "fig5"
            | "fig6"
            | "fig7"
            | "fig8"
            | "fig9"
            | "fig10"
            | "fig11"
            | "fig12"
            | "ablation"
    )
}

fn numeric_close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= NUMERIC_REL_EPS * scale
}

/// Compare one output line token-wise. Tokens split on commas and
/// whitespace so both CSV rows and prose headers decompose the same way.
fn compare_line(tag: &str, lineno: usize, got: &str, want: &str) {
    let split = |s: &str| -> Vec<String> {
        s.split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let g = split(got);
    let w = split(want);
    assert_eq!(
        g.len(),
        w.len(),
        "{tag} line {lineno}: token count {} != {}\n  got:  {got}\n  want: {want}",
        g.len(),
        w.len()
    );
    for (gt, wt) in g.iter().zip(&w) {
        if gt == wt {
            continue;
        }
        let numeric = gt.parse::<f64>().ok().zip(wt.parse::<f64>().ok());
        match numeric {
            Some((gn, wn)) if is_measurement(tag) && numeric_close(gn, wn) => {}
            _ => panic!(
                "{tag} line {lineno}: column '{gt}' != golden '{wt}'\n  got:  {got}\n  want: {want}"
            ),
        }
    }
}

/// Re-run `tag` in its recorded mode (with a multi-worker pool, so this
/// also exercises the parallel path) and gate it against the golden.
/// A live [`obs::Monitor`] with the canonical threshold rules
/// (DESIGN.md §11) watches the whole run; a clean catalog execution
/// must never raise an alert.
fn check_golden(tag: &'static str) {
    let (mode, want) = read_golden(tag);
    let exp = experiments::build(tag, mode, &Args::default())
        .unwrap_or_else(|| panic!("unknown experiment tag {tag}"));
    let mut monitor = obs::Monitor::new(8, repro_bench::obsreport::canonical_rules());
    monitor.tick(1_000_000_000, &obs::registry().export());
    let report = run_experiments(vec![exp], 4);
    monitor.tick(61_000_000_000, &obs::registry().export());
    assert!(
        monitor.alerts().is_empty(),
        "{tag}: derived rules fired on a golden run: {:?}",
        monitor.alerts()
    );
    let er = &report.experiments[0];
    assert!(
        er.errors.is_empty(),
        "{tag} reported point errors: {:?}",
        er.errors
    );
    let got = &er.output;
    let got_lines: Vec<&str> = got.lines().collect();
    let want_lines: Vec<&str> = want.lines().collect();
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "{tag}: line count {} != golden {}",
        got_lines.len(),
        want_lines.len()
    );
    for (i, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        compare_line(tag, i + 1, g, w);
    }
}

macro_rules! golden {
    ($($name:ident => $tag:literal),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_golden($tag);
            }
        )*
    };
}

golden! {
    golden_fig1 => "fig1",
    golden_fig2 => "fig2",
    golden_fig3 => "fig3",
    golden_fig4 => "fig4",
    golden_fig5 => "fig5",
    golden_fig6 => "fig6",
    golden_fig7 => "fig7",
    golden_fig8 => "fig8",
    golden_fig9 => "fig9",
    golden_fig10 => "fig10",
    golden_fig11 => "fig11",
    golden_fig12 => "fig12",
    golden_table1 => "table1",
    golden_table2 => "table2",
    golden_ablation => "ablation",
    golden_papi_avail => "papi_avail",
    golden_refute => "refute",
}

/// The committed golden set must cover the whole catalog — a new
/// experiment without a reference fails here, not silently.
#[test]
fn golden_set_is_complete() {
    for tag in experiments::TAGS {
        assert!(
            golden_path(tag).exists(),
            "no golden reference for {tag}; run `repro --quick --write-golden`"
        );
    }
}
