//! The lint must fail on its own seeded-violation fixtures — and only on
//! the seeded lines.

use xtask::lint::{lint_source, lint_source_with_catalog, MetricCatalog, Rule};

const TEST_MARKING: &str = include_str!("fixtures/test_marking.rs");
const BAD_RELAXED: &str = include_str!("fixtures/bad_relaxed.rs");
const BAD_TAINT: &str = include_str!("fixtures/bad_taint.rs");
const BAD_METRIC: &str = include_str!("fixtures/bad_metric.rs");

#[test]
fn test_marking_handles_multiline_attrs_and_nesting() {
    // Multi-line `#[cfg(all(test, …))]` attributes, nested modules under
    // `#[cfg(test)]`, and an attribute sharing its line with the item are
    // all test code; only the relaxed load in `real_code` may be reported.
    let v = lint_source("memsim", "fixtures/test_marking.rs", TEST_MARKING);
    let hits: Vec<_> = v.iter().map(|x| (x.rule, x.line)).collect();
    assert_eq!(hits, vec![(Rule::RelaxedOk, 7)], "{v:?}");
}

#[test]
fn relaxed_rule_requires_justification() {
    let v = lint_source("memsim", "fixtures/bad_relaxed.rs", BAD_RELAXED);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::RelaxedOk);
    assert_eq!(v[0].line, 6);
}

#[test]
fn taint_rule_requires_token_or_waiver_on_public_fns() {
    let v = lint_source("kernels", "fixtures/bad_taint.rs", BAD_TAINT);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::PrivilegeTaint);
    assert_eq!(v[0].line, 15);
}

#[test]
fn taint_rule_exempts_boundary_crates() {
    assert!(lint_source("memsim", "fixtures/bad_taint.rs", BAD_TAINT).is_empty());
    assert!(lint_source("pcp", "fixtures/bad_taint.rs", BAD_TAINT).is_empty());
}

#[test]
fn metric_catalog_rule_catches_uncatalogued_names() {
    let catalog = MetricCatalog::parse("| `fixture.catalogued.count` | counter | a test |\n");
    let v = lint_source_with_catalog(
        "kernels",
        "fixtures/bad_metric.rs",
        BAD_METRIC,
        Some(&catalog),
    );
    let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
    assert_eq!(rules, vec![Rule::MetricCatalog; 2], "{v:?}");
    let lines: Vec<_> = v.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![9, 10], "{v:?}");
    assert!(v[0].msg.contains("fixture.rogue.count"), "{v:?}");
    assert!(v[1].msg.contains("fixture.rogue.depth"), "{v:?}");
}

#[test]
fn metric_catalog_rule_needs_a_catalog_and_exempts_the_metrics_crate() {
    // Rules 1-2 only when no catalog is supplied.
    assert!(lint_source("kernels", "fixtures/bad_metric.rs", BAD_METRIC).is_empty());
    // The obs crate implements the macros and is exempt.
    let catalog = MetricCatalog::parse("");
    assert!(
        lint_source_with_catalog("obs", "fixtures/bad_metric.rs", BAD_METRIC, Some(&catalog))
            .is_empty()
    );
}

#[test]
fn workspace_lint_runs_clean() {
    // The real tree must satisfy its own rules: this is the same walk
    // `cargo xtask lint` performs in CI.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let report = xtask::lint::lint_workspace(&root).expect("walk workspace");
    assert!(report.nfiles > 50, "walked only {} files", report.nfiles);
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
