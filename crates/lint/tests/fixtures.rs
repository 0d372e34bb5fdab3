//! Per-rule fixture proofs: every registered rule must demonstrably
//! **fire** on a dirty fixture and stay **silent** on a clean one, and
//! the suppression ledger must behave (allows honored, unused allows
//! and malformed directives surfaced as errors).
//!
//! These fixtures are strings, not files on disk — [`lint_text`] takes
//! the workspace-relative path separately, which is what scopes rules
//! to crates.

use pmor_lint::{lint_text, LintKind};

/// Findings for `text` pretended to live at `path`.
fn findings(path: &str, text: &str) -> Vec<LintKind> {
    let (findings, _, _) = lint_text(path, text);
    findings.into_iter().map(|f| f.rule).collect()
}

fn fires(rule: LintKind, path: &str, text: &str) {
    assert!(
        findings(path, text).contains(&rule),
        "{} must fire on the dirty fixture at {path}",
        rule.name()
    );
}

fn silent(rule: LintKind, path: &str, text: &str) {
    assert!(
        !findings(path, text).contains(&rule),
        "{} must stay silent on the clean fixture at {path}",
        rule.name()
    );
}

// --- det-hash-iter ---------------------------------------------------------

#[test]
fn det_hash_iter_fires_and_clean() {
    let dirty = r#"
use std::collections::HashMap;
pub fn tally(scores: &HashMap<String, f64>) -> f64 {
    let mut total = 0.0;
    for v in scores.values() {
        total += v;
    }
    total
}
"#;
    fires(LintKind::DetHashIter, "crates/core/src/fixture.rs", dirty);
    // Same code outside a result-producing crate is out of scope.
    silent(LintKind::DetHashIter, "crates/bench/src/fixture.rs", dirty);

    let clean = r#"
use std::collections::BTreeMap;
pub fn tally(scores: &BTreeMap<String, f64>) -> f64 {
    let mut total = 0.0;
    for v in scores.values() {
        total += v;
    }
    total
}
"#;
    silent(LintKind::DetHashIter, "crates/core/src/fixture.rs", clean);
}

#[test]
fn det_hash_iter_tracks_let_bindings() {
    let dirty = r#"
pub fn order() -> Vec<u32> {
    let pending: std::collections::HashSet<u32> = std::collections::HashSet::new();
    pending.iter().copied().collect()
}
"#;
    fires(LintKind::DetHashIter, "crates/sparse/src/fixture.rs", dirty);
}

// --- det-unscoped-thread ---------------------------------------------------

#[test]
fn det_unscoped_thread_fires_and_clean() {
    let dirty = r#"
pub fn detach() {
    std::thread::spawn(|| {});
}
"#;
    fires(
        LintKind::DetUnscopedThread,
        "crates/core/src/fixture.rs",
        dirty,
    );

    // thread::scope outside the approved pool modules is also flagged…
    let scoped = r#"
pub fn fan_out() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
"#;
    fires(
        LintKind::DetUnscopedThread,
        "crates/core/src/fixture.rs",
        scoped,
    );
    // …but the engine's own scoped pool is the sanctioned home for it.
    silent(
        LintKind::DetUnscopedThread,
        "crates/core/src/engine.rs",
        scoped,
    );

    let clean = r#"
pub fn sequential(items: &[f64]) -> f64 {
    items.iter().sum()
}
"#;
    silent(
        LintKind::DetUnscopedThread,
        "crates/core/src/fixture.rs",
        clean,
    );
}

// --- det-wallclock ---------------------------------------------------------

#[test]
fn det_wallclock_fires_and_clean() {
    let dirty = r#"
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    fires(LintKind::DetWallclock, "crates/core/src/fixture.rs", dirty);
    // pmor-bench is the timing harness; wall-clock is its whole job.
    silent(LintKind::DetWallclock, "crates/bench/src/fixture.rs", dirty);

    let clean = r#"
pub fn stamp() -> u64 {
    42
}
"#;
    silent(LintKind::DetWallclock, "crates/core/src/fixture.rs", clean);
}

// --- panic-in-lib ----------------------------------------------------------

#[test]
fn panic_in_lib_fires_and_clean() {
    let dirty = r#"
pub fn last(xs: &[f64]) -> f64 {
    *xs.last().unwrap()
}
"#;
    fires(LintKind::PanicInLib, "crates/core/src/fixture.rs", dirty);
    // main.rs may panic: that is the CLI's error boundary. It is the only
    // exempt file; a `src/bin/` target is checked like library code.
    silent(LintKind::PanicInLib, "crates/cli/src/main.rs", dirty);
    fires(LintKind::PanicInLib, "crates/x/src/bin/y.rs", dirty);

    // Test code panics freely.
    let in_test = r#"
pub fn last(xs: &[f64]) -> Option<&f64> {
    xs.last()
}

#[cfg(test)]
mod tests {
    #[test]
    fn check() {
        assert_eq!(*super::last(&[1.0]).unwrap(), 1.0);
    }
}
"#;
    silent(LintKind::PanicInLib, "crates/core/src/fixture.rs", in_test);
}

// --- alloc-in-kernel -------------------------------------------------------

#[test]
fn alloc_in_kernel_fires_and_clean() {
    let dirty = r#"
pub fn assemble_into(p: &[f64], out: &mut Vec<f64>) {
    let scratch: Vec<f64> = p.to_vec();
    out.copy_from_slice(&scratch);
}
"#;
    fires(LintKind::AllocInKernel, "crates/core/src/fixture.rs", dirty);

    // The same allocation in a non-kernel function is fine.
    let non_kernel = r#"
pub fn assemble(p: &[f64]) -> Vec<f64> {
    p.to_vec()
}
"#;
    silent(
        LintKind::AllocInKernel,
        "crates/core/src/fixture.rs",
        non_kernel,
    );

    // An allocation-free kernel body is the contract.
    let clean = r#"
pub fn scale_into(p: &[f64], k: f64, out: &mut [f64]) {
    for (o, v) in out.iter_mut().zip(p) {
        *o = k * v;
    }
}
"#;
    silent(LintKind::AllocInKernel, "crates/core/src/fixture.rs", clean);
}

// --- float-accum -----------------------------------------------------------

#[test]
fn float_accum_fires_and_clean() {
    let dirty = r#"
use std::collections::HashMap;
pub fn total(weights: &HashMap<String, f64>) -> f64 {
    weights.values().sum::<f64>()
}
"#;
    fires(
        LintKind::FloatAccum,
        "crates/variation/src/fixture.rs",
        dirty,
    );

    // Summation over a slice is order-stable: silent.
    let clean = r#"
pub fn total(weights: &[f64]) -> f64 {
    weights.iter().sum::<f64>()
}
"#;
    silent(
        LintKind::FloatAccum,
        "crates/variation/src/fixture.rs",
        clean,
    );

    // max/min folds are order-insensitive even over hash iteration.
    let fold_max = r#"
use std::collections::HashMap;
pub fn peak(weights: &HashMap<String, f64>) -> f64 {
    weights.values().fold(0.0, |a, &b| f64::max(a, b))
}
"#;
    silent(
        LintKind::FloatAccum,
        "crates/variation/src/fixture.rs",
        fold_max,
    );
}

// --- forbid-unsafe ---------------------------------------------------------

#[test]
fn forbid_unsafe_fires_and_clean() {
    let bare = "//! A crate.\npub fn f() {}\n";
    fires(LintKind::ForbidUnsafe, "crates/core/src/lib.rs", bare);
    // Only crate roots are in scope.
    silent(LintKind::ForbidUnsafe, "crates/core/src/fixture.rs", bare);

    let clean = "#![forbid(unsafe_code)]\n//! A crate.\npub fn f() {}\n";
    silent(LintKind::ForbidUnsafe, "crates/core/src/lib.rs", clean);
}

// --- the suppression ledger ------------------------------------------------

#[test]
fn allows_suppress_and_are_recorded_used() {
    let text = r#"
pub fn last(xs: &[f64]) -> f64 {
    // pmor-lint: allow(panic-in-lib) reason="fixture: provably nonempty"
    *xs.last().unwrap()
}
"#;
    let (findings, ledger, bad) = lint_text("crates/core/src/fixture.rs", text);
    assert!(findings.is_empty(), "allow must suppress: {findings:?}");
    assert_eq!(ledger.len(), 1);
    assert!(ledger[0].used);
    assert_eq!(ledger[0].rule, LintKind::PanicInLib);
    assert_eq!(ledger[0].reason, "fixture: provably nonempty");
    assert!(bad.is_empty());
}

#[test]
fn trailing_allow_covers_its_own_line() {
    let text = r#"
pub fn stamp() {
    let _t = std::time::Instant::now(); // pmor-lint: allow(det-wallclock) reason="fixture"
}
"#;
    let (findings, ledger, _) = lint_text("crates/core/src/fixture.rs", text);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(ledger[0].used);
}

#[test]
fn unused_allow_is_an_error() {
    let text = r#"
// pmor-lint: allow(det-wallclock) reason="nothing here uses the clock"
pub fn quiet() {}
"#;
    let (findings, ledger, bad) = lint_text("crates/core/src/fixture.rs", text);
    assert!(findings.is_empty());
    assert!(bad.is_empty());
    assert_eq!(ledger.len(), 1);
    assert!(
        !ledger[0].used,
        "an allow that suppresses nothing is unused"
    );
}

#[test]
fn allow_without_reason_is_malformed() {
    let text = r#"
pub fn last(xs: &[f64]) -> f64 {
    // pmor-lint: allow(panic-in-lib)
    *xs.last().unwrap()
}
"#;
    let (_, _, bad) = lint_text("crates/core/src/fixture.rs", text);
    assert_eq!(bad.len(), 1, "a reason-less allow must be malformed");
}

#[test]
fn allow_for_unknown_rule_is_malformed() {
    let text = r#"
// pmor-lint: allow(no-such-rule) reason="typo"
pub fn quiet() {}
"#;
    let (_, _, bad) = lint_text("crates/core/src/fixture.rs", text);
    assert_eq!(bad.len(), 1);
    assert!(
        bad[0].message.contains("no-such-rule"),
        "{}",
        bad[0].message
    );
}

#[test]
fn every_registered_rule_has_a_fixture_above() {
    // Meta-guard: adding a LintKind without extending this file fails
    // here, keeping the fire/silent proofs exhaustive.
    let proven = [
        LintKind::DetHashIter,
        LintKind::DetUnscopedThread,
        LintKind::DetWallclock,
        LintKind::PanicInLib,
        LintKind::AllocInKernel,
        LintKind::FloatAccum,
        LintKind::ForbidUnsafe,
    ];
    for kind in LintKind::ALL {
        assert!(
            proven.contains(&kind),
            "rule {} has no fire/silent fixture test",
            kind.name()
        );
    }
}
