//! The rule registry: [`LintKind`] (symmetric to `ReducerKind` /
//! `AnalysisKind`) and the [`LintRule`] implementations encoding the
//! workspace's real invariants.
//!
//! Every rule documents *which* guarantee it guards. The repo's
//! headline claims — threads 1 vs N bitwise identical, zero hidden
//! factorizations, allocation-free eval kernels, loud typed errors —
//! are enforced at runtime by the conformance tests, but only on the
//! inputs those tests happen to run; these rules check the claims on
//! every source line of every PR.

use crate::report::Finding;
use crate::scan::{find_word, is_ident_char, SourceFile};

/// Registered static-analysis rules, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// Iteration over `HashMap`/`HashSet` in result-producing crates
    /// (`"det-hash-iter"`).
    DetHashIter,
    /// `std::thread::spawn`, or `thread::scope` outside the approved
    /// scoped-pool modules (`"det-unscoped-thread"`).
    DetUnscopedThread,
    /// `Instant`/`SystemTime` outside timing/provenance code
    /// (`"det-wallclock"`).
    DetWallclock,
    /// `unwrap`/`expect`/`panic!` in library crates outside tests
    /// (`"panic-in-lib"`).
    PanicInLib,
    /// Allocation inside `*_into` / `&mut EvalWorkspace` eval kernels
    /// (`"alloc-in-kernel"`).
    AllocInKernel,
    /// Float `.sum()`/`.fold()` over an unordered (hash-sourced)
    /// iterator (`"float-accum"`).
    FloatAccum,
    /// A workspace crate root missing `#![forbid(unsafe_code)]`
    /// (`"forbid-unsafe"`).
    ForbidUnsafe,
}

impl LintKind {
    /// Every registered rule, in presentation order.
    pub const ALL: [LintKind; 7] = [
        LintKind::DetHashIter,
        LintKind::DetUnscopedThread,
        LintKind::DetWallclock,
        LintKind::PanicInLib,
        LintKind::AllocInKernel,
        LintKind::FloatAccum,
        LintKind::ForbidUnsafe,
    ];

    /// The registry name — the id used in findings, allows, and
    /// `LINT_*.json` records.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::DetHashIter => "det-hash-iter",
            LintKind::DetUnscopedThread => "det-unscoped-thread",
            LintKind::DetWallclock => "det-wallclock",
            LintKind::PanicInLib => "panic-in-lib",
            LintKind::AllocInKernel => "alloc-in-kernel",
            LintKind::FloatAccum => "float-accum",
            LintKind::ForbidUnsafe => "forbid-unsafe",
        }
    }

    /// One-line description for `pmor list --lints`, delegated to the
    /// rule implementation so the registry is self-documenting.
    pub fn describe(self) -> &'static str {
        self.build().describe()
    }

    /// Looks a rule up by its registry name (case-insensitive).
    pub fn from_name(name: &str) -> Option<LintKind> {
        LintKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Builds the rule implementation.
    pub fn build(self) -> Box<dyn LintRule> {
        match self {
            LintKind::DetHashIter => Box::new(DetHashIter),
            LintKind::DetUnscopedThread => Box::new(DetUnscopedThread),
            LintKind::DetWallclock => Box::new(DetWallclock),
            LintKind::PanicInLib => Box::new(PanicInLib),
            LintKind::AllocInKernel => Box::new(AllocInKernel),
            LintKind::FloatAccum => Box::new(FloatAccum),
            LintKind::ForbidUnsafe => Box::new(ForbidUnsafe),
        }
    }
}

/// One static-analysis rule over a scanned source file.
pub trait LintRule {
    /// The registry entry this rule implements.
    fn kind(&self) -> LintKind;

    /// One-line description — what `pmor list --lints` prints.
    fn describe(&self) -> &'static str;

    /// Whether `path` (workspace-relative, `/`-separated) is in this
    /// rule's scope at all. Out-of-scope files produce no findings and
    /// make allows for this rule unused.
    fn in_scope(&self, path: &str) -> bool;

    /// Raw findings for `file` — suppression is applied by the caller.
    fn check(&self, file: &SourceFile) -> Vec<Finding>;
}

/// Runs every registered rule over `file` (suppressions not yet
/// applied — see [`crate::lint_text`]).
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for kind in LintKind::ALL {
        let rule = kind.build();
        if rule.in_scope(&file.path) {
            findings.extend(rule.check(file));
        }
    }
    findings.sort_by_key(|a| a.line);
    findings
}

/// Crates whose numeric output reaches users: a nondeterministic
/// iteration order here can leak into results.
const RESULT_CRATES: [&str; 4] = [
    "crates/core/",
    "crates/sparse/",
    "crates/variation/",
    "crates/circuits/",
];

/// The scoped-thread-pool modules where `std::thread::scope` is the
/// approved mechanism (serial-identical batch factorization, the
/// chunked eval engine, parallel method×analysis CLI jobs, and the
/// `[serve-*]` bench entries' concurrent-client fan-out). A new pool
/// belongs on this list — adding it here is a reviewable act.
pub const APPROVED_SCOPE_MODULES: [&str; 4] = [
    "crates/core/src/engine.rs",
    "crates/sparse/src/factor_cache.rs",
    "crates/cli/src/exec.rs",
    "crates/cli/src/bench_cmd.rs",
];

fn in_result_crate(path: &str) -> bool {
    RESULT_CRATES.iter().any(|c| path.starts_with(c))
}

fn finding(kind: LintKind, file: &SourceFile, line: usize, message: String) -> Finding {
    Finding {
        rule: kind,
        file: file.path.clone(),
        line,
        message,
    }
}

/// `det-hash-iter`: flags iteration over hash containers in
/// result-producing crates. Storage and point lookups are fine —
/// `ReductionContext` keeps its factors in a `HashMap` and never
/// iterates it — but `.keys()`/`.values()`/`.iter()`/`.drain()`/`for … in` walk the
/// container in an order that varies with insertion history and hasher
/// seed, and any numeric fold over that order is a determinism bug.
struct DetHashIter;

/// Methods that walk a hash container in storage order.
const HASH_ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

impl LintRule for DetHashIter {
    fn kind(&self) -> LintKind {
        LintKind::DetHashIter
    }

    fn describe(&self) -> &'static str {
        "iteration over HashMap/HashSet in result-producing crates \
         (ordering leaks into numeric output)"
    }

    fn in_scope(&self, path: &str) -> bool {
        in_result_crate(path)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, info) in file.lines.iter().enumerate() {
            if info.in_test {
                continue;
            }
            let code = info.code.as_str();
            for name in &file.hash_idents {
                for method in HASH_ITER_METHODS {
                    if receiver_calls(code, name, method) {
                        out.push(finding(
                            self.kind(),
                            file,
                            i + 1,
                            format!(
                                "`{name}{method}` iterates a hash container in a \
                                 result-producing crate; hash order is not \
                                 deterministic — use a BTreeMap/sorted Vec or \
                                 justify with an allow"
                            ),
                        ));
                    }
                }
                if for_loop_over(code, name) {
                    out.push(finding(
                        self.kind(),
                        file,
                        i + 1,
                        format!(
                            "`for … in {name}` iterates a hash container in a \
                             result-producing crate; hash order is not \
                             deterministic"
                        ),
                    ));
                }
            }
            // Iterating a hash temporary directly: `HashMap::from(…).iter()`.
            if (code.contains("HashMap") || code.contains("HashSet"))
                && HASH_ITER_METHODS.iter().any(|m| code.contains(m))
                && file
                    .hash_idents
                    .iter()
                    .all(|n| !HASH_ITER_METHODS.iter().any(|m| receiver_calls(code, n, m)))
            {
                out.push(finding(
                    self.kind(),
                    file,
                    i + 1,
                    "iteration over a HashMap/HashSet expression; hash order is \
                     not deterministic"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// Whether `code` calls `name<method>` or `self.name<method>`.
fn receiver_calls(code: &str, name: &str, method: &str) -> bool {
    let needle = format!("{name}{method}");
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(&needle) {
        let pos = from + rel;
        let before = code[..pos].chars().next_back();
        // `name` must start an identifier here ( `foo_name.iter()` must
        // not match `name`); a leading `.` is fine only for `self.name`.
        let standalone = before.is_none_or(|c| !is_ident_char(c));
        if standalone {
            let self_field = code[..pos].ends_with("self.");
            let plain = before != Some('.');
            if plain || self_field {
                return true;
            }
        }
        from = pos + name.len();
    }
    false
}

/// Whether `code` contains `for … in [&[mut ]]name` ending the
/// iterated expression (optionally with a trailing `{`).
fn for_loop_over(code: &str, name: &str) -> bool {
    let Some(for_pos) = find_word(code, "for") else {
        return false;
    };
    let Some(in_rel) = find_word(&code[for_pos..], "in") else {
        return false;
    };
    let expr = code[for_pos + in_rel + 2..].trim();
    let expr = expr.strip_suffix('{').unwrap_or(expr).trim_end();
    let expr = expr
        .strip_prefix('&')
        .map(|e| e.strip_prefix("mut ").unwrap_or(e).trim_start())
        .unwrap_or(expr);
    expr == name || expr == format!("self.{name}")
}

/// `det-unscoped-thread`: `std::thread::spawn` creates a detached
/// thread whose join and panic discipline is invisible to the
/// serial-identical accounting the workspace's pools guarantee; it is
/// flagged everywhere. `thread::scope` is the approved mechanism, but
/// only inside the known pool modules ([`APPROVED_SCOPE_MODULES`]) —
/// a scoped pool hiding elsewhere still needs the serial-vs-parallel
/// bitwise conformance treatment before it is approved.
struct DetUnscopedThread;

impl LintRule for DetUnscopedThread {
    fn kind(&self) -> LintKind {
        LintKind::DetUnscopedThread
    }

    fn describe(&self) -> &'static str {
        "std::thread::spawn anywhere, or thread::scope outside the \
         approved scoped-pool modules"
    }

    fn in_scope(&self, _path: &str) -> bool {
        true
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let approved = APPROVED_SCOPE_MODULES.contains(&file.path.as_str());
        let mut out = Vec::new();
        for (i, info) in file.lines.iter().enumerate() {
            if info.in_test {
                continue;
            }
            let code = info.code.as_str();
            if code.contains("thread::spawn") || code.contains("thread::Builder") {
                out.push(finding(
                    self.kind(),
                    file,
                    i + 1,
                    "detached `thread::spawn` escapes the workspace's \
                     scoped-pool discipline (join order, panic propagation, \
                     serial-identical accounting)"
                        .to_string(),
                ));
            } else if code.contains("thread::scope") && !approved {
                out.push(finding(
                    self.kind(),
                    file,
                    i + 1,
                    "`thread::scope` outside the approved scoped-pool modules \
                     — prove serial-vs-parallel bitwise identity and add the \
                     module to APPROVED_SCOPE_MODULES, or route through an \
                     existing pool"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// `det-wallclock`: `Instant`/`SystemTime` reads are fine for
/// provenance but a determinism bug the moment they steer numerics
/// (adaptive budgets, iteration cutoffs). `pmor-bench` *is* the timing
/// harness, so it is out of scope wholesale; everywhere else each use
/// must carry a reasoned allow naming itself as provenance-only.
struct DetWallclock;

impl LintRule for DetWallclock {
    fn kind(&self) -> LintKind {
        LintKind::DetWallclock
    }

    fn describe(&self) -> &'static str {
        "Instant/SystemTime outside timing/provenance code \
         (wall-clock must never steer numerics)"
    }

    fn in_scope(&self, path: &str) -> bool {
        !path.starts_with("crates/bench/")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, info) in file.lines.iter().enumerate() {
            if info.in_test {
                continue;
            }
            for what in ["Instant", "SystemTime"] {
                if find_word(&info.code, what).is_some() {
                    out.push(finding(
                        self.kind(),
                        file,
                        i + 1,
                        format!(
                            "`{what}` outside the timing harness — wall-clock \
                             must never steer numerics; justify \
                             provenance-only reads with an allow"
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `panic-in-lib`: library code reports failure through typed errors
/// (`SparseError` and friends); `unwrap`/`expect`/`panic!` outside
/// `#[cfg(test)]` either hides a genuinely fallible path (convert it)
/// or encodes a provable invariant (annotate it with the proof as the
/// allow reason). A crate's `main.rs` may panic — its output is a
/// terminal, not a caller. No other file is exempt: the workspace ships
/// its one binary from `main.rs` and has no `src/bin/` targets.
struct PanicInLib;

/// Panic spellings the rule recognizes.
const PANIC_PATTERNS: [(&str, &str); 3] = [
    (".unwrap()", "unwrap()"),
    (".expect(", "expect()"),
    ("panic!", "panic!"),
];

impl LintRule for PanicInLib {
    fn kind(&self) -> LintKind {
        LintKind::PanicInLib
    }

    fn describe(&self) -> &'static str {
        "unwrap/expect/panic! in library code outside #[cfg(test)] \
         (loud typed Results are the house style)"
    }

    fn in_scope(&self, path: &str) -> bool {
        !path.ends_with("/main.rs")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, info) in file.lines.iter().enumerate() {
            if info.in_test {
                continue;
            }
            let code = info.code.as_str();
            for (pat, what) in PANIC_PATTERNS {
                let mut from = 0usize;
                while let Some(rel) = code[from..].find(pat) {
                    let pos = from + rel;
                    // `.expect(` must not match `.expect_err(`;
                    // `panic!` must not match inside a longer ident.
                    let clean = if pat == "panic!" {
                        pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap_or(' '))
                    } else {
                        true
                    };
                    if clean {
                        out.push(finding(
                            self.kind(),
                            file,
                            i + 1,
                            format!(
                                "`{what}` in library code — return a typed \
                                 error, or annotate the infallibility proof \
                                 with an allow"
                            ),
                        ));
                        // One finding per pattern per line is enough.
                        break;
                    }
                    from = pos + pat.len();
                }
            }
        }
        out
    }
}

/// `alloc-in-kernel`: the eval hot path is allocation-free by design —
/// `*_into` kernels write into caller buffers and `EvalWorkspace`
/// owns every scratch vector, which is what makes batched evaluation
/// scale linearly across worker threads. An allocation inside such a
/// kernel is a per-call heap round-trip multiplied by every MC
/// instance × frequency point. This per-file rule is the early warning;
/// the exact counts in `tests/eval_allocations.rs` are the proof.
struct AllocInKernel;

/// Allocation spellings the rule recognizes.
const ALLOC_PATTERNS: [(&str, &str); 7] = [
    ("Vec::new(", "Vec::new"),
    ("Vec::with_capacity(", "Vec::with_capacity"),
    ("vec![", "vec!"),
    (".clone()", ".clone()"),
    (".collect()", ".collect()"),
    (".collect::<", ".collect()"),
    (".to_vec()", ".to_vec()"),
];

impl LintRule for AllocInKernel {
    fn kind(&self) -> LintKind {
        LintKind::AllocInKernel
    }

    fn describe(&self) -> &'static str {
        "allocation (Vec::new, vec!, .clone, .collect, …) inside \
         *_into / &mut EvalWorkspace eval kernels"
    }

    fn in_scope(&self, _path: &str) -> bool {
        true
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, info) in file.lines.iter().enumerate() {
            if info.in_test {
                continue;
            }
            let Some(kernel) = &info.kernel else { continue };
            for (pat, what) in ALLOC_PATTERNS {
                if info.code.contains(pat) {
                    out.push(finding(
                        self.kind(),
                        file,
                        i + 1,
                        format!(
                            "`{what}` inside eval kernel `{kernel}` — kernels \
                             are allocation-free by contract; use the \
                             workspace's scratch buffers"
                        ),
                    ));
                    break;
                }
            }
        }
        out
    }
}

/// `float-accum`: float addition is not associative, so a `.sum()` or
/// accumulating `.fold()` whose iterator comes from a hash container
/// produces hasher-seed-dependent bits. Max/min folds are
/// order-insensitive and exempt. Slice iteration is ordered and fine —
/// the rule triggers only when the statement's chain shows an
/// unordered source.
struct FloatAccum;

impl LintRule for FloatAccum {
    fn kind(&self) -> LintKind {
        LintKind::FloatAccum
    }

    fn describe(&self) -> &'static str {
        "float .sum()/.fold() over an unordered hash-sourced \
         iterator (reassociation changes bits)"
    }

    fn in_scope(&self, path: &str) -> bool {
        in_result_crate(path)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, info) in file.lines.iter().enumerate() {
            if info.in_test {
                continue;
            }
            let code = info.code.as_str();
            let sum_pos = code.find(".sum()").or_else(|| code.find(".sum::<"));
            let fold_pos = code.find(".fold(");
            let fold_ordered = fold_pos.is_some_and(|p| {
                let args = &code[p + ".fold(".len()..];
                args.contains("f64::max")
                    || args.contains("f64::min")
                    || args.contains(".max(")
                    || args.contains(".min(")
            });
            let accum = sum_pos.is_some() || (fold_pos.is_some() && !fold_ordered);
            if !accum {
                continue;
            }
            let stmt = file.statement_around(i + 1);
            let unordered = [
                ".keys()",
                ".values()",
                ".drain(",
                ".into_keys()",
                ".into_values()",
            ]
            .iter()
            .any(|m| stmt.contains(m))
                || file.hash_idents.iter().any(|n| {
                    HASH_ITER_METHODS
                        .iter()
                        .any(|m| receiver_calls(&stmt, n, m))
                });
            if unordered {
                out.push(finding(
                    self.kind(),
                    file,
                    i + 1,
                    "float accumulation over an unordered hash-sourced \
                     iterator — reassociation changes bits; collect and sort \
                     first, or justify order-insensitivity with an allow"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// `forbid-unsafe`: no workspace crate needs `unsafe`; the crate roots
/// say so with `#![forbid(unsafe_code)]` and this rule keeps the
/// attribute from silently disappearing in a refactor.
struct ForbidUnsafe;

impl LintRule for ForbidUnsafe {
    fn kind(&self) -> LintKind {
        LintKind::ForbidUnsafe
    }

    fn describe(&self) -> &'static str {
        "workspace crate roots must carry #![forbid(unsafe_code)]"
    }

    fn in_scope(&self, path: &str) -> bool {
        path.starts_with("crates/") && path.ends_with("/src/lib.rs")
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let present = file
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if present {
            Vec::new()
        } else {
            vec![finding(
                self.kind(),
                file,
                1,
                "crate root misses `#![forbid(unsafe_code)]` — every \
                 workspace crate forbids unsafe"
                    .to_string(),
            )]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_round_trip() {
        for kind in LintKind::ALL {
            assert_eq!(LintKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
            assert!(!kind.describe().is_empty());
        }
        assert_eq!(
            LintKind::from_name("DET-HASH-ITER"),
            Some(LintKind::DetHashIter)
        );
        assert_eq!(LintKind::from_name("nope"), None);
    }

    #[test]
    fn receiver_matching_is_word_aligned() {
        assert!(receiver_calls("for k in map.keys() {", "map", ".keys()"));
        assert!(receiver_calls("self.real.keys()", "real", ".keys()"));
        assert!(!receiver_calls("bitmap.keys()", "map", ".keys()"));
        assert!(!receiver_calls("other.map.keys()", "map", ".keys()"));
    }

    #[test]
    fn for_loops_over_hash_idents_match() {
        assert!(for_loop_over("for (k, v) in &seen {", "seen"));
        assert!(for_loop_over("for x in seen {", "seen"));
        assert!(for_loop_over("for x in &mut seen {", "seen"));
        assert!(!for_loop_over("for x in seen.iter() {", "seen"));
        assert!(!for_loop_over("for x in chosen {", "seen"));
    }
}
