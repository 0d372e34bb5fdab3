//! Property tests of the scanner's robustness: [`scan::strip`] and
//! [`SourceFile::parse`] must digest *anything* — byte soup, truncated
//! literals, unbalanced braces, half-open block comments — without
//! panicking, deterministically, and preserving line structure. The
//! linter runs over every workspace source on every CI push; a scanner
//! panic on weird-but-legal input would take the whole gate down.

use pmor_lint::scan::{strip, SourceFile};
use proptest::prelude::*;

/// Tokens chosen to hit every scanner state: comment and string
/// delimiters (balanced and not), raw-string hash runs, char literals
/// vs lifetimes, braces, fn/test markers, kernel signatures, call
/// sites, and suppression directives (well- and mal-formed).
const FRAGMENTS: &[&str] = &[
    "fn ",
    "eval_into",
    "helper",
    "(",
    ")",
    "{",
    "}",
    "\n",
    " ",
    "\"",
    "\\\"",
    "'",
    "'a",
    "'x'",
    "r#\"",
    "\"#",
    "r\"",
    "b\"",
    "//",
    "///",
    "//!",
    "/*",
    "*/",
    "#[test]",
    "#[cfg(test)]",
    "&mut EvalWorkspace",
    ".unwrap()",
    "Vec::new()",
    "p.to_vec()",
    "let f = |x| x;",
    "mod m",
    "impl T",
    "// pmor-lint: allow(panic-in-lib) reason=\"fixture\"",
    "// pmor-lint: allow(",
    "reason=\"",
    "!",
    "::",
    "\u{1F980}",
    "\t",
];

/// Strings assembled from scanner-relevant fragments.
fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..120)
        .prop_map(|idx| idx.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
}

/// Arbitrary (lossy-decoded) byte soup.
fn byte_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..256, 0..400).prop_map(|bytes| {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&raw).into_owned()
    })
}

/// The stripped code lines re-joined into one text.
fn code_of(text: &str) -> String {
    strip(text)
        .into_iter()
        .map(|l| l.code)
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn strip_never_panics_and_preserves_line_structure(text in token_soup()) {
        let lines = strip(&text);
        prop_assert_eq!(lines.len(), text.split('\n').count());
    }

    #[test]
    fn strip_survives_byte_soup(text in byte_soup()) {
        let lines = strip(&text);
        prop_assert_eq!(lines.len(), text.split('\n').count());
    }

    #[test]
    fn strip_is_idempotent_on_its_own_output(text in token_soup()) {
        // Stripping is a projection: the blanked code contains no
        // comment or literal *contents* left to remove, so a second
        // pass must be a fixed point. This pins down the subtle cases —
        // raw-string blanking must leave a well-formed (empty) literal,
        // not a dangling delimiter that re-opens on the next pass.
        let once = code_of(&text);
        let twice = code_of(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn parse_never_panics_and_is_deterministic(text in token_soup()) {
        let a = SourceFile::parse("crates/core/src/soup.rs", &text);
        let b = SourceFile::parse("crates/core/src/soup.rs", &text);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Per-line facts stay line-aligned with the input.
        prop_assert_eq!(a.lines.len(), text.split('\n').count());
    }

    #[test]
    fn parse_survives_byte_soup(text in byte_soup()) {
        let file = SourceFile::parse("crates/core/src/soup.rs", &text);
        prop_assert_eq!(file.lines.len(), text.split('\n').count());
    }
}
