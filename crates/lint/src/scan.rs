//! Source scanning: comment/string stripping, scope tracking, and
//! suppression directives.
//!
//! The rules in [`crate::rules`] match *token text*, so the scanner's
//! job is to hand them an honest view of each line: string literals and
//! comments blanked (a `panic!` inside an error message or a doc
//! example must not fire), `#[cfg(test)]` regions marked (test code may
//! unwrap freely), enclosing functions tracked (the `alloc-in-kernel`
//! rule needs to know it is inside a `*_into` kernel), and hash-typed
//! identifiers collected (the `det-hash-iter` rule flags iteration, not
//! mere storage). Everything is hand-rolled line/char analysis in the
//! house style of the TOML parser in `pmor-bench` — no syn, no regex,
//! no dependencies.

use crate::rules::LintKind;

/// A `// pmor-lint: allow(rule, …) reason="…"` suppression site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// Rules the directive suppresses.
    pub rules: Vec<LintKind>,
    /// 1-based line of the directive comment itself.
    pub line: usize,
    /// 1-based code line the directive covers: the same line for a
    /// trailing comment, the next non-blank code line for an own-line
    /// comment.
    pub target_line: usize,
    /// The mandatory justification.
    pub reason: String,
}

/// A malformed suppression directive (unknown rule, missing reason,
/// unparsable syntax). These are hard errors: a ledger with illegible
/// entries is no ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllow {
    /// 1-based line of the directive.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// One function span, as far as the line scanner can tell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FnSpan {
    /// The function name.
    name: String,
    /// Signature text (`fn` keyword through the body `{`).
    signature: String,
    /// Brace depth of the body's opening `{` (the body is every line
    /// while the running depth stays above this).
    depth: usize,
}

/// Per-line facts the rules consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineInfo {
    /// The line with comments and string/char literal contents blanked.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` module/function or
    /// a `#[test]` function.
    pub in_test: bool,
    /// Name of the enclosing eval-kernel function, when the line sits
    /// inside one (`*_into` name or a `&mut EvalWorkspace` parameter).
    pub kernel: Option<String>,
}

/// A scanned source file: blanked lines, scope facts, identifier
/// tables, and suppression directives.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across
    /// platforms, so reports and allows diff cleanly).
    pub path: String,
    /// Per-line facts, index 0 = line 1.
    pub lines: Vec<LineInfo>,
    /// Identifiers bound, typed, or declared as `HashMap`/`HashSet` in
    /// this file (let bindings, struct fields, fn parameters).
    pub hash_idents: Vec<String>,
    /// Well-formed suppression directives.
    pub allows: Vec<AllowSite>,
    /// Malformed suppression directives.
    pub bad_allows: Vec<BadAllow>,
}

impl SourceFile {
    /// Scans `text` as the contents of `path`.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let stripped = strip(text);
        let mut file = SourceFile {
            path: path.to_string(),
            lines: Vec::with_capacity(stripped.len()),
            hash_idents: Vec::new(),
            allows: Vec::new(),
            bad_allows: Vec::new(),
        };
        file.collect_allows(&stripped);
        file.build_lines(&stripped);
        file.collect_hash_idents();
        file
    }

    /// The blanked code of a 1-based line (empty for out-of-range).
    pub fn code(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map_or("", |l| l.code.as_str())
    }

    /// Text of the statement a 1-based line belongs to: the line itself
    /// plus preceding chain lines back to the last `;`/`{`/`}`-ended or
    /// blank line. Multi-line iterator chains are the reason — a
    /// `.fold(…)` on its own line needs the `.values()` two lines up to
    /// be visible to the `float-accum` rule.
    pub fn statement_around(&self, line: usize) -> String {
        let idx = line.saturating_sub(1).min(self.lines.len());
        let mut start = idx;
        while start > 0 {
            let prev = self.lines[start - 1].code.trim_end();
            if prev.trim().is_empty()
                || prev.ends_with(';')
                || prev.ends_with('{')
                || prev.ends_with('}')
            {
                break;
            }
            start -= 1;
        }
        let mut out = String::new();
        for l in &self.lines[start..=idx.min(self.lines.len().saturating_sub(1))] {
            out.push_str(&l.code);
            out.push(' ');
        }
        out
    }

    /// Extracts `pmor-lint:` directives from plain `//` comments.
    fn collect_allows(&mut self, stripped: &[StrippedLine]) {
        for (i, sl) in stripped.iter().enumerate() {
            let Some(comment) = &sl.comment else { continue };
            let Some(pos) = comment.find("pmor-lint:") else {
                continue;
            };
            let line = i + 1;
            let directive = comment[pos + "pmor-lint:".len()..].trim();
            // Own-line directives cover the next line that carries code.
            let target_line = if sl.code.trim().is_empty() {
                let mut t = line + 1;
                while t <= stripped.len() && stripped[t - 1].code.trim().is_empty() {
                    t += 1;
                }
                t
            } else {
                line
            };
            match parse_allow(directive) {
                Ok((rules, reason)) => self.allows.push(AllowSite {
                    rules,
                    line,
                    target_line,
                    reason,
                }),
                Err(message) => self.bad_allows.push(BadAllow { line, message }),
            }
        }
    }

    /// Second pass: brace-depth walk marking test regions and function
    /// bodies.
    fn build_lines(&mut self, stripped: &[StrippedLine]) {
        let mut depth = 0usize;
        // Depth at which a `#[cfg(test)]`/`#[test]` block opened; the
        // region covers every line while the depth stays above it.
        let mut test_at: Option<usize> = None;
        // `#[cfg(test)]` seen, block not yet opened.
        let mut pending_test = false;
        // `fn` seen, signature accumulating until its body `{` opens:
        // (name, signature so far).
        let mut pending_fn: Option<(String, String)> = None;
        let mut fn_stack: Vec<FnSpan> = Vec::new();

        for sl in stripped {
            let code = &sl.code;
            let trimmed = code.trim();
            if test_at.is_none()
                && (trimmed.starts_with("#[cfg(test)]")
                    || trimmed.starts_with("#[cfg(all(test")
                    || trimmed.starts_with("#[test]"))
            {
                pending_test = true;
            }
            if pending_fn.is_none() {
                pending_fn = fn_signature_start(code);
            } else if let Some((_, sig)) = pending_fn.as_mut() {
                sig.push(' ');
                sig.push_str(trimmed);
            }

            // The line belongs to the scopes that were open when it
            // started, except that an opening brace on this line pulls
            // the line into the region (the `fn … {` header line itself
            // is part of the function).
            let opens = code.matches('{').count();
            let closes = code.matches('}').count();
            let line_in_test = test_at.is_some() || (pending_test && opens > 0);
            let line_kernel = {
                let mut kernel = fn_stack
                    .iter()
                    .rev()
                    .find_map(|f| is_kernel(&f.name, &f.signature).then(|| f.name.clone()));
                if kernel.is_none() && opens > 0 {
                    if let Some((name, sig)) = &pending_fn {
                        if is_kernel(name, sig) {
                            kernel = Some(name.clone());
                        }
                    }
                }
                kernel
            };

            // Update the scope state with this line's braces, char by
            // char so a `}` that closes a region before a `{` opens a
            // sibling is handled in order.
            for ch in code.chars() {
                match ch {
                    '{' => {
                        if pending_test {
                            test_at = Some(depth);
                            pending_test = false;
                        }
                        if let Some((name, signature)) = pending_fn.take() {
                            fn_stack.push(FnSpan {
                                name,
                                signature,
                                depth,
                            });
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_at == Some(depth) {
                            test_at = None;
                        }
                        while fn_stack.last().is_some_and(|span| span.depth >= depth) {
                            fn_stack.pop();
                        }
                    }
                    _ => {}
                }
            }
            // An attribute or signature that ends in `;` without a body
            // (trait method, extern) cancels the pending states.
            if trimmed.ends_with(';') {
                pending_fn = None;
                if opens == 0 && closes == 0 {
                    pending_test = pending_test && !trimmed.starts_with("use ");
                }
            }

            self.lines.push(LineInfo {
                code: code.clone(),
                in_test: line_in_test,
                kernel: line_kernel,
            });
        }
    }

    /// Collects identifiers this file binds, types, or declares as
    /// `HashMap`/`HashSet`: `let` bindings (by annotation or RHS),
    /// struct fields, and function parameters.
    fn collect_hash_idents(&mut self) {
        let mut found: Vec<String> = Vec::new();
        for info in &self.lines {
            let code = info.code.as_str();
            if !(code.contains("HashMap") || code.contains("HashSet")) {
                continue;
            }
            // `let [mut] name: … Hash… = …` / `let [mut] name = Hash…`.
            if let Some(pos) = find_word(code, "let") {
                let rest = code[pos + 3..].trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
                if !name.is_empty() && !found.contains(&name) {
                    found.push(name);
                }
                continue;
            }
            // `name: [&][mut ]…Hash…<…>` — struct field or fn parameter.
            if let Some(colon) = code.find(':') {
                let (before, after) = code.split_at(colon);
                let hash_after = after.contains("HashMap") || after.contains("HashSet");
                let name: String = before
                    .chars()
                    .rev()
                    .take_while(|c| is_ident_char(*c))
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if hash_after
                    && !name.is_empty()
                    && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !found.contains(&name)
                {
                    found.push(name);
                }
            }
        }
        self.hash_idents = found;
    }
}

/// Whether a function is an allocation-free eval kernel by the
/// workspace's conventions: a `*_into` output-buffer kernel, or any
/// function threading a `&mut EvalWorkspace` scratch arena.
fn is_kernel(name: &str, signature: &str) -> bool {
    name.ends_with("_into") || (signature.contains("EvalWorkspace") && signature.contains("&mut"))
}

/// Detects `fn name` on a blanked line and returns the name plus the
/// signature text seen so far.
fn fn_signature_start(code: &str) -> Option<(String, String)> {
    let pos = find_word(code, "fn")?;
    let rest = code[pos + 2..].trim_start();
    let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    if name.is_empty() {
        return None;
    }
    Some((name, code[pos..].trim().to_string()))
}

/// One line after literal/comment stripping.
#[derive(Debug, Clone, Default)]
pub struct StrippedLine {
    /// Code with string/char contents and comments blanked.
    pub code: String,
    /// Contents of a `//` line comment, when one was stripped and it is
    /// not a doc comment (`///` and `//!` are documentation — a
    /// directive there would be an example, not a suppression).
    pub comment: Option<String>,
}

/// Strips comments and string/char literals, preserving line structure.
/// Handles nested block comments, escapes, raw strings (`r"…"`,
/// `r#"…"#`, any `#` count, plus byte/raw-byte forms) and
/// distinguishes char literals from lifetimes.
pub fn strip(text: &str) -> Vec<StrippedLine> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        Block(usize),  // nesting depth
        Str,           // inside "…"
        RawStr(usize), // inside r#"…"# with N hashes
    }
    let mut out: Vec<StrippedLine> = Vec::new();
    let mut mode = Mode::Code;
    for raw in text.split('\n') {
        let chars: Vec<char> = raw.chars().collect();
        let mut line = StrippedLine::default();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            match mode {
                Mode::Block(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '"' {
                        mode = Mode::Code;
                        line.code.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"'
                        && chars.len() > i + hashes
                        && chars[i + 1..=i + hashes].iter().all(|&h| h == '#')
                    {
                        mode = Mode::Code;
                        line.code.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                Mode::Code => {
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        let body: String = chars[i + 2..].iter().collect();
                        let doc = body.starts_with('/') || body.starts_with('!');
                        if !doc {
                            line.comment = Some(body);
                        }
                        break;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    } else if c == 'r'
                        && !prev_is_ident(&chars, i)
                        && raw_string_hashes(&chars, i + 1).is_some()
                    {
                        let hashes = raw_string_hashes(&chars, i + 1).unwrap_or(0);
                        line.code.push('"');
                        mode = Mode::RawStr(hashes);
                        i += 2 + hashes;
                    } else if c == 'b'
                        && !prev_is_ident(&chars, i)
                        && chars.get(i + 1) == Some(&'"')
                    {
                        line.code.push('"');
                        mode = Mode::Str;
                        i += 2;
                    } else if c == '\'' {
                        // Char literal vs lifetime: a literal closes with
                        // `'` after one (possibly escaped) character. A
                        // blanked literal keeps *both* quotes (`''`) so
                        // stripping its own output changes nothing — the
                        // property tests pin that projection.
                        if chars.get(i + 1) == Some(&'\\') {
                            match chars[i + 2..].iter().position(|&x| x == '\'') {
                                Some(p) => {
                                    line.code.push_str("''");
                                    i += p + 3;
                                }
                                None => {
                                    line.code.push('\'');
                                    i += 1;
                                }
                            }
                        } else if chars.get(i + 1) == Some(&'\'') {
                            // Already-blanked (or degenerate) empty literal.
                            line.code.push_str("''");
                            i += 2;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            line.code.push_str("''");
                            i += 3;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        // Unterminated string at end of line: ordinary `"` strings do
        // continue across lines in Rust; keep the mode.
        out.push(line);
    }
    out
}

/// Whether `r` / `b` at `chars[i]` is preceded by an identifier char
/// (then it is part of a name like `for`, not a literal prefix).
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

/// For `r` at position `start - 1`: number of `#` before an opening
/// `"`, or `None` when this is not a raw string start.
fn raw_string_hashes(chars: &[char], start: usize) -> Option<usize> {
    let mut n = 0usize;
    while chars.get(start + n) == Some(&'#') {
        n += 1;
    }
    (chars.get(start + n) == Some(&'"')).then_some(n)
}

/// Whether `c` can be part of an identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte position of `needle` in `code` as a whole word (not embedded in
/// a longer identifier).
pub fn find_word(code: &str, needle: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(needle) {
        let pos = from + rel;
        let before_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap_or(' '));
        let after_ok = code[pos + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + needle.len();
    }
    None
}

/// Parses the tail of a directive: `allow(rule-a, rule-b) reason="…"`.
fn parse_allow(text: &str) -> Result<(Vec<LintKind>, String), String> {
    let Some(rest) = text.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<rule>, …) reason=\"…\"`, got `{}`",
            text.trim()
        ));
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(` rule list".into());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match LintKind::from_name(name) {
            Some(kind) => {
                if !rules.contains(&kind) {
                    rules.push(kind);
                }
            }
            None => return Err(format!("unknown rule {name:?} (see `pmor list --lints`)")),
        }
    }
    if rules.is_empty() {
        return Err("empty rule list in `allow()`".into());
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("reason=\"") else {
        return Err("missing `reason=\"…\"` — every suppression must say why".into());
    };
    let Some(end) = reason.find('"') else {
        return Err("unterminated reason string".into());
    };
    let reason = reason[..end].trim();
    if reason.is_empty() {
        return Err("empty reason — every suppression must say why".into());
    }
    Ok((rules, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"panic!()\"; // unwrap() here\nlet b = 'x';\n/* panic! */ let c = 1;",
        );
        assert!(!f.code(1).contains("panic"));
        assert!(!f.code(1).contains("unwrap"));
        assert!(f.code(2).contains("let b"));
        assert!(f.code(3).contains("let c"));
        assert!(!f.code(3).contains("panic"));
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let f = SourceFile::parse(
            "x.rs",
            "let s = r#\"unwrap() \"quoted\" \"#; fn g<'a>(x: &'a str) {}",
        );
        assert!(!f.code(1).contains("unwrap"));
        assert!(f.code(1).contains("fn g<'a>"));
    }

    #[test]
    fn multiline_block_comments_nest() {
        let f = SourceFile::parse("x.rs", "/* a /* b */ panic! */\nlet x = 1;");
        assert!(!f.code(1).contains("panic"));
        assert!(f.code(2).contains("let x"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn lib() { a.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { b.unwrap(); }\n\
                   }\n\
                   fn lib2() {}";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn kernel_functions_are_tracked() {
        let src = "pub fn mul_vec_into(&self, out: &mut [f64]) {\n\
                       let v = Vec::new();\n\
                   }\n\
                   fn plain(ws: &mut EvalWorkspace,\n\
                            n: usize) {\n\
                       let v = vec![0.0];\n\
                   }\n\
                   fn free() { let v = Vec::new(); }";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.lines[1].kernel.as_deref(), Some("mul_vec_into"));
        assert_eq!(f.lines[5].kernel.as_deref(), Some("plain"));
        assert_eq!(f.lines[7].kernel, None);
    }

    #[test]
    fn fn_regions_are_delimited() {
        let src = "pub fn mul_vec_into(&self, out: &mut [f64]) {\n\
                       helper(out);\n\
                   }\n\
                   fn helper(out: &mut [f64]) {\n\
                       out[0] = 1.0;\n\
                   }\n\
                   fn outer_into(out: &mut [f64]) {\n\
                       fn inner(x: f64) -> f64 {\n\
                           x\n\
                       }\n\
                       out[0] = inner(1.0);\n\
                   }";
        let f = SourceFile::parse("x.rs", src);
        let kernels: Vec<Option<&str>> = f.lines.iter().map(|l| l.kernel.as_deref()).collect();
        // A kernel covers its header through its closing brace and no
        // further; a nested plain fn stays inside the enclosing kernel.
        assert_eq!(
            kernels,
            [
                Some("mul_vec_into"),
                Some("mul_vec_into"),
                Some("mul_vec_into"),
                None,
                None,
                None,
                Some("outer_into"),
                Some("outer_into"),
                Some("outer_into"),
                Some("outer_into"),
                Some("outer_into"),
                Some("outer_into"),
            ]
        );
    }

    #[test]
    fn hash_idents_are_collected() {
        let src = "use std::collections::HashMap;\n\
                   struct S { real: HashMap<u64, f64> }\n\
                   fn f(by_name: &HashMap<String, usize>) {\n\
                       let mut seen = std::collections::HashSet::new();\n\
                       let plain = Vec::new();\n\
                   }";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.hash_idents.contains(&"real".to_string()));
        assert!(f.hash_idents.contains(&"by_name".to_string()));
        assert!(f.hash_idents.contains(&"seen".to_string()));
        assert!(!f.hash_idents.contains(&"plain".to_string()));
    }

    #[test]
    fn allow_directives_parse_and_target() {
        let src = "// pmor-lint: allow(panic-in-lib) reason=\"poisoning needs a prior panic\"\n\
                   let x = lock.unwrap();\n\
                   let y = m.unwrap(); // pmor-lint: allow(panic-in-lib, det-wallclock) reason=\"both\"";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].target_line, 2);
        assert_eq!(f.allows[0].rules, vec![LintKind::PanicInLib]);
        assert_eq!(f.allows[1].target_line, 3);
        assert_eq!(f.allows[1].rules.len(), 2);
        assert!(f.bad_allows.is_empty());
    }

    #[test]
    fn malformed_allows_are_reported() {
        for (src, needle) in [
            (
                "// pmor-lint: allow(nope) reason=\"x\"\nlet a = 1;",
                "unknown rule",
            ),
            (
                "// pmor-lint: allow(panic-in-lib)\nlet a = 1;",
                "missing `reason",
            ),
            (
                "// pmor-lint: allow(panic-in-lib) reason=\"\"\nlet a = 1;",
                "empty reason",
            ),
            ("// pmor-lint: deny(x)\nlet a = 1;", "expected `allow"),
        ] {
            let f = SourceFile::parse("x.rs", src);
            assert_eq!(f.bad_allows.len(), 1, "{src}");
            assert!(
                f.bad_allows[0].message.contains(needle),
                "{src}: {}",
                f.bad_allows[0].message
            );
        }
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        let src = "/// pmor-lint: allow(panic-in-lib) reason=\"doc example\"\nfn f() {}";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allows.is_empty());
        assert!(f.bad_allows.is_empty());
    }

    #[test]
    fn statement_context_spans_chain_lines() {
        let src = "let s = m.values()\n    .map(|x| x * 2.0)\n    .fold(0.0, |a, b| a + b);";
        let f = SourceFile::parse("x.rs", src);
        let stmt = f.statement_around(3);
        assert!(stmt.contains(".values()"));
        assert!(stmt.contains(".fold("));
    }
}
