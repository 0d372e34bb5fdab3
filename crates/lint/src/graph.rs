//! Cross-file semantic pass: workspace call graph and the transitive
//! `panic-reachable-hot` rule.
//!
//! The per-line rules in [`crate::rules`] are lexical and file-local —
//! a ledgered panic one call below a kernel is invisible to them. This
//! module builds a conservative, name-resolved call graph over every
//! scanned source file and walks it:
//!
//! * **Symbol table** — every non-test `fn` definition, keyed by its
//!   simple name. Rust method calls carry no receiver type at this
//!   level of analysis, so a call to `solve_into` is resolved to
//!   *every* workspace function named `solve_into`; the `candidates`
//!   count on each edge records the ambiguity instead of hiding it.
//! * **Call extraction** — an identifier followed by `(` on a stripped,
//!   non-test line inside a function body. Macros (`name!(`),
//!   definitions (`fn name(`), control keywords (`if (…)`) and
//!   CamelCase constructors (`Some(`, `SparseError::Io(`) are not
//!   calls. Unresolved names (std, core) produce no edge.
//! * **Transitive rule** — `panic-reachable-hot`: a ledgered panic
//!   site reachable from a kernel or a hot-path module. Each finding is
//!   anchored at the *sink* line so the ordinary allow machinery
//!   applies, and carries the full witness path.
//!
//! Soundness: the graph over-approximates (ambiguous names fan out to
//! all candidates; `summary.ambiguous_edges` in the `CALLGRAPH_*.json`
//! report counts them) but cannot see calls through function pointers,
//! closures passed as values, `Type::fn(` paths, or macro-generated
//! code. Allocation-freedom of the eval kernels is therefore not proven
//! here but at runtime, by the counting allocator in
//! `tests/eval_allocations.rs`.

use crate::report::Finding;
use crate::rules::{LintKind, PANIC_PATTERNS};
use crate::scan::{find_word, is_ident_char, SourceFile};
use std::collections::{BTreeMap, VecDeque};

/// Modules whose functions are hot-path roots even when they are not
/// kernels by signature: the batched eval engine and the factor cache
/// serve concurrent clients, so a panic reachable from them is a
/// production outage, not a programming aid.
pub const HOT_PATH_MODULES: [&str; 2] = [
    "crates/core/src/engine.rs",
    "crates/sparse/src/factor_cache.rs",
];

/// One call-graph node: a non-test function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnNode {
    /// Simple function name (the symbol-table key).
    pub name: String,
    /// Workspace-relative file of the definition.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is an eval kernel (`*_into` name or `&mut
    /// EvalWorkspace` parameter).
    pub is_kernel: bool,
    /// Whether the node roots the hot-path reachability walk (kernel,
    /// or defined in a [`HOT_PATH_MODULES`] file).
    pub hot_root: bool,
}

/// One resolved call site. An ambiguous name produces one edge per
/// candidate definition, each stamped with the candidate count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling node id.
    pub caller: usize,
    /// Called node id.
    pub callee: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: usize,
    /// How many definitions the callee name resolved to (1 = unique).
    pub candidates: usize,
}

/// A panic site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSink {
    /// Node whose body panics.
    pub node: usize,
    /// 1-based line of the panic site.
    pub line: usize,
    /// The panic spelling (`unwrap()`, `expect()`, `panic!`).
    pub what: &'static str,
    /// Whether the line carries a `panic-in-lib` allow — a site the
    /// ledger already proves infallible file-locally.
    pub ledgered: bool,
}

/// The workspace call graph plus the panic sinks the transitive rule
/// consumes.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Non-test function definitions, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// Resolved call sites, in (file, line) order.
    pub edges: Vec<CallEdge>,
    /// Panic sites.
    pub panic_sinks: Vec<PanicSink>,
}

/// A transitive finding: the ordinary [`Finding`] (anchored at the sink
/// line, so allows apply) plus the witness path as node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitiveFinding {
    /// The finding the lint pipeline merges and suppresses.
    pub finding: Finding,
    /// Witness path, root first, sink-owning node last.
    pub path: Vec<usize>,
}

impl CallGraph {
    /// Builds the graph over a scanned file set (normally every
    /// workspace source, but any subset works — the fixture tests build
    /// one-file graphs).
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut graph = CallGraph::default();
        // (file index, region index) → node id; test regions get None.
        let mut node_of: Vec<Vec<Option<usize>>> = Vec::with_capacity(files.len());
        for file in files {
            let hot_file = HOT_PATH_MODULES.contains(&file.path.as_str());
            let mut ids = Vec::with_capacity(file.functions.len());
            for region in &file.functions {
                if region.in_test {
                    ids.push(None);
                    continue;
                }
                ids.push(Some(graph.nodes.len()));
                graph.nodes.push(FnNode {
                    name: region.name.clone(),
                    file: file.path.clone(),
                    line: region.start,
                    is_kernel: region.is_kernel,
                    hot_root: region.is_kernel || hot_file,
                });
            }
            node_of.push(ids);
        }
        let mut symbols: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, node) in graph.nodes.iter().enumerate() {
            symbols.entry(node.name.as_str()).or_default().push(id);
        }
        for (fi, file) in files.iter().enumerate() {
            let file_crate = crate_of(&file.path);
            // Names bound to closures anywhere in this file: `run(x)`
            // after `let run = |a| …` is a closure invocation, not a
            // call to some workspace fn that happens to share the name.
            let closures: Vec<String> = file
                .lines
                .iter()
                .filter_map(|l| closure_binding(&l.code))
                .collect();
            for (i, info) in file.lines.iter().enumerate() {
                if info.in_test {
                    continue;
                }
                let Some(node) = info.fn_index.and_then(|ri| node_of[fi][ri]) else {
                    continue;
                };
                let line = i + 1;
                for name in call_names(&info.code) {
                    if closures.contains(&name) {
                        continue;
                    }
                    let Some(targets) = symbols.get(name.as_str()) else {
                        continue;
                    };
                    // Locality-preferential resolution: a definition in
                    // the caller's own file wins, then the caller's own
                    // crate; only a name with no local definition fans
                    // out workspace-wide (the trait-impl case). Keeps
                    // `a.len()` from wiring every crate's `len` into
                    // every caller while preserving the conservative
                    // fan-out where locality cannot disambiguate.
                    let same_file: Vec<usize> = targets
                        .iter()
                        .copied()
                        .filter(|&t| graph.nodes[t].file == file.path)
                        .collect();
                    let same_crate: Vec<usize> = targets
                        .iter()
                        .copied()
                        .filter(|&t| crate_of(&graph.nodes[t].file) == file_crate)
                        .collect();
                    let resolved = if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else {
                        targets.clone()
                    };
                    for &callee in &resolved {
                        let edge = CallEdge {
                            caller: node,
                            callee,
                            line,
                            candidates: resolved.len(),
                        };
                        if !graph.edges.contains(&edge) {
                            graph.edges.push(edge);
                        }
                    }
                }
                for (pat, what) in PANIC_PATTERNS {
                    let hit = match info.code.find(pat) {
                        Some(pos) if pat == "panic!" => {
                            pos == 0
                                || !is_ident_char(
                                    info.code[..pos].chars().next_back().unwrap_or(' '),
                                )
                        }
                        Some(_) => true,
                        None => false,
                    };
                    if hit {
                        let ledgered = file.allows.iter().any(|a| {
                            a.target_line == line && a.rules.contains(&LintKind::PanicInLib)
                        });
                        graph.panic_sinks.push(PanicSink {
                            node,
                            line,
                            what,
                            ledgered,
                        });
                    }
                }
            }
        }
        graph
    }

    /// Node ids of every eval kernel, in node order.
    pub fn kernel_roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].is_kernel)
            .collect()
    }

    /// Node ids of every hot-path root (kernels plus
    /// [`HOT_PATH_MODULES`] functions), in node order.
    pub fn hot_roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].hot_root)
            .collect()
    }

    /// Multi-source BFS from `roots`. Returns per-node parents:
    /// `None` = unreachable, `Some(self)` = a root, `Some(p)` = first
    /// reached from `p`. Roots are seeded in the given order and edges
    /// walked in insertion order, so witness paths are deterministic.
    pub fn reach(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.caller].push(e.callee);
        }
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &adj[n] {
                if parent[m].is_none() {
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Witness path to `node` under a [`CallGraph::reach`] parent map:
    /// root first, `node` last. Empty when `node` is unreachable.
    pub fn witness(&self, parent: &[Option<usize>], node: usize) -> Vec<usize> {
        if parent[node].is_none() {
            return Vec::new();
        }
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Renders a witness path as `a -> b -> c` for messages and the
    /// `CALLGRAPH_*.json` report.
    pub fn path_names(&self, path: &[usize]) -> String {
        path.iter()
            .map(|&n| self.nodes[n].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Runs `panic-reachable-hot` over a built graph: a ledgered panic
/// site reachable from a kernel or a hot-path module function. The
/// file-local allow proves the site infallible in isolation; the rule
/// demands the proof be re-stated path-aware (`… via <path>`). Findings
/// are anchored at sink lines; the caller merges them into the per-file
/// stream before suppression.
pub fn check_graph(graph: &CallGraph) -> Vec<TransitiveFinding> {
    let from_hot = graph.reach(&graph.hot_roots());
    graph
        .panic_sinks
        .iter()
        .filter(|sink| sink.ledgered)
        .filter_map(|sink| {
            let path = graph.witness(&from_hot, sink.node);
            let root = *path.first()?;
            let node = &graph.nodes[sink.node];
            let finding = Finding {
                rule: LintKind::PanicReachableHot,
                file: node.file.clone(),
                line: sink.line,
                message: format!(
                    "ledgered `{}` in `{}` is reachable from hot-path root \
                     `{}` via {} — a panic here is a production outage; \
                     re-justify with a path-aware allow (reason must name the \
                     route, `… via …`)",
                    sink.what,
                    node.name,
                    graph.nodes[root].name,
                    graph.path_names(&path),
                ),
            };
            Some(TransitiveFinding { finding, path })
        })
        .collect()
}

/// The `crates/<name>` prefix of a workspace-relative path — the
/// locality unit of call resolution. A path with fewer than two
/// segments is its own crate.
fn crate_of(path: &str) -> &str {
    match path.match_indices('/').nth(1) {
        Some((pos, _)) => &path[..pos],
        None => path,
    }
}

/// Detects `let [mut] name = [move] |…` closure bindings, so calls to
/// `name` in the same file are not resolved against the symbol table.
fn closure_binding(code: &str) -> Option<String> {
    let pos = find_word(code, "let")?;
    let rest = code[pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    if name.is_empty() {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    let value = after.strip_prefix('=')?.trim_start();
    let value = value.strip_prefix("move").unwrap_or(value).trim_start();
    value.starts_with('|').then_some(name)
}

/// Keywords that read like calls when followed by `(`.
const CALL_KEYWORDS: [&str; 12] = [
    "if", "else", "while", "match", "return", "for", "loop", "in", "as", "fn", "let", "move",
];

/// Extracts callee names from one stripped line: an identifier followed
/// by `(`, excluding macros (`name!(` — the `!` breaks the adjacency
/// test), definitions (`fn name(`), keywords, and CamelCase/digit-led
/// identifiers (constructors and literals, not workspace functions —
/// the house style is snake_case).
fn call_names(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident_char(chars[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        let name: String = chars[start..i].iter().collect();
        let first = name.chars().next().unwrap_or('0');
        if first.is_ascii_digit() || first.is_ascii_uppercase() {
            continue;
        }
        let mut j = i;
        while j < chars.len() && chars[j] == ' ' {
            j += 1;
        }
        if chars.get(j) != Some(&'(') {
            continue;
        }
        if CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        let before: String = chars[..start].iter().collect();
        let before = before.trim_end();
        let is_def = before.ends_with("fn")
            && !is_ident_char(
                before[..before.len() - 2]
                    .chars()
                    .next_back()
                    .unwrap_or(' '),
            );
        if is_def {
            continue;
        }
        // `Type::name(` is an associated function of a *specific* type
        // (overwhelmingly std constructors — `Vec::new(`, `String::from(`);
        // resolving it by simple name would wire every workspace
        // constructor into every caller. `Self::name(` and lowercase
        // module paths (`graph::check(`) stay.
        if let Some(qual_end) = before.strip_suffix("::") {
            let qualifier: String = qual_end
                .chars()
                .rev()
                .take_while(|&c| is_ident_char(c))
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if qualifier != "Self"
                && qualifier
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
            {
                continue;
            }
        }
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect()
    }

    #[test]
    fn call_extraction_skips_non_calls() {
        let names = call_names("fn f(x: usize) { if (g(x)) { h!(y); Some(k(x)) } }");
        assert_eq!(names, vec!["g".to_string(), "k".to_string()]);
        assert!(call_names("let v = Vec::new();").is_empty());
        assert!(call_names("let s = String::from_utf8(b);").is_empty());
        assert_eq!(call_names("self.solve_into(out)"), vec!["solve_into"]);
        assert_eq!(call_names("Self::helper(out)"), vec!["helper"]);
        assert_eq!(call_names("graph::check_graph(&g)"), vec!["check_graph"]);
    }

    #[test]
    fn cross_file_calls_resolve_uniquely() {
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "pub fn eval_into(out: &mut [f64]) {\n    helper(out);\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper(out: &mut [f64]) {\n    out[0] = 1.0;\n}\n",
            ),
        ]);
        let g = CallGraph::build(&fs);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        let e = &g.edges[0];
        assert_eq!((e.caller, e.callee, e.candidates), (0, 1, 1));
        assert_eq!(g.kernel_roots(), vec![0]);
        let parent = g.reach(&g.kernel_roots());
        assert_eq!(g.witness(&parent, 1), vec![0, 1]);
        assert_eq!(g.path_names(&[0, 1]), "eval_into -> helper");
    }

    #[test]
    fn ambiguous_names_fan_out_to_all_candidates() {
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "pub fn eval_into(out: &mut [f64]) {\n    obj.solve(out);\n}\n",
            ),
            ("crates/b/src/lib.rs", "pub fn solve(out: &mut [f64]) {}\n"),
            ("crates/c/src/lib.rs", "pub fn solve(out: &mut [f64]) {}\n"),
        ]);
        let g = CallGraph::build(&fs);
        let from_kernel: Vec<_> = g.edges.iter().filter(|e| e.caller == 0).collect();
        assert_eq!(from_kernel.len(), 2);
        assert!(from_kernel.iter().all(|e| e.candidates == 2));
        // Reachability follows both candidates.
        let parent = g.reach(&g.kernel_roots());
        assert!(parent[1].is_some() && parent[2].is_some());
    }

    #[test]
    fn test_functions_stay_out_of_the_graph() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "pub fn eval_into(out: &mut [f64]) {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { eval_into(&mut []); }\n\
             }\n",
        )]);
        let g = CallGraph::build(&fs);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.edges.is_empty());
    }
}
