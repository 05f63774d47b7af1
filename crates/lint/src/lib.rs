//! `outboard-lint`: the workspace's own static-analysis pass.
//!
//! The reproduction makes two promises the compiler cannot check for us:
//! the TX/RX hot path never panics (the fault-injection PR made every
//! driver failure a typed `CabError`), and every run is byte-identical
//! given the same seed (the parallel-sweep PR gates on it). Both used to
//! be guarded by a shell `grep` in CI. This crate replaces that with a
//! token-aware scanner — comments, string literals, and `#[cfg(test)]`
//! regions are masked before any rule runs — plus a small rule registry:
//!
//! * `panic-hot-path` — no `panic!`/`unwrap`/`expect`/`unreachable!`/
//!   `todo!` in any fn reachable from a hot-path entry point;
//! * `nondet-order` — no `HashMap`/`HashSet` types in sim-facing crates
//!   unless pragma'd as lookup-only;
//! * `wallclock` — no `Instant`/`SystemTime`/environment reads in
//!   reachable fns outside `crates/bench`;
//! * `metrics-naming` — metric names must fit the `host{i}.cab{j}.*` /
//!   `world.*` taxonomy (which includes the causal-tracing
//!   `world.spans.*` namespace, the windowed-telemetry
//!   `world.timeline.*` namespace, and the flight-recorder series
//!   names);
//! * `span-balance` — a `span_open` in a hot-path module must have a
//!   matching `span_close`/`span_drop` in the same function;
//! * `payload-alloc` — no `vec![…]`/`Vec::with_capacity`/`.to_vec()` in
//!   reachable fns of the netsim/mbuf frame crates: frames pass through
//!   them as shared `Bytes` views, not per-frame copies;
//! * `bad-pragma` — malformed or unknown-rule suppressions;
//! * `stale-pragma` — a suppression that suppresses nothing.
//!
//! Since PR 9 the three hot-path rules are scoped by **interprocedural
//! reachability**: [`graph`] extracts a workspace symbol table and call
//! graph from the masked token streams, computes the transitive closure
//! of the declared entry points ([`graph::DEFAULT_ROOTS`]), and every
//! finding carries the witness call chain that proves the flagged line is
//! hot. The legacy file-list scoping survives behind
//! [`rules::RuleScope::FileList`] (CLI `--no-graph`) for comparison.
//!
//! Suppression: `// lint: allow(rule-name, reason)` on the flagged line or
//! the line directly above it. The reason is mandatory.

pub mod graph;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use graph::{FileRecord, Graph, RootSpec, DEFAULT_ROOTS};
use rules::{FileScope, RuleScope};

/// One hop of a witness call chain, root first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Display name (`Kernel::sys_write`, `module::helper`).
    pub name: String,
    /// Workspace-relative path of the declaring file.
    pub file: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Witness call chain from a declared root to the enclosing fn
    /// (empty for rules that are not reachability-scoped, and in legacy
    /// file-list mode).
    pub chain: Vec<Hop>,
}

impl Finding {
    /// Stable identifier used by `--explain` and the v2 JSON report.
    pub fn id(&self) -> String {
        format!("{}@{}:{}", self.rule, self.file, self.line)
    }
}

/// How to scan: graph scoping (the default) or the legacy file lists.
#[derive(Clone, Debug)]
pub struct ScanOptions {
    /// Scope `panic-hot-path`/`payload-alloc`/`wallclock` by call-graph
    /// reachability (`false` restores the PR-4 file-list behavior).
    pub graph: bool,
    /// Root specs (`name` or `Type::name`); empty means
    /// [`graph::DEFAULT_ROOTS`].
    pub roots: Vec<String>,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            graph: true,
            roots: Vec::new(),
        }
    }
}

fn root_specs(opts: &ScanOptions) -> Vec<RootSpec> {
    if opts.roots.is_empty() {
        DEFAULT_ROOTS.iter().map(|s| RootSpec::parse(s)).collect()
    } else {
        opts.roots.iter().map(|s| RootSpec::parse(s)).collect()
    }
}

/// Per-file reachability scopes for a set of lexed files.
fn build_scopes(recs: &[FileRecord], opts: &ScanOptions) -> Vec<FileScope> {
    let mut scopes: Vec<FileScope> = (0..recs.len()).map(|_| FileScope::default()).collect();
    if !opts.graph {
        return scopes;
    }
    let g = Graph::build(recs);
    let roots = g.resolve_roots(&root_specs(opts));
    let reach = g.reachable(&roots);
    for &id in reach.keys() {
        let n = &g.fns[id];
        let Some((start, end)) = n.body else {
            continue;
        };
        let hops: Vec<Hop> = g
            .chain(&reach, id)
            .into_iter()
            .map(|c| Hop {
                name: g.qualified_name(c),
                file: g.fns[c].file.clone(),
                line: g.fns[c].line,
            })
            .collect();
        scopes[n.file_idx].hot.push((start, end, hops));
    }
    scopes
}

/// Scan a set of in-memory files as one workspace: lex and index every
/// file, build the call graph (graph mode), run the per-file rules, apply
/// pragma suppression, and report stale pragmas. `inputs` are
/// `(workspace-relative path, contents)` pairs. Findings come back sorted
/// by `(file, line, rule)`.
pub fn scan_files(inputs: &[(String, String)], opts: &ScanOptions) -> Vec<Finding> {
    let recs: Vec<FileRecord> = inputs
        .iter()
        .map(|(rel, src)| FileRecord::new(rel, src))
        .collect();
    let scopes = build_scopes(&recs, opts);
    let mut findings = Vec::new();
    for (i, rec) in recs.iter().enumerate() {
        let scope = if opts.graph {
            RuleScope::Graph(&scopes[i])
        } else {
            RuleScope::FileList
        };
        let raw = rules::run_all(&rec.rel, &rec.raw, &rec.lex, &rec.index, &scope);
        // Suppression: a pragma covers its own line and the line below.
        // Track which pragmas earned their keep for the stale check.
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for f in raw {
            if f.rule == "bad-pragma" {
                findings.push(f);
                continue;
            }
            let pragma = rec
                .lex
                .pragmas
                .iter()
                .find(|p| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line));
            match pragma {
                Some(p) => {
                    used.insert(p.line);
                }
                None => findings.push(f),
            }
        }
        // Stale pragmas: well-formed, known-rule suppressions outside test
        // regions that suppressed nothing. Not itself suppressible.
        for p in &rec.lex.pragmas {
            if used.contains(&p.line)
                || !rules::RULE_NAMES.contains(&p.rule.as_str())
                || rec.lex.is_test_line(p.line)
            {
                continue;
            }
            let snippet: String = rec
                .raw
                .lines()
                .nth(p.line.saturating_sub(1))
                .unwrap_or("")
                .trim()
                .chars()
                .take(120)
                .collect();
            findings.push(Finding {
                rule: "stale-pragma",
                file: rec.rel.clone(),
                line: p.line,
                message: format!(
                    "pragma allows `{}` but suppresses no findings under the current scoping — delete it",
                    p.rule
                ),
                snippet,
                chain: Vec::new(),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Scan one file's contents in legacy (file-list) scope, without the
/// workspace-level stale-pragma pass. Kept for single-file spot checks;
/// the workspace pipeline goes through [`scan_files`].
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let rec = FileRecord::new(rel, src);
    let findings = rules::run_all(rel, src, &rec.lex, &rec.index, &RuleScope::FileList);
    findings
        .into_iter()
        .filter(|f| {
            if f.rule == "bad-pragma" {
                return true;
            }
            !rec.lex
                .pragmas
                .iter()
                .any(|p| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
        })
        .collect()
}

/// Every `.rs` file under `crates/*/src` and the root `src/`, as
/// `(workspace-relative path, contents)` pairs in sorted path order.
pub fn workspace_inputs(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let src = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        inputs.push((rel, src));
    }
    Ok(inputs)
}

/// Scan the whole workspace rooted at `root`. Returns
/// (files scanned, findings), findings sorted by (file, line, rule) for a
/// deterministic report.
pub fn scan_workspace(root: &Path, opts: &ScanOptions) -> io::Result<(usize, Vec<Finding>)> {
    let inputs = workspace_inputs(root)?;
    let findings = scan_files(&inputs, opts);
    Ok((inputs.len(), findings))
}

/// The call-graph debug listing for a set of files: stats, resolved
/// roots, and every reachable fn with its BFS parent (CLI `--graph`).
pub fn graph_listing(inputs: &[(String, String)], opts: &ScanOptions) -> String {
    let recs: Vec<FileRecord> = inputs
        .iter()
        .map(|(rel, src)| FileRecord::new(rel, src))
        .collect();
    let g = Graph::build(&recs);
    let roots = g.resolve_roots(&root_specs(opts));
    let reach = g.reachable(&roots);
    g.render(&roots, &reach)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render one witness chain as `a (file:line) -> b (file:line)`.
pub fn render_chain(chain: &[Hop]) -> String {
    chain
        .iter()
        .map(|h| format!("{} ({}:{})", h.name, h.file, h.line))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Render the human report.
pub fn render_human(files_scanned: usize, findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    {}", f.snippet);
        }
        if !f.chain.is_empty() {
            let _ = writeln!(out, "    via {}", render_chain(&f.chain));
        }
    }
    let _ = writeln!(
        out,
        "outboard-lint: {} file{} scanned, {} finding{}",
        files_scanned,
        if files_scanned == 1 { "" } else { "s" },
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
    );
    out
}

/// Render the machine-readable report (hand-rolled JSON; the build is
/// offline, so no serde). Schema `outboard-lint-v2`: each finding carries
/// a stable `id` and its witness `chain`.
pub fn render_json(root: &Path, files_scanned: usize, findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": \"outboard-lint-v2\",");
    let _ = writeln!(out, "  \"root\": \"{}\",", esc(&root.display().to_string()));
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(out, "  \"finding_count\": {},", findings.len());
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"id\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\", \"chain\": [",
            esc(&f.id()),
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.message),
            esc(&f.snippet)
        );
        for (j, h) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
                esc(&h.name),
                esc(&h.file),
                h.line
            );
        }
        out.push_str("]}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render a SARIF 2.1.0 report: one run, one rule descriptor per
/// registered rule, one result per finding, with the witness chain as a
/// `codeFlow` so CI viewers can walk root → sink.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
    );
    let _ = writeln!(out, "  \"version\": \"2.1.0\",");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    let _ = writeln!(out, "          \"name\": \"outboard-lint\",");
    let _ = writeln!(
        out,
        "          \"informationUri\": \"https://example.invalid/outboard-lint\","
    );
    out.push_str("          \"rules\": [");
    for (i, rule) in rules::RULE_NAMES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{\"id\": \"{rule}\", \"shortDescription\": {{\"text\": \"{rule}\"}}}}"
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {\n");
        let rule_index = rules::RULE_NAMES
            .iter()
            .position(|r| *r == f.rule)
            .unwrap_or(0);
        let _ = writeln!(out, "          \"ruleId\": \"{}\",", esc(f.rule));
        let _ = writeln!(out, "          \"ruleIndex\": {rule_index},");
        let _ = writeln!(out, "          \"level\": \"error\",");
        let _ = writeln!(
            out,
            "          \"message\": {{\"text\": \"{}\"}},",
            esc(&f.message)
        );
        let _ = write!(
            out,
            "          \"locations\": [{}]",
            sarif_location(&f.file, f.line, None)
        );
        if !f.chain.is_empty() {
            out.push_str(",\n          \"codeFlows\": [{\"threadFlows\": [{\"locations\": [");
            for (j, h) in f.chain.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"location\": {}}}",
                    sarif_location(&h.file, h.line, Some(&h.name))
                );
            }
            out.push_str("]}]}]");
        }
        out.push_str("\n        }");
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

fn sarif_location(file: &str, line: usize, message: Option<&str>) -> String {
    let mut loc = String::new();
    loc.push('{');
    if let Some(m) = message {
        let _ = write!(loc, "\"message\": {{\"text\": \"{}\"}}, ", esc(m));
    }
    let _ = write!(
        loc,
        "\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}",
        esc(file),
        line.max(1)
    );
    loc.push('}');
    loc
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One self-check fixture: a tiny workspace (one or more files) that must
/// produce exactly `expect` findings of `rule`. `roots` overrides the
/// default entry-point set; `legacy` runs the fixture in file-list scope.
struct Fixture {
    name: &'static str,
    files: &'static [(&'static str, &'static str)],
    rule: &'static str,
    expect: usize,
    roots: &'static [&'static str],
    legacy: bool,
}

const NO_ROOTS: &[&str] = &[];

macro_rules! fx {
    ($name:literal, $rule:literal, $expect:literal, $files:expr) => {
        Fixture {
            name: $name,
            files: $files,
            rule: $rule,
            expect: $expect,
            roots: NO_ROOTS,
            legacy: false,
        }
    };
    ($name:literal, $rule:literal, $expect:literal, $files:expr, roots: $roots:expr) => {
        Fixture {
            name: $name,
            files: $files,
            rule: $rule,
            expect: $expect,
            roots: $roots,
            legacy: false,
        }
    };
    ($name:literal, $rule:literal, $expect:literal, $files:expr, legacy) => {
        Fixture {
            name: $name,
            files: $files,
            rule: $rule,
            expect: $expect,
            roots: NO_ROOTS,
            legacy: true,
        }
    };
}

const FIXTURES: &[Fixture] = &[
    // ── panic-hot-path ────────────────────────────────────────────────
    fx!(
        "panic fires in a reachable root",
        "panic-hot-path",
        1,
        &[(
            "crates/core/src/kernel/output.rs",
            "pub fn sys_write(x: Option<u32>) -> u32 { x.unwrap() }\n"
        )]
    ),
    fx!(
        "panic! macro fires",
        "panic-hot-path",
        1,
        &[("crates/cab/src/cab.rs", "pub fn cab_output() { panic!(\"boom\") }\n")]
    ),
    fx!(
        "unreachable fires",
        "panic-hot-path",
        1,
        &[("crates/core/src/kernel/input.rs", "pub fn rx_interrupt() { unreachable!() }\n")]
    ),
    fx!(
        "panic in an unreachable fn ignored",
        "panic-hot-path",
        0,
        &[("crates/core/src/tcp.rs", "fn cold(x: Option<u32>) -> u32 { x.unwrap() }\n")]
    ),
    fx!(
        "panic in string literal ignored",
        "panic-hot-path",
        0,
        &[(
            "crates/cab/src/cab.rs",
            "pub fn cab_output() -> &'static str { \"do not panic!() or .unwrap()\" }\n"
        )]
    ),
    fx!(
        "panic in comment ignored",
        "panic-hot-path",
        0,
        &[("crates/cab/src/cab.rs", "pub fn cab_output() {} // would panic!() and .unwrap() here\n")]
    ),
    fx!(
        "panic in cfg(test) module ignored",
        "panic-hot-path",
        0,
        &[(
            "crates/cab/src/cab.rs",
            "pub fn cab_output() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(); }\n}\n"
        )]
    ),
    fx!(
        "unwrap_or is not unwrap",
        "panic-hot-path",
        0,
        &[(
            "crates/cab/src/cab.rs",
            "pub fn cab_output(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n"
        )]
    ),
    fx!(
        "pragma suppresses panic-hot-path",
        "panic-hot-path",
        0,
        &[(
            "crates/cab/src/cab.rs",
            "pub fn cab_output(x: Option<u32>) -> u32 {\n    // lint: allow(panic-hot-path, invariant upheld by alloc)\n    x.unwrap()\n}\n"
        )]
    ),
    fx!(
        "call graph catches a panic in a helper file the list never covered",
        "panic-hot-path",
        1,
        &[
            (
                "crates/core/src/kernel/output.rs",
                "use crate::scatter::finish;\npub fn sys_write() { finish(None) }\n"
            ),
            (
                "crates/core/src/scatter.rs",
                "pub fn finish(x: Option<u32>) -> u32 { x.unwrap() }\n"
            )
        ]
    ),
    fx!(
        "legacy file-list scoping misses the same helper",
        "panic-hot-path",
        0,
        &[
            (
                "crates/core/src/kernel/output.rs",
                "use crate::scatter::finish;\npub fn sys_write() { finish(None) }\n"
            ),
            (
                "crates/core/src/scatter.rs",
                "pub fn finish(x: Option<u32>) -> u32 { x.unwrap() }\n"
            )
        ],
        legacy
    ),
    fx!(
        "legacy file-list scoping still fires inside a listed file",
        "panic-hot-path",
        1,
        &[(
            "crates/core/src/kernel/output.rs",
            "fn not_a_root(x: Option<u32>) -> u32 { x.unwrap() }\n"
        )],
        legacy
    ),
    fx!(
        "method chain through an impl reaches the panic",
        "panic-hot-path",
        1,
        &[(
            "crates/core/src/kernel/output.rs",
            "impl Kernel {\n    pub fn sys_write(&mut self) { self.flush() }\n    fn flush(&self) { None::<u32>.unwrap(); }\n}\n"
        )]
    ),
    fx!(
        "custom roots override the default entry points",
        "panic-hot-path",
        1,
        &[(
            "crates/sim/src/queue.rs",
            "pub fn my_entry() { helper() }\nfn helper() { None::<u32>.unwrap(); }\n"
        )],
        roots: &["my_entry"]
    ),
    fx!(
        "fn reachable only from a test fn stays cold",
        "panic-hot-path",
        0,
        &[(
            "crates/core/src/tcp.rs",
            "fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::helper(Some(1)); }\n}\n"
        )]
    ),
    // ── nondet-order ──────────────────────────────────────────────────
    fx!(
        "hashmap type fires in sim-facing crate",
        "nondet-order",
        1,
        &[(
            "crates/testbed/src/world.rs",
            "use std::collections::HashMap;\npub struct W { links: HashMap<u32, u32> }\n"
        )]
    ),
    fx!(
        "hashset fires too",
        "nondet-order",
        1,
        &[(
            "crates/core/src/ip.rs",
            "use std::collections::HashSet;\nfn f(s: &HashSet<u32>) -> usize { s.len() }\n"
        )]
    ),
    fx!(
        "btreemap is fine",
        "nondet-order",
        0,
        &[(
            "crates/testbed/src/world.rs",
            "use std::collections::BTreeMap;\npub struct W { links: BTreeMap<u32, u32> }\n"
        )]
    ),
    fx!(
        "pragma suppresses nondet-order",
        "nondet-order",
        0,
        &[(
            "crates/core/src/sockbuf.rs",
            "use std::collections::HashMap;\npub struct C {\n    // lint: allow(nondet-order, keyed lookup only, never iterated)\n    live: HashMap<u64, u32>,\n}\n"
        )]
    ),
    fx!(
        "hashmap outside sim-facing crates ignored",
        "nondet-order",
        0,
        &[(
            "crates/wire/src/lib.rs",
            "use std::collections::HashMap;\npub struct W { m: HashMap<u32, u32> }\n"
        )]
    ),
    fx!(
        "type-alias RHS with fully-qualified path fires",
        "nondet-order",
        1,
        &[(
            "crates/core/src/sockbuf.rs",
            "type PeerMap = std::collections::HashMap<u32, u32>;\n"
        )]
    ),
    fx!(
        "fully-qualified path in a signature fires",
        "nondet-order",
        1,
        &[(
            "crates/host/src/mem.rs",
            "fn f(m: &std::collections::HashMap<u32, u32>) -> usize { m.len() }\n"
        )]
    ),
    fx!(
        "turbofish constructor fires",
        "nondet-order",
        1,
        &[(
            "crates/sim/src/queue.rs",
            "fn f() -> usize { std::collections::HashMap::<u32, u32>::new().len() }\n"
        )]
    ),
    fx!(
        "use-rename of HashMap fires at the renamed type position",
        "nondet-order",
        1,
        &[(
            "crates/netsim/src/link.rs",
            "use std::collections::HashMap as Peers;\npub struct S { p: Peers<u32, u32> }\n"
        )]
    ),
    fx!(
        "use-rename of BTreeMap stays quiet",
        "nondet-order",
        0,
        &[(
            "crates/netsim/src/link.rs",
            "use std::collections::BTreeMap as Peers;\npub struct S { p: Peers<u32, u32> }\n"
        )]
    ),
    fx!(
        "bare constructor without a type position stays exempt",
        "nondet-order",
        0,
        &[(
            "crates/core/src/ip.rs",
            "use std::collections::HashMap;\nfn f() -> usize { seed(HashMap::new()) }\n"
        )]
    ),
    // ── wallclock ─────────────────────────────────────────────────────
    fx!(
        "instant fires in a reachable fn",
        "wallclock",
        1,
        &[(
            "crates/core/src/tcp.rs",
            "pub fn sys_write() { let _t = std::time::Instant::now(); }\n"
        )]
    ),
    fx!(
        "env var read fires under a custom root",
        "wallclock",
        1,
        &[(
            "crates/sim/src/lib.rs",
            "pub fn f() -> bool { std::env::var(\"JOBS\").is_ok() }\n"
        )],
        roots: &["f"]
    ),
    fx!(
        "instant in bench is fine",
        "wallclock",
        0,
        &[("crates/bench/src/perf.rs", "pub fn sys_write() { let _t = std::time::Instant::now(); }\n")]
    ),
    fx!(
        "wallclock in a cold config reader ignored under graph scoping",
        "wallclock",
        0,
        &[(
            "crates/sim/src/queue.rs",
            "pub fn from_env() -> bool { std::env::var(\"X\").is_ok() }\n"
        )]
    ),
    fx!(
        "legacy scoping still flags cold config readers",
        "wallclock",
        1,
        &[(
            "crates/sim/src/queue.rs",
            "pub fn from_env() -> bool { std::env::var(\"X\").is_ok() }\n"
        )],
        legacy
    ),
    // ── metrics-naming ────────────────────────────────────────────────
    fx!(
        "bad metric name fires",
        "metrics-naming",
        1,
        &[("crates/host/src/cpu.rs", "fn f(s: &mut Scope) { s.counter(\"Bad Name\", 1); }\n")]
    ),
    fx!(
        "taxonomy name passes",
        "metrics-naming",
        0,
        &[("crates/host/src/cpu.rs", "fn f(s: &mut Scope) { s.counter(\"tcp.segs_out\", 1); }\n")]
    ),
    fx!(
        "format-hole name passes",
        "metrics-naming",
        0,
        &[(
            "crates/cab/src/cab.rs",
            "fn f(s: &mut Scope, ch: u16) { s.counter(&format!(\"channel.{ch}.frames_tx\"), 1); }\n"
        )]
    ),
    fx!(
        "non-literal metric name skipped",
        "metrics-naming",
        0,
        &[("crates/sim/src/obs.rs", "fn f(s: &mut Scope, name: &str) { s.counter(name, 1); }\n")]
    ),
    fx!(
        "spans metric namespace passes taxonomy",
        "metrics-naming",
        0,
        &[(
            "crates/testbed/src/world.rs",
            "fn f(s: &mut Scope) { s.counter(\"world.spans.opened\", 1); s.counter(\"world.spans.mdma_rx.p99_ns\", 1); }\n"
        )]
    ),
    fx!(
        "chaos metric namespace passes taxonomy",
        "metrics-naming",
        0,
        &[(
            "crates/testbed/src/world.rs",
            "fn f(w: &mut Scope) { let mut c = w.sub(\"chaos\"); c.counter(\"events_applied\", 1); c.counter(\"world.chaos.down_drops\", 1); }\n"
        )]
    ),
    fx!(
        "malformed chaos metric name fires",
        "metrics-naming",
        1,
        &[(
            "crates/testbed/src/world.rs",
            "fn f(w: &mut Scope) { w.counter(\"world.chaos.Bad-Kind\", 1); }\n"
        )]
    ),
    fx!(
        "timeline metric namespace passes taxonomy",
        "metrics-naming",
        0,
        &[(
            "crates/testbed/src/world.rs",
            "fn f(w: &mut Scope) { let mut t = w.sub(\"timeline\"); t.counter(\"windows\", 1); t.counter(\"world.timeline.window_ns\", 1); }\n"
        )]
    ),
    fx!(
        "flight-recorder series names pass taxonomy",
        "metrics-naming",
        0,
        &[(
            "crates/testbed/src/world.rs",
            "fn f(w: &mut Scope, i: usize) { w.counter(&format!(\"host{i}.engine_busy_ns\"), 1); w.counter(&format!(\"host{i}.netmem_pages\"), 1); w.counter(\"world.faults\", 1); }\n"
        )]
    ),
    fx!(
        "malformed timeline metric name fires",
        "metrics-naming",
        1,
        &[(
            "crates/testbed/src/world.rs",
            "fn f(w: &mut Scope) { w.counter(\"world.timeline.Window NS\", 1); }\n"
        )]
    ),
    // ── span-balance ──────────────────────────────────────────────────
    fx!(
        "unbalanced span_open fires on hot path",
        "span-balance",
        1,
        &[(
            "crates/core/src/kernel/input.rs",
            "fn f(k: &mut K, now: Time) { k.spans.span_open(1, FlowId::NONE, Stage::Sockbuf, now, 0); }\n"
        )]
    ),
    fx!(
        "span_open with close in same fn is balanced",
        "span-balance",
        0,
        &[(
            "crates/core/src/kernel/input.rs",
            "fn f(k: &mut K, now: Time) {\n    k.spans.span_open(1, FlowId::NONE, Stage::Sockbuf, now, 0);\n    k.spans.span_close(1, Stage::Sockbuf, now);\n}\n"
        )]
    ),
    fx!(
        "span_open with drop in same fn is balanced",
        "span-balance",
        0,
        &[(
            "crates/core/src/kernel/robust.rs",
            "fn f(k: &mut K, now: Time) {\n    k.spans.span_open(1, FlowId::NONE, Stage::Wire, now, 0);\n    k.spans.span_drop(1, Stage::Wire, now);\n}\n"
        )]
    ),
    fx!(
        "span helpers off hot path ignored",
        "span-balance",
        0,
        &[(
            "crates/core/src/kernel/mod.rs",
            "fn f(k: &mut K, now: Time) { k.spans.span_open(1, FlowId::NONE, Stage::Sockbuf, now, 0); }\n"
        )]
    ),
    fx!(
        "detour helper call is not a span_open",
        "span-balance",
        0,
        &[(
            "crates/core/src/kernel/robust.rs",
            "fn f(k: &mut K, now: Time) { k.span_detour_open(IfaceId(0), Stage::RetryDwell, now); }\n"
        )]
    ),
    // ── payload-alloc ─────────────────────────────────────────────────
    fx!(
        "vec! payload on the reachable link path fires",
        "payload-alloc",
        1,
        &[(
            "crates/netsim/src/link.rs",
            "impl Link {\n    pub fn transmit(&mut self) -> Vec<u8> { vec![0u8; 1500] }\n}\n"
        )]
    ),
    fx!(
        "with_capacity on the mbuf path fires",
        "payload-alloc",
        1,
        &[(
            "crates/mbuf/src/mbuf.rs",
            "pub fn cluster() -> Vec<u8> { Vec::with_capacity(4096) }\n"
        )],
        roots: &["cluster"]
    ),
    fx!(
        "to_vec copy on the fault path fires",
        "payload-alloc",
        1,
        &[(
            "crates/netsim/src/fault.rs",
            "impl FaultInjector {\n    pub fn fate(&mut self, b: &[u8]) -> Vec<u8> { b.to_vec() }\n}\n"
        )]
    ),
    fx!(
        "shared Bytes slice does not fire",
        "payload-alloc",
        0,
        &[(
            "crates/netsim/src/link.rs",
            "impl Link {\n    pub fn transmit(&mut self, frame: &Bytes) -> Bytes { frame.slice(14..) }\n}\n"
        )]
    ),
    fx!(
        "pragma suppresses payload-alloc",
        "payload-alloc",
        0,
        &[(
            "crates/mbuf/src/chain.rs",
            "pub fn flatten(len: usize) -> Vec<u8> {\n    // lint: allow(payload-alloc, verification gather off the transfer path)\n    Vec::with_capacity(len)\n}\n"
        )],
        roots: &["flatten"]
    ),
    fx!(
        "vec! outside the payload crates ignored",
        "payload-alloc",
        0,
        &[(
            "crates/sim/src/queue.rs",
            "pub fn backing() -> Vec<u8> { vec![0u8; 4096] }\n"
        )],
        roots: &["backing"]
    ),
    fx!(
        "vec! in test region ignored",
        "payload-alloc",
        0,
        &[(
            "crates/netsim/src/link.rs",
            "impl Link { pub fn transmit(&mut self) {} }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = vec![0u8; 64]; }\n}\n"
        )]
    ),
    fx!(
        "unreachable netsim alloc ignored under graph scoping",
        "payload-alloc",
        0,
        &[(
            "crates/netsim/src/link.rs",
            "fn make_buf() -> Vec<u8> { vec![0u8; 64] }\n"
        )]
    ),
    fx!(
        "legacy file-list flags the same cold netsim alloc",
        "payload-alloc",
        1,
        &[(
            "crates/netsim/src/link.rs",
            "fn make_buf() -> Vec<u8> { vec![0u8; 64] }\n"
        )],
        legacy
    ),
    // ── bad-pragma ────────────────────────────────────────────────────
    fx!(
        "malformed pragma fires",
        "bad-pragma",
        1,
        &[("crates/core/src/tcp.rs", "// lint: allow(nondet-order)\nfn f() {}\n")]
    ),
    fx!(
        "unknown rule pragma fires",
        "bad-pragma",
        1,
        &[("crates/core/src/tcp.rs", "// lint: allow(no-such-rule, because)\nfn f() {}\n")]
    ),
    fx!(
        "well-formed pragma is not bad",
        "bad-pragma",
        0,
        &[(
            "crates/core/src/tcp.rs",
            "// lint: allow(nondet-order, fixture)\nuse std::collections::HashMap;\ntype M = HashMap<u8, u8>;\nfn f() {}\n"
        )]
    ),
    // ── stale-pragma ──────────────────────────────────────────────────
    fx!(
        "pragma that suppresses nothing is stale",
        "stale-pragma",
        1,
        &[(
            "crates/core/src/sockbuf.rs",
            "use std::collections::BTreeMap;\npub struct C {\n    // lint: allow(nondet-order, converted to BTreeMap long ago)\n    live: BTreeMap<u64, u32>,\n}\n"
        )]
    ),
    fx!(
        "pragma that suppresses a finding is not stale",
        "stale-pragma",
        0,
        &[(
            "crates/core/src/sockbuf.rs",
            "use std::collections::HashMap;\npub struct C {\n    // lint: allow(nondet-order, keyed lookup only, never iterated)\n    live: HashMap<u64, u32>,\n}\n"
        )]
    ),
    fx!(
        "unknown-rule pragma reported as bad, not stale",
        "stale-pragma",
        0,
        &[("crates/core/src/tcp.rs", "// lint: allow(no-such-rule, because)\nfn f() {}\n")]
    ),
    fx!(
        "pragma in test region not reported stale",
        "stale-pragma",
        0,
        &[(
            "crates/core/src/tcp.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    // lint: allow(nondet-order, test-local map)\n    #[test]\n    fn t() {}\n}\n"
        )]
    ),
    fx!(
        "panic pragma orphaned by graph scoping is stale",
        "stale-pragma",
        1,
        &[(
            "crates/core/src/tcp.rs",
            "fn cold(x: Option<u32>) -> u32 {\n    // lint: allow(panic-hot-path, caller checks is_some)\n    x.unwrap()\n}\n"
        )]
    ),
];

/// Run the built-in fixtures: every rule must fire on its positive snippet
/// and stay quiet on masked/suppressed/cold variants, and every graph-mode
/// `panic-hot-path`/`payload-alloc` finding must carry a non-empty witness
/// chain. Returns the number of fixtures checked, or a description of the
/// first failure.
pub fn self_check() -> Result<usize, String> {
    for fx in FIXTURES {
        let inputs: Vec<(String, String)> = fx
            .files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        let opts = ScanOptions {
            graph: !fx.legacy,
            roots: fx.roots.iter().map(|s| s.to_string()).collect(),
        };
        let findings = scan_files(&inputs, &opts);
        let matching: Vec<&Finding> = findings.iter().filter(|f| f.rule == fx.rule).collect();
        if matching.len() != fx.expect {
            return Err(format!(
                "self-check fixture `{}` failed: expected {} `{}` finding(s), got {} \
                 (all findings: {:?})",
                fx.name,
                fx.expect,
                fx.rule,
                matching.len(),
                findings
            ));
        }
        if !fx.legacy && matches!(fx.rule, "panic-hot-path" | "payload-alloc") {
            for f in &matching {
                if f.chain.is_empty() {
                    return Err(format!(
                        "self-check fixture `{}` failed: graph-scoped `{}` finding at {} \
                         has an empty witness chain",
                        fx.name,
                        fx.rule,
                        f.id()
                    ));
                }
            }
        }
    }
    Ok(FIXTURES.len())
}

/// Number of built-in self-check fixtures (exposed for the integration
/// tests' coverage floor).
pub fn fixture_count() -> usize {
    FIXTURES.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_pass() {
        self_check().unwrap();
    }

    #[test]
    fn fixture_suite_grew_past_the_pr4_39() {
        assert!(fixture_count() > 39, "fixture count {}", fixture_count());
    }

    #[test]
    fn pragma_on_line_above_suppresses() {
        let src = "// lint: allow(wallclock, fixture)\nfn f() { let _ = std::env::var(\"X\"); }\n";
        assert!(scan_source("crates/core/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src =
            "// lint: allow(nondet-order, wrong rule)\nfn f() { let _ = std::env::var(\"X\"); }\n";
        let findings = scan_source("crates/core/src/tcp.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wallclock");
    }

    #[test]
    fn graph_findings_carry_chains_and_ids() {
        let inputs = vec![
            (
                "crates/core/src/kernel/output.rs".to_string(),
                "use crate::scatter::finish;\npub fn sys_write() { finish(None) }\n".to_string(),
            ),
            (
                "crates/core/src/scatter.rs".to_string(),
                "pub fn finish(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
            ),
        ];
        let findings = scan_files(&inputs, &ScanOptions::default());
        let f = findings
            .iter()
            .find(|f| f.rule == "panic-hot-path")
            .expect("cross-file panic found");
        assert_eq!(f.file, "crates/core/src/scatter.rs");
        assert_eq!(f.id(), "panic-hot-path@crates/core/src/scatter.rs:1");
        let names: Vec<&str> = f.chain.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["output::sys_write", "scatter::finish"]);
        assert_eq!(f.chain[0].file, "crates/core/src/kernel/output.rs");
    }

    #[test]
    fn json_v2_shape() {
        let inputs = vec![(
            "crates/core/src/kernel/output.rs".to_string(),
            "pub fn sys_write(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
        )];
        let findings = scan_files(&inputs, &ScanOptions::default());
        let json = render_json(Path::new("/tmp/x"), 1, &findings);
        assert!(json.contains("\"version\": \"outboard-lint-v2\""));
        assert!(json.contains("\"id\": \"panic-hot-path@crates/core/src/kernel/output.rs:1\""));
        assert!(json.contains("\"chain\": [{\"name\": \"output::sys_write\""));
    }

    #[test]
    fn json_is_escaped() {
        let findings = vec![Finding {
            rule: "wallclock",
            file: "a\"b.rs".to_string(),
            line: 3,
            message: "quote \" backslash \\".to_string(),
            snippet: "tab\there".to_string(),
            chain: Vec::new(),
        }];
        let json = render_json(Path::new("/tmp/x"), 1, &findings);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("quote \\\" backslash \\\\"));
        assert!(json.contains("tab\\there"));
    }

    #[test]
    fn sarif_has_code_flows_for_chained_findings() {
        let inputs = vec![(
            "crates/core/src/kernel/output.rs".to_string(),
            "pub fn sys_write(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
        )];
        let findings = scan_files(&inputs, &ScanOptions::default());
        let sarif = render_sarif(&findings);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"panic-hot-path\""));
        assert!(sarif.contains("\"codeFlows\""));
        assert!(sarif.contains("\"threadFlows\""));
        assert!(sarif.contains("output::sys_write"));
    }

    #[test]
    fn stale_pragma_detected_and_live_pragma_kept() {
        let inputs = vec![(
            "crates/core/src/sockbuf.rs".to_string(),
            "use std::collections::{BTreeMap, HashMap};\npub struct C {\n    \
             // lint: allow(nondet-order, converted long ago)\n    dead: BTreeMap<u64, u32>,\n    \
             // lint: allow(nondet-order, keyed lookup only)\n    live: HashMap<u64, u32>,\n}\n"
                .to_string(),
        )];
        let findings = scan_files(&inputs, &ScanOptions::default());
        let stale: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "stale-pragma")
            .collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 3);
    }
}
