//! The rule registry.
//!
//! Every rule is a function from a lexed file to findings. Rules run over
//! the masked view (so comments and string literals never trip them) and
//! skip test regions. Suppression via `// lint: allow(rule, reason)`
//! pragmas is applied by the caller in [`crate::scan_files`].
//!
//! Scoping comes in two flavors. The legacy `FileList` scope is the PR-4
//! behavior: `panic-hot-path`, `payload-alloc`, and `wallclock` fire on a
//! hard-coded set of paths. The `Graph` scope replaces the path test with
//! interprocedural reachability: a construct is hot iff its enclosing fn
//! is reachable from a declared entry point in the workspace call graph
//! (see [`crate::graph`]), and every finding carries the witness call
//! chain that proves it.

use crate::lexer::{FileIndex, LexedFile};
use crate::{Finding, Hop};

/// Names of every registered rule (pragmas naming anything else are
/// themselves reported as `bad-pragma`).
pub const RULE_NAMES: &[&str] = &[
    "panic-hot-path",
    "nondet-order",
    "wallclock",
    "metrics-naming",
    "span-balance",
    "payload-alloc",
    "bad-pragma",
    "stale-pragma",
];

/// TX/RX hot-path modules: the legacy (pre-call-graph) scope for
/// `panic-hot-path`, and still the scope for `span-balance` (span pairing
/// is a per-module discipline, not a reachability property).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/kernel/output.rs",
    "crates/core/src/kernel/input.rs",
    "crates/core/src/kernel/robust.rs",
    "crates/core/src/driver.rs",
    "crates/cab/src/cab.rs",
    "crates/cab/src/netmem.rs",
    "crates/cab/src/mac.rs",
];

/// Crates whose state feeds the simulation: any iteration-order dependence
/// here can leak into event ordering and break byte-identical runs.
const SIM_FACING: &[&str] = &[
    "crates/cab/src/",
    "crates/core/src/",
    "crates/host/src/",
    "crates/netsim/src/",
    "crates/sim/src/",
    "crates/testbed/src/",
];

/// Paths exempt from the wallclock rule: the bench harness may legitimately
/// read wall time and environment (it measures the real machine), and the
/// lint tool itself parses argv. The exemption survives graph scoping
/// because the conservative name-based call resolution can pull bench
/// helpers into the reachable set through method-name collisions.
const WALLCLOCK_EXEMPT: &[&str] = &["crates/bench/", "crates/lint/"];

/// Frame/cluster payload hot paths (legacy file-list scope): frames pass
/// through here as shared `Bytes` views and must not be copied into fresh
/// per-frame storage. Under graph scoping the rule instead fires in any
/// reachable fn inside these crates.
const PAYLOAD_FILES: &[&str] = &[
    "crates/netsim/src/link.rs",
    "crates/netsim/src/fault.rs",
    "crates/mbuf/src/mbuf.rs",
    "crates/mbuf/src/chain.rs",
];

/// Crate prefixes whose reachable fns are in scope for `payload-alloc`
/// under graph scoping (kernel-side allocation is legitimate; the rule
/// guards the link and mbuf layers that only forward frame storage).
const PAYLOAD_CRATES: &[&str] = &["crates/netsim/", "crates/mbuf/"];

/// Reachability scope for one file: the byte extents of every reachable fn
/// body, each with the witness call chain (root first) that reaches it.
/// Built by [`crate::scan_files`] from the workspace call graph.
#[derive(Debug, Default)]
pub struct FileScope {
    /// `(body_start, body_end, chain)` per reachable fn, source order.
    pub hot: Vec<(usize, usize, Vec<Hop>)>,
}

impl FileScope {
    /// Witness chain for the innermost reachable fn body containing `pos`,
    /// or `None` when `pos` is not on the hot path.
    pub fn chain_at(&self, pos: usize) -> Option<&[Hop]> {
        self.hot
            .iter()
            .filter(|&&(s, e, _)| s <= pos && pos < e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|(_, _, c)| c.as_slice())
    }
}

/// How the three hot-path rules decide what is hot.
#[derive(Debug)]
pub enum RuleScope<'a> {
    /// Legacy PR-4 behavior: hard-coded file lists, no chains.
    FileList,
    /// Interprocedural: reachable fn extents for the file under scan.
    Graph(&'a FileScope),
}

struct ScanCx<'a> {
    rel: &'a str,
    lex: &'a LexedFile,
    index: &'a FileIndex,
    raw: &'a str,
    scope: &'a RuleScope<'a>,
}

/// Run every per-file rule over one file. (`stale-pragma` is a
/// workspace-level rule and lives in [`crate::scan_files`].)
pub fn run_all(
    rel: &str,
    raw: &str,
    lex: &LexedFile,
    index: &FileIndex,
    scope: &RuleScope<'_>,
) -> Vec<Finding> {
    let cx = ScanCx {
        rel,
        lex,
        index,
        raw,
        scope,
    };
    let mut findings = Vec::new();
    panic_hot_path(&cx, &mut findings);
    nondet_order(&cx, &mut findings);
    wallclock(&cx, &mut findings);
    metrics_naming(&cx, &mut findings);
    span_balance(&cx, &mut findings);
    payload_alloc(&cx, &mut findings);
    bad_pragma(&cx, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets where `needle` occurs in the masked text as a standalone
/// token (preceding byte is not an identifier char; when
/// `next_non_ident` is set, the following byte must not be one either).
fn token_hits(lex: &LexedFile, needle: &str, next_non_ident: bool) -> Vec<usize> {
    let hay = lex.masked.as_bytes();
    let pat = needle.as_bytes();
    let guard_prev = pat.first().copied().map(is_ident).unwrap_or(false);
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(hay, pat, from) {
        from = pos + 1;
        if guard_prev && pos > 0 && is_ident(hay[pos - 1]) {
            continue;
        }
        if next_non_ident {
            let after = pos + pat.len();
            if after < hay.len() && is_ident(hay[after]) {
                continue;
            }
        }
        hits.push(pos);
    }
    hits
}

fn find_from(hay: &[u8], pat: &[u8], from: usize) -> Option<usize> {
    if pat.is_empty() || from + pat.len() > hay.len() {
        return None;
    }
    hay[from..]
        .windows(pat.len())
        .position(|w| w == pat)
        .map(|p| p + from)
}

fn snippet_at(cx: &ScanCx<'_>, line: usize) -> String {
    cx.raw
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .chars()
        .take(120)
        .collect()
}

fn push(cx: &ScanCx<'_>, out: &mut Vec<Finding>, rule: &'static str, pos: usize, message: String) {
    push_chain(cx, out, rule, pos, message, Vec::new());
}

fn push_chain(
    cx: &ScanCx<'_>,
    out: &mut Vec<Finding>,
    rule: &'static str,
    pos: usize,
    message: String,
    chain: Vec<Hop>,
) {
    let line = cx.lex.line_of(pos);
    if cx.lex.is_test_line(line) {
        return;
    }
    out.push(Finding {
        rule,
        file: cx.rel.to_string(),
        line,
        message,
        snippet: snippet_at(cx, line),
        chain,
    });
}

/// In graph scope, the witness chain for `pos` (None = not hot). In
/// file-list scope, `Some(empty)` when `rel` is in `files`.
fn hot_chain(cx: &ScanCx<'_>, files: &[&str], pos: usize) -> Option<Vec<Hop>> {
    match cx.scope {
        RuleScope::FileList => files.contains(&cx.rel).then(Vec::new),
        RuleScope::Graph(fs) => fs.chain_at(pos).map(<[Hop]>::to_vec),
    }
}

/// Rule 1: no panicking constructs on the TX/RX hot path. Under graph
/// scoping, "hot path" means any fn reachable from a declared entry point
/// — a panic in a helper three crates away still takes the host down.
fn panic_hot_path(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    const NEEDLES: &[(&str, bool)] = &[
        ("panic!", false),
        (".unwrap(", false),
        (".expect(", false),
        ("unreachable!", false),
        ("todo!", false),
        ("unimplemented!", false),
    ];
    for &(needle, next) in NEEDLES {
        for pos in token_hits(cx.lex, needle, next) {
            let Some(chain) = hot_chain(cx, HOT_PATH_FILES, pos) else {
                continue;
            };
            push_chain(
                cx,
                out,
                "panic-hot-path",
                pos,
                format!("`{needle}` on a hot path: a driver must degrade, not abort"),
                chain,
            );
        }
    }
}

/// Rule 2: hash-ordered containers in sim-facing crates. `HashMap<…>` /
/// `HashSet<…>` iteration order varies run to run; a type declared here
/// must either be a `BTreeMap`/`BTreeSet` or carry a
/// `// lint: allow(nondet-order, reason)` pragma asserting it is only ever
/// used for keyed lookup. Matches plain type positions (`HashMap<…>`,
/// including type-alias RHS and fully-qualified paths), turbofish
/// expression positions (`HashMap::<…>`), and local renames
/// (`use std::collections::HashMap as Peers;` makes `Peers<…>` fire).
fn nondet_order(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    if !SIM_FACING.iter().any(|p| cx.rel.starts_with(p)) {
        return;
    }
    // `use std::collections::HashMap as X` (or `hashbrown::HashMap as X`)
    // makes the rename a needle of its own.
    let mut needles: Vec<(String, &'static str)> = vec![
        ("HashMap".to_string(), "HashMap"),
        ("HashSet".to_string(), "HashSet"),
    ];
    for u in &cx.index.uses {
        if let Some(last) = u.path.last() {
            if (last == "HashMap" || last == "HashSet") && u.local != *last {
                needles.push((
                    u.local.clone(),
                    if last == "HashMap" {
                        "HashMap"
                    } else {
                        "HashSet"
                    },
                ));
            }
        }
    }
    let hay = cx.lex.masked.as_bytes();
    for (needle, canonical) in &needles {
        for pos in token_hits(cx.lex, needle, true) {
            // Type positions (`HashMap<…>`) and turbofish (`HashMap::<…>`)
            // pin the container choice and need a decision; plain
            // `HashMap::new()` initializers follow from a declaration
            // that is flagged where it is written.
            let mut after = pos + needle.len();
            while after < hay.len() && hay[after].is_ascii_whitespace() {
                after += 1;
            }
            if after + 1 < hay.len() && hay[after] == b':' && hay[after + 1] == b':' {
                after += 2;
                while after < hay.len() && hay[after].is_ascii_whitespace() {
                    after += 1;
                }
            }
            if after >= hay.len() || hay[after] != b'<' {
                continue;
            }
            let spelled = if needle == canonical {
                format!("`{canonical}`")
            } else {
                format!("`{needle}` (= `{canonical}`)")
            };
            push(
                cx,
                out,
                "nondet-order",
                pos,
                format!(
                    "{spelled} in a sim-facing crate: iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet or pragma a lookup-only map"
                ),
            );
        }
    }
}

/// Rule 3: no wall-clock or environment reads outside the bench harness.
/// Simulated time comes from `sim::Time`; anything else breaks replay.
/// Under graph scoping the rule tightens from "anywhere outside bench" to
/// "reachable from an entry point" — cold config readers are no longer
/// flagged, hot ones gain a witness chain.
fn wallclock(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    if WALLCLOCK_EXEMPT.iter().any(|p| cx.rel.starts_with(p)) {
        return;
    }
    const NEEDLES: &[(&str, bool)] = &[
        ("Instant", true),
        ("SystemTime", true),
        ("std::env", true),
        ("env::var", false),
        ("env::vars", false),
    ];
    for &(needle, next) in NEEDLES {
        for pos in token_hits(cx.lex, needle, next) {
            let chain = match cx.scope {
                // Legacy scope: every non-exempt file.
                RuleScope::FileList => Vec::new(),
                RuleScope::Graph(fs) => match fs.chain_at(pos) {
                    Some(c) => c.to_vec(),
                    None => continue,
                },
            };
            push_chain(
                cx,
                out,
                "wallclock",
                pos,
                format!("`{needle}`: wall-clock/environment access outside crates/bench breaks determinism"),
                chain,
            );
        }
    }
}

/// Rule 4: metric names registered through `sim::obs` must fit the
/// `host{i}.cab{j}.*` / `world.*` taxonomy — including the causal-tracing
/// `world.spans.*` / `host{i}.spans.*` namespace (per-stage `p50_ns`,
/// `p99_ns`, `max_ns`, `bytes` leaves), the windowed-telemetry
/// `world.timeline.*` namespace (`windows`, `evicted`, `series`,
/// `window_ns`), and the flight-recorder series names
/// (`host{i}.tx_bytes`-style per-host leaves plus `world.faults`):
/// lowercase dotted snake_case, with `{…}` format holes allowed inside a
/// segment.
fn metrics_naming(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    if !SIM_FACING.iter().any(|p| cx.rel.starts_with(p)) {
        return;
    }
    const CALLS: &[&str] = &[
        ".counter(",
        ".gauge(",
        ".frac(",
        ".busy_frac(",
        ".hist(",
        ".scope(",
        ".sub(",
    ];
    for call in CALLS {
        for pos in token_hits(cx.lex, call, false) {
            let Some(lit) = literal_first_arg(cx, pos + call.len()) else {
                continue;
            };
            if !valid_metric_name(&lit) {
                push(
                    cx,
                    out,
                    "metrics-naming",
                    pos,
                    format!(
                        "metric name \"{lit}\" violates the taxonomy \
                         (lowercase dotted snake_case, `{{hole}}`s allowed)"
                    ),
                );
            }
        }
    }
}

/// If the first argument at `from` (raw text) is a string literal —
/// possibly behind `&` and/or `format!(` — return its contents.
fn literal_first_arg(cx: &ScanCx<'_>, mut from: usize) -> Option<String> {
    let raw = cx.raw.as_bytes();
    loop {
        while from < raw.len() && raw[from].is_ascii_whitespace() {
            from += 1;
        }
        if from < raw.len() && raw[from] == b'&' {
            from += 1;
            continue;
        }
        if cx.raw[from..].starts_with("format!") {
            from += "format!".len();
            while from < raw.len() && raw[from].is_ascii_whitespace() {
                from += 1;
            }
            if from < raw.len() && raw[from] == b'(' {
                from += 1;
                continue;
            }
            return None;
        }
        break;
    }
    if from >= raw.len() || raw[from] != b'"' {
        return None;
    }
    cx.lex
        .strings
        .iter()
        .find(|s| s.start == from)
        .map(|s| s.value.clone())
}

/// Lowercase dotted snake_case with `{…}` holes: `host{i}.cab{j}.frames`.
fn valid_metric_name(name: &str) -> bool {
    // Replace format holes with a valid placeholder char so `cab{j}`
    // validates as `cab0` and a whole-segment hole like `{ch}` still
    // counts as a non-empty segment.
    let mut stripped = String::new();
    let mut in_hole = false;
    for c in name.chars() {
        match c {
            '{' if !in_hole => in_hole = true,
            '}' if in_hole => {
                in_hole = false;
                stripped.push('0');
            }
            _ if in_hole => {}
            _ => stripped.push(c),
        }
    }
    if in_hole || stripped.is_empty() {
        return false;
    }
    stripped.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Rule 5: span accounting on the hot path. A `span_open(` call whose
/// enclosing function never calls `span_close`/`span_close_bytes`/
/// `span_drop` leaks an open span: it will surface as `dropped` at run
/// teardown instead of a measured close. Cross-function open/close pairs
/// belong in the `kernel/mod.rs` helper layer (`span_detour_open` and
/// friends), which this rule deliberately does not match. Span pairing is
/// a per-module discipline, so this rule keeps its file-list scope even
/// under graph scoping.
fn span_balance(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&cx.rel) {
        return;
    }
    let opens = token_hits(cx.lex, "span_open(", false);
    if opens.is_empty() {
        return;
    }
    let extents = fn_extents(cx.lex.masked.as_bytes());
    for pos in opens {
        // Innermost enclosing function body (extents are in source order,
        // so the last match is the innermost for nested items).
        let body = extents.iter().rev().find(|&&(s, e)| s <= pos && pos < e);
        let balanced = body.is_some_and(|&(s, e)| {
            let body = &cx.lex.masked[s..e];
            ["span_close(", "span_close_bytes(", "span_drop("]
                .iter()
                .any(|close| body.contains(close))
        });
        if !balanced {
            push(
                cx,
                out,
                "span-balance",
                pos,
                "`span_open` with no `span_close`/`span_drop` in the same function \
                 leaks an open span on the hot path; route cross-function pairs \
                 through the kernel span helpers"
                    .to_string(),
            );
        }
    }
}

/// Byte ranges of every `fn` body (`{`..`}`) in the masked text, in source
/// order. Brace matching is done on the masked view, so braces inside
/// strings and comments never unbalance it.
fn fn_extents(hay: &[u8]) -> Vec<(usize, usize)> {
    let mut extents = Vec::new();
    let mut i = 0usize;
    while i + 2 < hay.len() {
        let standalone = hay[i] == b'f'
            && hay[i + 1] == b'n'
            && !is_ident(hay[i + 2])
            && (i == 0 || !is_ident(hay[i - 1]));
        if !standalone {
            i += 1;
            continue;
        }
        // Body opens at the first `{` after the signature; `;` first means
        // a bodiless declaration (trait method, extern).
        let mut j = i + 2;
        while j < hay.len() && hay[j] != b'{' && hay[j] != b';' {
            j += 1;
        }
        if j >= hay.len() || hay[j] == b';' {
            i = j.max(i + 1);
            continue;
        }
        let open = j;
        let mut depth = 0usize;
        while j < hay.len() {
            match hay[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        extents.push((open, j.min(hay.len())));
        i += 2;
    }
    extents
}

/// Rule 6: no direct payload allocation on the frame/cluster hot paths.
/// The netsim link/fault layer and the mbuf chain forward frames as
/// shared `Bytes` views; a stray `vec![…]`, `Vec::with_capacity`, or
/// `.to_vec()` there copies every frame into fresh storage. Under graph
/// scoping: any reachable fn inside the netsim or mbuf crates.
fn payload_alloc(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    const NEEDLES: &[&str] = &["vec!", "Vec::with_capacity", ".to_vec("];
    let in_payload_crate = PAYLOAD_CRATES.iter().any(|p| cx.rel.starts_with(p));
    for needle in NEEDLES {
        for pos in token_hits(cx.lex, needle, false) {
            let chain = match cx.scope {
                RuleScope::FileList => {
                    if !PAYLOAD_FILES.contains(&cx.rel) {
                        continue;
                    }
                    Vec::new()
                }
                RuleScope::Graph(fs) => {
                    if !in_payload_crate {
                        continue;
                    }
                    match fs.chain_at(pos) {
                        Some(c) => c.to_vec(),
                        None => continue,
                    }
                }
            };
            push_chain(
                cx,
                out,
                "payload-alloc",
                pos,
                format!(
                    "`{needle}` on a payload hot path: frames pass by shared \
                     `Bytes` view, not per-frame copies (pragma a cold path \
                     with a reason)"
                ),
                chain,
            );
        }
    }
}

/// Rule 7: malformed pragmas and pragmas naming unknown rules. Not
/// suppressible (a pragma cannot vouch for itself).
fn bad_pragma(cx: &ScanCx<'_>, out: &mut Vec<Finding>) {
    for issue in &cx.lex.pragma_issues {
        out.push(Finding {
            rule: "bad-pragma",
            file: cx.rel.to_string(),
            line: issue.line,
            message: issue.message.clone(),
            snippet: snippet_at(cx, issue.line),
            chain: Vec::new(),
        });
    }
    for pragma in &cx.lex.pragmas {
        if !RULE_NAMES.contains(&pragma.rule.as_str()) {
            out.push(Finding {
                rule: "bad-pragma",
                file: cx.rel.to_string(),
                line: pragma.line,
                message: format!("pragma allows unknown rule `{}`", pragma.rule),
                snippet: snippet_at(cx, pragma.line),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::valid_metric_name;

    #[test]
    fn metric_name_shapes() {
        assert!(valid_metric_name("tcp.segs_out"));
        assert!(valid_metric_name("world.spans.opened"));
        assert!(valid_metric_name("world.spans.mdma_rx.p99_ns"));
        assert!(valid_metric_name("world.spans.{stage}.bytes"));
        assert!(valid_metric_name("world.chaos.events_applied"));
        assert!(valid_metric_name("world.chaos.down_drops"));
        assert!(valid_metric_name("host{i}.cab{j}.frames_tx"));
        assert!(valid_metric_name("channel.{ch}.frames_tx"));
        assert!(valid_metric_name("world"));
        assert!(!valid_metric_name("Bad Name"));
        assert!(!valid_metric_name("tcp..segs"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("trailing."));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("host{i"));
        assert!(!valid_metric_name("kebab-case"));
    }
}
