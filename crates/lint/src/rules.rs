//! The mbp-lint rule set.
//!
//! Five domain rules, each keyed by a short id used in findings and
//! waivers:
//!
//! * `det` — determinism: no wall-clock / entropy sources and no
//!   `HashMap`/`HashSet` iteration in the pricing, ledger, and
//!   serialization crates.
//! * `panic` — panic-freedom: no `.unwrap()`/`.expect()`/`panic!`-family
//!   macros/slice indexing in the serve-path modules of `crates/core`
//!   outside `#[cfg(test)]`.
//! * `float` — float discipline: no `==`/`!=` against float literals or
//!   infinity/NaN constants outside tests, and no NaN-unsafe
//!   `partial_cmp(..).unwrap()` chains.
//! * `lock` — lock order: `SharedBroker` stripe mutexes are acquired in
//!   ascending index only and never while a core `RwLock` write guard is
//!   held.
//! * `safety` — unsafe audit: every `unsafe` token carries a `SAFETY:`
//!   comment on the same line or in the comment block directly above.
//!
//! All rules are lexical: they walk the token stream from
//! [`crate::lexer`], which is precise about comments, strings, and
//! lifetimes but does not resolve types. The residual imprecision is
//! handled by the waiver mechanism (see `crate::lib` docs) and by scoping
//! each rule to the modules where its invariant is load-bearing.

use crate::lexer::{tokenize, Tok, TokKind};
use std::collections::BTreeSet;

/// All rule ids a waiver may name, including the engine's own `lint` id
/// used for malformed/unused waivers.
pub const RULE_IDS: &[&str] = &["det", "panic", "float", "lock", "safety", "cast"];

/// Interprocedural (call-graph) rule ids. These are *not* waivable with
/// `LINT-ALLOW` — a graph finding comes with a witness call chain and is
/// either fixed or excluded by a `LINT-SCOPE` annotation the analysis
/// itself verifies. Their `[graph]` budgets in `lint.toml` are pinned at
/// zero.
pub const GRAPH_RULE_IDS: &[&str] = &["reach-panic", "taint-det", "lock-graph"];

/// A single finding, positioned at the offending token.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

/// An inline waiver comment parsed out of the file.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub line: u32,
    pub col: u32,
    /// False when the comment matched the waiver marker but not the
    /// `(<rule>): <reason>` grammar.
    pub valid: bool,
}

/// How rules are scoped to the file being analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeMode {
    /// Path-based scoping as configured for this repository.
    Repo,
    /// Every rule applies regardless of path; used by the fixture tests.
    AllRules,
}

/// Raw analysis of one file: pre-waiver findings plus the waivers seen.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];
const FLOAT_CONSTS: &[&str] = &["INFINITY", "NEG_INFINITY", "NAN"];
/// Keywords that can directly precede `[` without forming an index
/// expression (slice patterns, array types).
const NONINDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "if", "else", "match", "move", "static", "const", "as",
    "break", "dyn", "impl", "where", "box",
];

/// Crates whose source must be free of wall-clock / entropy calls.
///
/// The serve daemon's decode/dispatch modules (`wire.rs`, `conn.rs`) are
/// in scope too: request handling must be a pure function of the byte
/// stream and the connection's Hello seed. The accept/IO loop
/// (`server.rs`) legitimately reads `Instant::now` for idle timeouts and
/// deliberately stays outside the scope rather than burning a waiver —
/// timeouts affect *when* work happens, never *what* it computes.
fn det_time_scope(path: &str) -> bool {
    const PREFIXES: &[&str] = &[
        "crates/core/src/",
        "crates/randx/src/",
        "crates/optim/src/",
        "crates/ml/src/",
        "crates/linalg/src/",
        "crates/data/src/",
    ];
    PREFIXES.iter().any(|p| path.starts_with(p))
        || matches!(
            path,
            "crates/serve/src/wire.rs" | "crates/serve/src/conn.rs"
        )
}

/// Map-iteration determinism additionally covers the serialization crate.
fn det_map_scope(path: &str) -> bool {
    det_time_scope(path) || path.starts_with("crates/obs/src/")
}

/// Serve-path modules: everything `quote`/`buy`/`*_into` executes, plus
/// their pricing/mechanism/error-transform dependencies — the network
/// daemon's wire decode/dispatch path, which faces untrusted bytes and
/// must return typed protocol errors instead of panicking — and the WAL
/// record codec and segment writer, whose recovery path scans arbitrarily
/// torn or corrupted on-disk bytes and must skip or truncate, never panic.
fn panic_scope(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/pricing.rs"
            | "crates/core/src/mechanism.rs"
            | "crates/core/src/error.rs"
            | "crates/core/src/market/agents.rs"
            | "crates/core/src/market/concurrent.rs"
            | "crates/serve/src/wire.rs"
            | "crates/serve/src/conn.rs"
            | "crates/wal/src/record.rs"
            | "crates/wal/src/log.rs"
    )
}

/// Decode paths where a truncating `as` cast can mis-frame a record: the
/// wire codec and the WAL record codec. A length or offset silently
/// wrapped by `as u32`/`as u16` frames the wrong number of bytes, which
/// the recovery scan then reads as torn data.
fn cast_scope(path: &str) -> bool {
    matches!(
        path,
        "crates/serve/src/wire.rs" | "crates/wal/src/record.rs"
    )
}

/// Whole-file test context: integration tests, benches, examples.
fn is_test_path(path: &str) -> bool {
    const MARKERS: &[&str] = &["tests/", "benches/", "examples/"];
    MARKERS
        .iter()
        .any(|m| path.starts_with(m) || path.contains(&format!("/{m}")))
}

/// Analyze one file. `rel_path` must use `/` separators and be relative
/// to the workspace root (it drives rule scoping in [`ScopeMode::Repo`]).
pub fn analyze(rel_path: &str, src: &str, mode: ScopeMode) -> FileAnalysis {
    let toks = tokenize(src);
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let whole_file_test = mode == ScopeMode::Repo && is_test_path(rel_path);
    let test_mask = test_regions(&code, whole_file_test);
    let macro_mask = macro_regions(&code);
    let lines: Vec<&str> = src.lines().collect();

    let mut out = FileAnalysis {
        findings: Vec::new(),
        waivers: collect_waivers(&toks),
    };

    let all = mode == ScopeMode::AllRules;
    if all || det_time_scope(rel_path) {
        rule_det_time(&code, &test_mask, &mut out.findings);
    }
    if all || det_map_scope(rel_path) {
        rule_det_maps(&code, &test_mask, &mut out.findings);
    }
    if all || panic_scope(rel_path) {
        let scope_mask = scope_off_regions(&toks, &code, "reach-panic");
        let mask: Vec<bool> = test_mask
            .iter()
            .zip(scope_mask.iter())
            .map(|(t, s)| *t || *s)
            .collect();
        rule_panic(&code, &mask, &macro_mask, &mut out.findings);
    }
    if all || cast_scope(rel_path) {
        rule_cast(&code, &test_mask, &mut out.findings);
    }
    rule_float(&code, &test_mask, &mut out.findings);
    if all || code.iter().any(|t| t.is_ident("stripes")) {
        rule_lock(&code, &test_mask, &mut out.findings);
    }
    rule_safety(&toks, &code, &lines, &mut out.findings);

    out.findings.sort_by_key(|f| (f.line, f.col));
    out
}

/// Parse `LINT-ALLOW(<rule>): <reason>` waivers out of plain (non-doc)
/// comments. Doc comments are skipped so rule documentation can show the
/// grammar without registering a live waiver.
fn collect_waivers(toks: &[Tok]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for t in toks {
        if !t.is_comment() {
            continue;
        }
        let text = &t.text;
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = text.find("LINT-ALLOW(") else {
            continue;
        };
        let rest = &text[pos + "LINT-ALLOW(".len()..];
        let valid = match rest.split_once(')') {
            Some((rule, tail)) => {
                let rule_ok = RULE_IDS.contains(&rule.trim());
                let reason_ok = tail
                    .trim_start()
                    .strip_prefix(':')
                    .is_some_and(|r| !r.trim().is_empty());
                if rule_ok && reason_ok {
                    waivers.push(Waiver {
                        rule: rule.trim().to_string(),
                        line: t.line,
                        col: t.col,
                        valid: true,
                    });
                    continue;
                }
                false
            }
            None => false,
        };
        if !valid {
            waivers.push(Waiver {
                rule: String::new(),
                line: t.line,
                col: t.col,
                valid: false,
            });
        }
    }
    waivers
}

/// Index of the token closing the delimiter opened at `open` (`(`/`[`/`{`).
/// Returns the last index when the file ends unbalanced.
fn match_delim(code: &[&Tok], open: usize) -> usize {
    let (o, c) = match code[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Mark code tokens covered by `#[test]` / `#[cfg(test)]` / `#[bench]`
/// items (attribute through the item's closing brace or semicolon).
fn test_regions(code: &[&Tok], whole_file: bool) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![whole_file; n];
    if whole_file {
        return mask;
    }
    let mut i = 0usize;
    while i + 1 < n {
        if !(code[i].is_punct("#") && code[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let close = match_delim(code, i + 1);
        let is_test_attr = code[i + 1..close]
            .iter()
            .any(|t| t.is_ident("test") || t.is_ident("bench"));
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = close + 1;
        while k + 1 < n && code[k].is_punct("#") && code[k + 1].is_punct("[") {
            k = match_delim(code, k + 1) + 1;
        }
        // Walk to the item body: first `{` or `;` outside parens/brackets.
        let mut pd = 0i32;
        let mut end = None;
        while k < n {
            let t = code[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => pd += 1,
                    ")" | "]" => pd -= 1,
                    ";" if pd == 0 => {
                        end = Some(k);
                        break;
                    }
                    "{" if pd == 0 => {
                        end = Some(match_delim(code, k));
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let end = end.unwrap_or(n - 1);
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = close + 1;
    }
    mask
}

/// Mark tokens inside macro invocation arguments (`name!(...)` etc.), so
/// lexical expression rules don't misread macro fragments.
fn macro_regions(code: &[&Tok]) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![false; n];
    for i in 0..n.saturating_sub(2) {
        let (name, bang, open) = (code[i], code[i + 1], code[i + 2]);
        let adjacent = name.kind == TokKind::Ident
            && bang.is_punct("!")
            && name.line == bang.line
            && name.col + name.text.len() as u32 == bang.col;
        if !adjacent {
            continue;
        }
        if !(open.is_punct("(") || open.is_punct("[") || open.is_punct("{")) {
            continue;
        }
        let close = match_delim(code, i + 2);
        for m in mask.iter_mut().take(close + 1).skip(i + 2) {
            *m = true;
        }
    }
    mask
}

/// Mark code tokens covered by an item carrying a
/// `// LINT-SCOPE(<rule>): <reason>` annotation directly above it.
///
/// Unlike `LINT-ALLOW`, a scope annotation is not a free pass: the
/// interprocedural pass re-checks every `reach-panic`-scoped function and
/// fails the run if it is actually reachable from a serve root. The
/// file-local rule only steps aside here so the proof obligation moves to
/// the call graph.
fn scope_off_regions(toks: &[Tok], code: &[&Tok], rule: &str) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![false; n];
    let marker = format!("LINT-SCOPE({rule})");
    for t in toks {
        if !t.is_comment() || t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(pos) = t.text.find(marker.as_str()) else {
            continue;
        };
        let tail = &t.text[pos + marker.len()..];
        let valid = tail
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        if !valid {
            continue;
        }
        // First code token past the annotation line starts the item.
        let Some(start) = code.iter().position(|c| c.line > t.line) else {
            continue;
        };
        // Skip attributes, then walk to the item body end.
        let mut k = start;
        while k + 1 < n && code[k].is_punct("#") && code[k + 1].is_punct("[") {
            k = match_delim(code, k + 1) + 1;
        }
        let mut pd = 0i32;
        let mut end = None;
        while k < n {
            let c = code[k];
            if c.kind == TokKind::Punct {
                match c.text.as_str() {
                    "(" | "[" => pd += 1,
                    ")" | "]" => pd -= 1,
                    ";" if pd == 0 => {
                        end = Some(k);
                        break;
                    }
                    "{" if pd == 0 => {
                        end = Some(match_delim(code, k));
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let end = end.unwrap_or(n - 1);
        for m in mask.iter_mut().take(end + 1).skip(start) {
            *m = true;
        }
    }
    mask
}

/// Integer types a cast *into* can silently truncate on a 64-bit target.
/// `usize`/`u64`/`i64` and wider are excluded: the codec's native width is
/// 64 bits, so widening casts cannot lose framing information. The source
/// type is unknowable lexically — every cast into a narrow type is
/// flagged and the bound, if any, goes in the waiver reason.
const NARROW_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn rule_cast(code: &[&Tok], test: &[bool], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if test[i] {
            continue;
        }
        let t = code[i];
        if !t.is_ident("as") {
            continue;
        }
        let Some(target) = code.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_CAST_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        out.push(Finding {
            rule: "cast",
            line: t.line,
            col: t.col,
            msg: format!(
                "truncating `as {}` cast in a decode path — a wrapped length/offset mis-frames the record; use `try_from` with a typed error, or waive with the range proof",
                target.text
            ),
        });
    }
}

// -- pub(crate) accessors for the interprocedural layer ---------------------
//
// `symbols.rs` parses the same token stream and must agree token-for-token
// with the rule engine on what counts as test code, macro arguments, and
// delimiter matching — so it reuses these instead of reimplementing them.

pub(crate) fn is_test_path_pub(path: &str) -> bool {
    is_test_path(path)
}

pub(crate) fn match_delim_pub(code: &[&Tok], open: usize) -> usize {
    match_delim(code, open)
}

pub(crate) fn test_regions_pub(code: &[&Tok], whole_file: bool) -> Vec<bool> {
    test_regions(code, whole_file)
}

pub(crate) fn macro_regions_pub(code: &[&Tok]) -> Vec<bool> {
    macro_regions(code)
}

fn rule_det_time(code: &[&Tok], test: &[bool], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let clock = (t.text == "SystemTime" || t.text == "Instant")
            && code.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && code.get(i + 2).is_some_and(|n| n.is_ident("now"));
        if clock {
            out.push(Finding {
                rule: "det",
                line: t.line,
                col: t.col,
                msg: format!(
                    "wall-clock call `{}::now` in a determinism-critical crate (thread seeded time through the config instead)",
                    t.text
                ),
            });
            continue;
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng"
        ) {
            out.push(Finding {
                rule: "det",
                line: t.line,
                col: t.col,
                msg: format!(
                    "entropy-seeded RNG `{}` in a determinism-critical crate (use the seeded mbp-randx streams)",
                    t.text
                ),
            });
        }
    }
}

fn rule_det_maps(code: &[&Tok], test: &[bool], out: &mut Vec<Finding>) {
    // Names bound or typed as HashMap/HashSet in this file.
    let mut names: BTreeSet<String> = BTreeSet::new();
    for i in 0..code.len() {
        let t = code[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std::collections::` path prefix.
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct("::") && code[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        // `name: HashMap<..>` (binding or field type) or `name = HashMap::..`.
        let prev = code[j - 1];
        if (prev.is_punct(":") || prev.is_punct("="))
            && j >= 2
            && code[j - 2].kind == TokKind::Ident
        {
            names.insert(code[j - 2].text.clone());
        }
    }
    if names.is_empty() {
        return;
    }
    for i in 0..code.len() {
        if test[i] {
            continue;
        }
        let t = code[i];
        // map.iter() / .keys() / .values() / .drain() / .retain() …
        if t.kind == TokKind::Ident
            && names.contains(&t.text)
            && code.get(i + 1).is_some_and(|n| n.is_punct("."))
            && code.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && ITER_METHODS.contains(&n.text.as_str())
            })
            && code.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            out.push(Finding {
                rule: "det",
                line: t.line,
                col: t.col,
                msg: format!(
                    "iteration over hash-ordered `{}` is nondeterministic (use BTreeMap/BTreeSet or collect-and-sort)",
                    t.text
                ),
            });
            continue;
        }
        // for pat in [&[mut]] map { … }
        if t.is_ident("for") {
            let mut k = i + 1;
            let limit = (i + 12).min(code.len());
            while k < limit && !code[k].is_ident("in") {
                k += 1;
            }
            if k >= limit {
                continue;
            }
            let mut m = k + 1;
            while code
                .get(m)
                .is_some_and(|x| x.is_punct("&") || x.is_ident("mut"))
            {
                m += 1;
            }
            if code
                .get(m)
                .is_some_and(|x| x.kind == TokKind::Ident && names.contains(&x.text))
                && code.get(m + 1).is_some_and(|x| x.is_punct("{"))
            {
                let x = code[m];
                out.push(Finding {
                    rule: "det",
                    line: x.line,
                    col: x.col,
                    msg: format!(
                        "for-loop over hash-ordered `{}` is nondeterministic (use BTreeMap/BTreeSet or collect-and-sort)",
                        x.text
                    ),
                });
            }
        }
    }
}

fn rule_panic(code: &[&Tok], test: &[bool], in_macro: &[bool], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if test[i] {
            continue;
        }
        let t = code[i];
        // .unwrap( / .expect(
        if t.is_punct(".")
            && code
                .get(i + 1)
                .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            && code.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            let n = code[i + 1];
            out.push(Finding {
                rule: "panic",
                line: n.line,
                col: n.col,
                msg: format!(
                    ".{}() can panic in a serve-path module (return a typed error or restructure infallibly)",
                    n.text
                ),
            });
            continue;
        }
        // panic!/unreachable!/todo!/unimplemented!
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| {
                n.is_punct("!") && n.line == t.line && t.col + t.text.len() as u32 == n.col
            })
        {
            out.push(Finding {
                rule: "panic",
                line: t.line,
                col: t.col,
                msg: format!(
                    "{}! aborts the serve path (return a typed error instead)",
                    t.text
                ),
            });
            continue;
        }
        // Postfix indexing: `expr[...]` where expr ends in an identifier,
        // `)`, or `]`. Macro arguments are exempt (their fragments are not
        // plain expressions).
        if t.is_punct("[") && !in_macro[i] && i > 0 {
            let prev = code[i - 1];
            let postfix = match prev.kind {
                TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if postfix {
                out.push(Finding {
                    rule: "panic",
                    line: t.line,
                    col: t.col,
                    msg: "slice/array indexing can panic in a serve-path module (use .get()/.first()/.last() or iterators)".to_string(),
                });
            }
        }
    }
}

fn rule_float(code: &[&Tok], test: &[bool], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if test[i] {
            continue;
        }
        let t = code[i];
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let prev_float = i > 0
                && (code[i - 1].kind == TokKind::Float
                    || (code[i - 1].kind == TokKind::Ident
                        && FLOAT_CONSTS.contains(&code[i - 1].text.as_str())));
            let next_float = code.get(i + 1).is_some_and(|n| n.kind == TokKind::Float) || {
                // `== f64::INFINITY`-style path: scan a short ident/`::` run.
                let mut j = i + 1;
                let mut hit = false;
                while j < code.len() && j <= i + 5 {
                    let n = code[j];
                    if n.kind == TokKind::Ident {
                        if FLOAT_CONSTS.contains(&n.text.as_str()) {
                            hit = true;
                        }
                        j += 1;
                    } else if n.is_punct("::") {
                        j += 1;
                    } else {
                        break;
                    }
                }
                hit
            };
            if prev_float || next_float {
                out.push(Finding {
                    rule: "float",
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "`{}` on floating-point values (compare against a tolerance, or restructure so exactness is provable)",
                        t.text
                    ),
                });
            }
            continue;
        }
        // partial_cmp(..).unwrap() / .expect(..): NaN panics at runtime.
        if t.is_ident("partial_cmp") && code.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            let close = match_delim(code, i + 1);
            if code.get(close + 1).is_some_and(|n| n.is_punct("."))
                && code
                    .get(close + 2)
                    .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            {
                out.push(Finding {
                    rule: "float",
                    line: t.line,
                    col: t.col,
                    msg: "partial_cmp().unwrap/expect panics on NaN (use f64::total_cmp)"
                        .to_string(),
                });
            }
        }
    }
}

fn rule_lock(code: &[&Tok], test: &[bool], out: &mut Vec<Finding>) {
    struct Guard {
        name: String,
        depth: i32,
        stmt_temp: bool,
    }
    let mut depth = 0i32;
    let mut write_guards: Vec<Guard> = Vec::new();
    let mut stripe_aliases: BTreeSet<String> = BTreeSet::new();
    let mut stmt_has_let = false;
    let mut let_name: Option<String> = None;
    let mut stmt_has_stripes = false;
    let mut last_const_idx: Option<i64> = None;
    // `for <vars> in …stripes… {` — the loop vars alias individual stripes.
    let mut for_state = 0u8; // 0 none, 1 collecting vars, 2 after `in`
    let mut for_vars: Vec<String> = Vec::new();
    let mut for_saw_stripes = false;

    for i in 0..code.len() {
        let t = code[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if for_state == 2 && for_saw_stripes {
                    stripe_aliases.extend(for_vars.drain(..));
                }
                for_state = 0;
                stmt_has_let = false;
                let_name = None;
                stmt_has_stripes = false;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                write_guards.retain(|g| g.depth <= depth);
                stmt_has_let = false;
                let_name = None;
                stmt_has_stripes = false;
            }
            (TokKind::Punct, ";") => {
                write_guards.retain(|g| !g.stmt_temp);
                for_state = 0;
                stmt_has_let = false;
                let_name = None;
                stmt_has_stripes = false;
            }
            (TokKind::Ident, "fn") => {
                last_const_idx = None;
            }
            (TokKind::Ident, "for") => {
                for_state = 1;
                for_vars.clear();
                for_saw_stripes = false;
            }
            (TokKind::Ident, "in") if for_state == 1 => {
                for_state = 2;
            }
            (TokKind::Ident, "let") => {
                stmt_has_let = true;
                let_name = None;
            }
            (TokKind::Ident, "drop")
                if code.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && code.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                    && code.get(i + 3).is_some_and(|n| n.is_punct(")")) =>
            {
                let dropped = &code[i + 2].text;
                write_guards.retain(|g| &g.name != dropped);
            }
            (TokKind::Ident, "stripes") => {
                stmt_has_stripes = true;
                if for_state == 2 {
                    for_saw_stripes = true;
                }
                if stmt_has_let {
                    if let Some(n) = &let_name {
                        stripe_aliases.insert(n.clone());
                    }
                }
                // stripes[<const>].lock(): check ascending constant order.
                if code.get(i + 1).is_some_and(|n| n.is_punct("["))
                    && code.get(i + 2).is_some_and(|n| n.kind == TokKind::Int)
                    && code.get(i + 3).is_some_and(|n| n.is_punct("]"))
                    && code.get(i + 4).is_some_and(|n| n.is_punct("."))
                    && code
                        .get(i + 5)
                        .is_some_and(|n| n.is_ident("lock") || n.is_ident("try_lock"))
                {
                    let idx: i64 = code[i + 2].text.replace('_', "").parse().unwrap_or(0);
                    if let Some(last) = last_const_idx {
                        if idx < last {
                            out.push(Finding {
                                rule: "lock",
                                line: t.line,
                                col: t.col,
                                msg: format!(
                                    "stripe mutexes must be locked in ascending index order (stripe {idx} after stripe {last})"
                                ),
                            });
                        }
                    }
                    last_const_idx = Some(idx);
                }
            }
            (TokKind::Ident, "rev")
                if stmt_has_stripes
                    && i > 0
                    && code[i - 1].is_punct(".")
                    && code.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && !test[i] =>
            {
                out.push(Finding {
                    rule: "lock",
                    line: t.line,
                    col: t.col,
                    msg: "reverse iteration over ledger stripes violates the ascending lock order"
                        .to_string(),
                });
            }
            (TokKind::Punct, ".")
                if code
                    .get(i + 1)
                    .is_some_and(|n| n.is_ident("lock") || n.is_ident("try_lock"))
                    && code.get(i + 2).is_some_and(|n| n.is_punct("(")) =>
            {
                let receiver_is_stripe = stmt_has_stripes
                    || (i > 0
                        && code[i - 1].kind == TokKind::Ident
                        && stripe_aliases.contains(&code[i - 1].text));
                if receiver_is_stripe && !write_guards.is_empty() && !test[i] {
                    let n = code[i + 1];
                    out.push(Finding {
                        rule: "lock",
                        line: n.line,
                        col: n.col,
                        msg: "stripe mutex acquired while the core RwLock write guard is held (drain stripes before taking the write lock)".to_string(),
                    });
                }
            }
            (TokKind::Ident, "write")
                if i > 0
                    && code[i - 1].is_punct(".")
                    && i > 1
                    && code[i - 2].is_ident("core")
                    && code.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                write_guards.push(Guard {
                    name: let_name.clone().unwrap_or_default(),
                    depth,
                    stmt_temp: !stmt_has_let,
                });
            }
            (TokKind::Ident, _) => {
                if for_state == 1 {
                    for_vars.push(t.text.clone());
                } else if stmt_has_let && let_name.is_none() && t.text != "mut" {
                    let_name = Some(t.text.clone());
                }
            }
            _ => {}
        }
    }
}

fn rule_safety(toks: &[Tok], code: &[&Tok], lines: &[&str], out: &mut Vec<Finding>) {
    // Lines carrying a comment that contains "SAFETY:". Block comments
    // credit every line they span.
    let mut safety_lines: BTreeSet<u32> = BTreeSet::new();
    for t in toks {
        if t.is_comment() && t.text.contains("SAFETY:") {
            let span = t.text.matches('\n').count() as u32;
            for l in t.line..=t.line + span {
                safety_lines.insert(l);
            }
        }
    }
    for t in code {
        if !t.is_ident("unsafe") {
            continue;
        }
        let mut covered = safety_lines.contains(&t.line);
        let mut ln = t.line.saturating_sub(1);
        while !covered && ln >= 1 {
            if safety_lines.contains(&ln) {
                covered = true;
                break;
            }
            let raw = lines.get(ln as usize - 1).map_or("", |l| l.trim());
            // Walk up through the comment/attribute block (and adjacent
            // `unsafe impl`/`unsafe fn` lines sharing one justification).
            let skippable = raw.starts_with("//")
                || raw.starts_with("#[")
                || raw.starts_with("#!")
                || raw.starts_with("/*")
                || raw.starts_with('*')
                || raw.starts_with("unsafe ");
            if !skippable {
                break;
            }
            ln -= 1;
        }
        if !covered {
            out.push(Finding {
                rule: "safety",
                line: t.line,
                col: t.col,
                msg: "`unsafe` without a `// SAFETY:` comment justifying the invariant".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        analyze("fixture.rs", src, ScopeMode::AllRules).findings
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = r#"
fn hot(v: &[f64]) -> f64 { v.first().copied().unwrap_or(0.0) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let v = vec![1.0]; let _ = v[0] + v.iter().sum::<f64>(); v.last().unwrap(); }
}
"#;
        assert!(
            findings(src).iter().all(|f| f.rule != "panic"),
            "{:?}",
            findings(src)
        );
    }

    #[test]
    fn indexing_in_macro_args_is_exempt() {
        let src = "fn f(w: &[f64]) { assert!(w[0] < w[1], \"sorted\"); }";
        assert!(findings(src).iter().all(|f| f.rule != "panic"));
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        let src = "fn f(v: &[f64; 2]) { let [a, b] = *v; let _ = a + b; }";
        assert!(findings(src).iter().all(|f| f.rule != "panic"));
    }

    #[test]
    fn hashmap_keyed_access_is_allowed() {
        let src = r#"
use std::collections::HashMap;
fn f(menu: &HashMap<u32, f64>) -> Option<f64> { menu.get(&1).copied() }
"#;
        assert!(findings(src).iter().all(|f| f.rule != "det"));
    }

    #[test]
    fn total_cmp_is_allowed() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }";
        assert!(findings(src).iter().all(|f| f.rule != "float"));
    }

    #[test]
    fn read_guard_plus_stripe_is_allowed() {
        let src = r#"
fn f(s: &Shared) {
    let core = s.inner.core.read();
    let total: f64 = s.inner.stripes.iter().map(|x| x.lock().len() as f64).sum();
    drop(core);
    let _ = total;
}
"#;
        assert!(
            findings(src).iter().all(|f| f.rule != "lock"),
            "{:?}",
            findings(src)
        );
    }

    #[test]
    fn drained_then_write_is_allowed() {
        let src = r#"
fn f(s: &Shared) {
    let mut drained = Vec::new();
    for stripe in s.inner.stripes.iter() {
        drained.append(&mut *stripe.lock());
    }
    let mut core = s.inner.core.write();
    core.settle(drained);
}
"#;
        assert!(
            findings(src).iter().all(|f| f.rule != "lock"),
            "{:?}",
            findings(src)
        );
    }

    #[test]
    fn safety_comment_above_group_covers_all() {
        let src = r#"
// SAFETY: the pointer is owned and unique for the region's lifetime.
unsafe impl Send for P {}
unsafe impl Sync for P {}
"#;
        assert!(
            findings(src).iter().all(|f| f.rule != "safety"),
            "{:?}",
            findings(src)
        );
    }

    // ---- serve daemon scope boundaries ------------------------------------
    // The wire decode/dispatch path faces untrusted bytes and must be
    // panic-free and clock-free; the accept/IO loop may read Instant for
    // idle timeouts and stays outside both scopes (no waiver spent).

    #[test]
    fn serve_request_path_is_in_det_and_panic_scope() {
        for path in ["crates/serve/src/wire.rs", "crates/serve/src/conn.rs"] {
            assert!(det_time_scope(path), "{path} must be det-scoped");
            assert!(det_map_scope(path), "{path} must be det-map-scoped");
            assert!(panic_scope(path), "{path} must be panic-scoped");
        }
        assert!(!det_time_scope("crates/serve/src/server.rs"));
        assert!(!panic_scope("crates/serve/src/server.rs"));
        assert!(!panic_scope("crates/serve/src/client.rs"));
        assert!(is_test_path("crates/serve/tests/loopback.rs"));
    }

    /// The WAL codec and segment writer parse torn / corrupted on-disk
    /// bytes and are panic-scoped; file I/O timing is legal there (no
    /// determinism scope), and the durability handle stays outside —
    /// its sink hooks only count errors.
    #[test]
    fn wal_recovery_path_is_panic_scoped_but_not_det_scoped() {
        for path in ["crates/wal/src/record.rs", "crates/wal/src/log.rs"] {
            assert!(panic_scope(path), "{path} must be panic-scoped");
            assert!(!det_time_scope(path), "{path} must not be det-scoped");
        }
        assert!(!panic_scope("crates/wal/src/durability.rs"));
        assert!(is_test_path("crates/wal/tests/wal_recovery.rs"));
    }

    #[test]
    fn serve_conn_fixture_flags_unwrap_and_clock_in_repo_mode() {
        let src =
            "fn f(v: &[u8]) -> u8 { let _t = std::time::Instant::now(); v.first().copied().unwrap() }";
        let conn = analyze("crates/serve/src/conn.rs", src, ScopeMode::Repo);
        assert!(
            conn.findings.iter().any(|f| f.rule == "panic"),
            "{:?}",
            conn.findings
        );
        assert!(
            conn.findings.iter().any(|f| f.rule == "det"),
            "{:?}",
            conn.findings
        );
        // The same source in the IO loop is legal: timeouts change when
        // work happens, never what it computes.
        let server = analyze("crates/serve/src/server.rs", src, ScopeMode::Repo);
        assert!(server.findings.is_empty(), "{:?}", server.findings);
    }

    // ---- tracing-layer idioms (mbp-obs v2) --------------------------------
    // The span/flight-recorder code keeps all wall-clock reads inside
    // `crates/obs` and `crates/bench`, which sit outside the `det` scope.
    // These fixtures pin the boundary: the patterns obs exports into
    // det-scoped crates stay clean, and the patterns it must NOT leak
    // (clock reads, HashMap iteration) still flag.

    #[test]
    fn wall_clock_read_still_flags_in_det_scope() {
        // Span timing must stay behind the obs API; an `Instant::now()`
        // smuggled into a pricing crate is a det finding, not a waiver.
        let src = "fn stamp() -> std::time::Instant { std::time::Instant::now() }";
        assert!(
            findings(src).iter().any(|f| f.rule == "det"),
            "{:?}",
            findings(src)
        );
    }

    #[test]
    fn thread_local_cell_trace_context_is_clean() {
        // The trace-context token (`trace << 32 | span`) propagated through
        // worker threads: thread_local Cell get/replace, no findings.
        let src = r#"
thread_local! {
    static CONTEXT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
fn enter(token: u64) -> u64 {
    CONTEXT.with(|c| c.replace(token))
}
fn current() -> u64 {
    CONTEXT.with(std::cell::Cell::get)
}
"#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn btreemap_iteration_is_allowed_where_hashmap_iteration_flags() {
        // Labeled histograms key series by (listing, mechanism, phase) in a
        // BTreeMap precisely so snapshot iteration stays deterministic.
        let clean = r#"
use std::collections::BTreeMap;
fn snapshot(series: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    series.iter().map(|(k, v)| (k.clone(), *v)).collect()
}
"#;
        assert!(
            findings(clean).iter().all(|f| f.rule != "det"),
            "{:?}",
            findings(clean)
        );
        let dirty = r#"
use std::collections::HashMap;
fn snapshot() -> Vec<(String, u64)> {
    let series: HashMap<String, u64> = HashMap::new();
    series.iter().map(|(k, v)| (k.clone(), *v)).collect()
}
"#;
        assert!(
            findings(dirty).iter().any(|f| f.rule == "det"),
            "{:?}",
            findings(dirty)
        );
    }

    #[test]
    fn span_guard_before_stripe_lock_is_allowed() {
        // The concurrent ledger wraps a contended stripe acquisition in an
        // `mbp.core.lock_wait` span; the RAII guard binding must not
        // confuse the ascending-stripe lock-order rule.
        let src = r#"
fn f(s: &Shared) {
    let _wait = mbp_obs::span("mbp.core.lock_wait");
    let a = s.inner.stripes[0].lock();
    drop(_wait);
    let _root = mbp_obs::trace_root("mbp.core.buy", "linear_regression", "gaussian");
    let b = s.inner.stripes[1].lock();
    let _ = (a, b);
}
"#;
        assert!(
            findings(src).iter().all(|f| f.rule != "lock"),
            "{:?}",
            findings(src)
        );
    }

    #[test]
    fn seqlock_ring_publish_is_clean() {
        // The flight recorder's seqlock slot protocol: sequence bump,
        // checked slot access, release store. No unsafe, no unwrap, no
        // indexing panics — the pattern must pass every rule unwaived.
        let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
struct Slot { seq: AtomicU64, payload: std::sync::Mutex<u64> }
fn record(slots: &[Slot], cursor: &AtomicU64, value: u64) {
    let idx = cursor.fetch_add(1, Ordering::Relaxed) as usize % slots.len().max(1);
    if let Some(slot) = slots.get(idx) {
        let seq = slot.seq.load(Ordering::Acquire);
        slot.seq.store(seq.wrapping_add(1), Ordering::Release);
        if let Ok(mut p) = slot.payload.lock() {
            *p = value;
        }
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
    }
}
"#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }
}
