//! The mbp-lint per-file rule set.
//!
//! Five rules, each keyed by a short id used in findings and waivers:
//!
//! * `det` — determinism: no wall-clock, entropy or thread-identity reads
//!   and no `HashMap`/`HashSet` iteration in the pricing, ledger, and
//!   serialization crates.
//! * `panic` — panic-freedom: no `.unwrap()`/`.expect()`/`panic!`-family
//!   macros/slice indexing/division by a literal zero in the serve-path
//!   modules outside `#[cfg(test)]`.
//! * `float` — float discipline: no `==`/`!=` against float literals or
//!   infinity/NaN constants outside tests, and no NaN-unsafe
//!   `partial_cmp(..).unwrap()` chains.
//! * `safety` — unsafe audit: every `unsafe` token carries a `SAFETY:`
//!   comment on the same line or in the comment block directly above.
//! * `cast` — no truncating `as` casts in the wire and WAL decode paths.
//!
//! All rules are lexical: they walk the token stream of one
//! [`Source`], which is precise about comments, strings, and lifetimes
//! but does not resolve types. `det` and `panic` own no token matching:
//! they report the sites of [`Source::taint_site`] and
//! [`Source::panic_site`] — the detectors the call-graph rules seed from —
//! inside their path scopes. The residual imprecision is handled by the
//! waiver mechanism (see `crate::lib` docs) and by scoping each rule to
//! the modules where its invariant is load-bearing. Lock order has no
//! per-file rule: the graph rule `lock-graph` checks it within and across
//! functions ([`crate::dataflow::analyze_locks`]).

use crate::lexer::{Tok, TokKind};
use crate::source::{item_end, match_delim, Source, TaintClass};
use std::collections::BTreeSet;

/// All rule ids a waiver may name, including the engine's own `lint` id
/// used for malformed/unused waivers.
pub const RULE_IDS: &[&str] = &["det", "panic", "float", "safety", "cast"];

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

/// How rules are scoped to the file being analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeMode {
    /// Path-based scoping as configured for this repository.
    Repo,
    /// Every rule applies regardless of path; used by the fixture tests.
    AllRules,
}

const FLOAT_CONSTS: &[&str] = &["INFINITY", "NEG_INFINITY", "NAN"];

/// Crates whose source must be free of wall-clock, entropy and
/// thread-identity reads.
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

/// Analyze one lexed file: its pre-waiver findings, sorted by position.
/// Under [`ScopeMode::Repo`] the file's `rel_path` drives rule scoping.
pub fn analyze(file: &Source) -> Vec<Finding> {
    let rel_path = file.rel_path;
    let code = &file.code;
    let test_mask = &file.test;
    let lines: Vec<&str> = file.text.lines().collect();
    let mut out = Vec::new();

    let all = file.mode == ScopeMode::AllRules;
    // Clock, entropy and thread-identity reads in `det_time_scope`; map
    // iteration in the wider `det_map_scope`.
    let det_time = all || det_time_scope(rel_path);
    let det_map = all || det_map_scope(rel_path);
    if det_map {
        for i in (0..code.len()).filter(|&i| !test_mask[i]) {
            if let Some(site) = file.taint_site(i) {
                let in_scope = match site.class {
                    TaintClass::MapIter { .. } => det_map,
                    _ => det_time,
                };
                if in_scope {
                    out.push(Finding {
                        rule: "det",
                        line: site.line,
                        col: site.col,
                        msg: site.message(),
                    });
                }
            }
        }
    }
    if all || panic_scope(rel_path) {
        // Items scoped out of `reach-panic` step aside here: the
        // interprocedural pass proves them unreachable from serve roots.
        let scope_mask = scope_off_mask(file, "reach-panic");
        for i in (0..code.len()).filter(|&i| !test_mask[i] && !scope_mask[i]) {
            if let Some(site) = file.panic_site(i) {
                out.push(Finding {
                    rule: "panic",
                    line: site.line,
                    col: site.col,
                    msg: site.message(),
                });
            }
        }
    }
    if all || cast_scope(rel_path) {
        rule_cast(code, test_mask, &mut out);
    }
    rule_float(code, test_mask, &mut out);
    rule_safety(file.toks, code, &lines, &mut out);

    out.sort_by_key(|f| (f.line, f.col));
    out
}

/// Mark code tokens covered by an item carrying a valid
/// `// LINT-SCOPE(<rule>): <reason>` annotation directly above it.
///
/// Unlike `LINT-ALLOW`, a scope annotation is not a free pass: the
/// interprocedural pass re-checks every `reach-panic`-scoped function and
/// fails the run if it is actually reachable from a serve root. The
/// file-local rule only steps aside here so the proof obligation moves to
/// the call graph.
fn scope_off_mask(file: &Source, rule: &str) -> Vec<bool> {
    let code = &file.code;
    let mut mask = vec![false; code.len()];
    for a in file
        .annotations
        .iter()
        .filter(|a| a.valid && a.rule == rule)
    {
        // First code token past the annotation line starts the item.
        let Some(start) = code.iter().position(|c| c.line > a.line) else {
            continue;
        };
        let end = item_end(code, start);
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
    use crate::lexer::tokenize;
    use crate::source::is_test_path;

    fn analyze_src(rel_path: &str, src: &str, mode: ScopeMode) -> Vec<Finding> {
        let toks = tokenize(src);
        analyze(&Source::new(rel_path, src, &toks, mode))
    }

    fn findings(src: &str) -> Vec<Finding> {
        analyze_src("fixture.rs", src, ScopeMode::AllRules)
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
        let conn = analyze_src("crates/serve/src/conn.rs", src, ScopeMode::Repo);
        assert!(conn.iter().any(|f| f.rule == "panic"), "{:?}", conn);
        assert!(conn.iter().any(|f| f.rule == "det"), "{:?}", conn);
        // The same source in the IO loop is legal: timeouts change when
        // work happens, never what it computes.
        let server = analyze_src("crates/serve/src/server.rs", src, ScopeMode::Repo);
        assert!(server.is_empty(), "{:?}", server);
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
