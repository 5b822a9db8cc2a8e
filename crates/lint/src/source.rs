//! One lexed source file, and the lexical site detectors the per-file and
//! graph rules share.
//!
//! Every workspace file is read, tokenized and masked once into a
//! [`Source`]: its code tokens, the `#[test]`/`#[cfg(test)]` and
//! macro-argument masks, its `HashMap`/`HashSet` bindings, and its
//! `LINT-ALLOW` waivers and `LINT-SCOPE` annotations. The per-file rules
//! ([`crate::rules`]) and the symbol model ([`crate::symbols`]) both read
//! that one value, so they agree token for token on what counts as test
//! code, macro arguments and delimiter matching.
//!
//! Each invariant has one site detector here: [`Source::panic_site`],
//! [`Source::taint_site`] and [`Source::lock_site`]. The per-file
//! `panic`/`det` rules report the first two inside their path scopes; the
//! graph rules `reach-panic`/`taint-det` seed their call-graph closures
//! with the same sites, and `lock-graph` replays the lock sites in
//! statement order.

use crate::lexer::{Tok, TokKind};
use crate::rules::{ScopeMode, RULE_IDS};
use std::collections::BTreeSet;

/// One source file, lexed and masked once. `code` and the masks are
/// indexed alike: `test[i]` and `in_macro[i]` describe `code[i]`.
pub struct Source<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    pub text: &'a str,
    pub mode: ScopeMode,
    /// Every token, comments included.
    pub toks: &'a [Tok],
    /// The non-comment tokens, the stream every rule walks.
    pub code: Vec<&'a Tok>,
    /// `code[i]` belongs to a `#[test]`/`#[cfg(test)]`/`#[bench]` item,
    /// or, under [`ScopeMode::Repo`], to a whole-file test context
    /// (integration tests, benches, examples).
    pub test: Vec<bool>,
    /// `code[i]` lies inside macro invocation arguments (`name!(...)`).
    pub in_macro: Vec<bool>,
    /// Names bound or typed as `HashMap`/`HashSet` in this file.
    pub hash_names: BTreeSet<String>,
    pub waivers: Vec<Waiver>,
    /// All `LINT-SCOPE` annotations, malformed ones included — the run
    /// reports invalid ones under the `lint` rule so a typo cannot
    /// silently disable a proof obligation.
    pub annotations: Vec<ScopeAnnotation>,
}

impl<'a> Source<'a> {
    /// Mask `toks` (the tokens of `text`) for the file at `rel_path`.
    pub fn new(rel_path: &'a str, text: &'a str, toks: &'a [Tok], mode: ScopeMode) -> Self {
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
        let whole_file_test = mode == ScopeMode::Repo && is_test_path(rel_path);
        Source {
            rel_path,
            text,
            mode,
            toks,
            test: test_regions(&code, whole_file_test),
            in_macro: macro_regions(&code),
            hash_names: hash_names(&code),
            waivers: collect_waivers(toks),
            annotations: collect_scope_annotations(toks),
            code,
        }
    }

    /// The syntactic may-panic site at `code[i]`, if any: `.unwrap()` /
    /// `.expect()`, a `panic!`-family macro, postfix indexing outside macro
    /// arguments, or division/remainder by a literal zero.
    pub fn panic_site(&self, i: usize) -> Option<PanicSite> {
        let code = &self.code;
        let t = code[i];
        let site = |kind, name: &str, at: &Tok| PanicSite {
            kind,
            name: name.to_string(),
            line: at.line,
            col: at.col,
        };
        if t.is_punct(".")
            && code.get(i + 2).is_some_and(|x| x.is_punct("("))
            && code
                .get(i + 1)
                .is_some_and(|x| x.is_ident("unwrap") || x.is_ident("expect"))
        {
            let n = code[i + 1];
            return Some(site(PanicKind::Unwrap, &n.text, n));
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|x| {
                x.is_punct("!") && x.line == t.line && t.col + t.text.len() as u32 == x.col
            })
        {
            return Some(site(PanicKind::Macro, &t.text, t));
        }
        if t.is_punct("[") && !self.in_macro[i] && i > 0 {
            let prev = code[i - 1];
            let postfix = match prev.kind {
                TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if postfix {
                return Some(site(PanicKind::Index, "", t));
            }
        }
        if (t.is_punct("/") || t.is_punct("%"))
            && code
                .get(i + 1)
                .is_some_and(|x| x.kind == TokKind::Int && x.text.replace('_', "") == "0")
        {
            return Some(site(PanicKind::DivZero, &t.text, t));
        }
        None
    }

    /// The determinism-taint source at `code[i]`, if any: a wall-clock
    /// read, an entropy-seeded RNG, a thread-identity read, or iteration
    /// over a `HashMap`/`HashSet` binding (a method or a `for` loop).
    pub fn taint_site(&self, i: usize) -> Option<TaintSite> {
        let code = &self.code;
        let t = code[i];
        if t.kind != TokKind::Ident {
            return None;
        }
        let site = |class, at: &Tok| TaintSite {
            class,
            name: at.text.clone(),
            line: at.line,
            col: at.col,
        };
        if (t.text == "SystemTime" || t.text == "Instant")
            && code.get(i + 1).is_some_and(|x| x.is_punct("::"))
            && code.get(i + 2).is_some_and(|x| x.is_ident("now"))
        {
            return Some(site(TaintClass::Clock, t));
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng"
        ) {
            return Some(site(TaintClass::Entropy, t));
        }
        if t.text == "current"
            && i >= 2
            && code[i - 1].is_punct("::")
            && code[i - 2].is_ident("thread")
            && code.get(i + 1).is_some_and(|x| x.is_punct("("))
        {
            let close = match_delim(code, i + 1);
            if code.get(close + 1).is_some_and(|x| x.is_punct("."))
                && code.get(close + 2).is_some_and(|x| x.is_ident("id"))
            {
                return Some(site(TaintClass::ThreadId, t));
            }
            return None;
        }
        // map.iter() / .keys() / .values() / .drain() / .retain() …
        if self.hash_names.contains(&t.text)
            && code.get(i + 1).is_some_and(|x| x.is_punct("."))
            && code.get(i + 2).is_some_and(|x| {
                x.kind == TokKind::Ident && ITER_METHODS.contains(&x.text.as_str())
            })
            && code.get(i + 3).is_some_and(|x| x.is_punct("("))
        {
            return Some(site(TaintClass::MapIter { for_loop: false }, t));
        }
        // for pat in [&[mut]] map { … }
        if t.text == "for" {
            let limit = (i + 12).min(code.len());
            let k = (i + 1..limit).find(|&k| code[k].is_ident("in"))?;
            let mut m = k + 1;
            while code
                .get(m)
                .is_some_and(|x| x.is_punct("&") || x.is_ident("mut"))
            {
                m += 1;
            }
            let map = code
                .get(m)
                .filter(|x| x.kind == TokKind::Ident && self.hash_names.contains(&x.text))?;
            if code.get(m + 1).is_some_and(|x| x.is_punct("{")) {
                return Some(site(TaintClass::MapIter { for_loop: true }, map));
            }
        }
        None
    }

    /// The lock site at `code[i]`, if any: a `core.write()` guard, or a
    /// `.lock()`/`.try_lock()` on a receiver named by the token before the
    /// dot (`self.writer.lock()` → `mutex:writer`).
    pub fn lock_site(&self, i: usize) -> Option<LockSite> {
        let code = &self.code;
        let t = code[i];
        let method =
            i >= 1 && code[i - 1].is_punct(".") && code.get(i + 1).is_some_and(|x| x.is_punct("("));
        if !method {
            return None;
        }
        let class = if t.is_ident("write") && i >= 2 && code[i - 2].is_ident("core") {
            LockClass::CoreWrite
        } else if t.is_ident("lock") || t.is_ident("try_lock") {
            let recv = (i >= 2 && code[i - 2].kind == TokKind::Ident).then(|| &code[i - 2].text);
            LockClass::Other(recv.map_or("?", String::as_str).to_string())
        } else {
            return None;
        };
        Some(LockSite {
            class,
            line: t.line,
            col: t.col,
        })
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede `[` without forming an index
/// expression (slice patterns, array types).
const NONINDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "if", "else", "match", "move", "static", "const", "as",
    "break", "dyn", "impl", "where", "box",
];

/// Methods that iterate a map or set in its (hash) order.
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

/// The shape of a may-panic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.expect()`.
    Unwrap,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    Macro,
    /// Postfix indexing `expr[...]`.
    Index,
    /// `/ 0` or `% 0`.
    DivZero,
}

/// A syntactic may-panic site. `name` is the method, macro or operator
/// token (empty for indexing).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub name: String,
    pub line: u32,
    pub col: u32,
}

impl PanicSite {
    /// Short description, as graph witness messages quote it.
    pub fn what(&self) -> String {
        match self.kind {
            PanicKind::Unwrap => format!(".{}()", self.name),
            PanicKind::Macro => format!("{}!", self.name),
            PanicKind::Index => "slice indexing".to_string(),
            PanicKind::DivZero => format!("`{} 0`", self.name),
        }
    }

    /// The per-file `panic` finding message.
    pub fn message(&self) -> String {
        match self.kind {
            PanicKind::Unwrap => format!(
                "{} can panic in a serve-path module (return a typed error or restructure infallibly)",
                self.what()
            ),
            PanicKind::Macro => format!(
                "{} aborts the serve path (return a typed error instead)",
                self.what()
            ),
            PanicKind::Index => "slice/array indexing can panic in a serve-path module (use .get()/.first()/.last() or iterators)".to_string(),
            PanicKind::DivZero => format!(
                "{} always panics in a serve-path module (a literal zero divisor)",
                self.what()
            ),
        }
    }
}

/// The class of a determinism-taint source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintClass {
    /// `SystemTime::now` / `Instant::now`.
    Clock,
    /// An entropy-seeded RNG: `thread_rng`, `from_entropy`, `OsRng`,
    /// `ThreadRng`.
    Entropy,
    /// `thread::current().id()`.
    ThreadId,
    /// Iteration over a `HashMap`/`HashSet` binding, by an iterating
    /// method or by a `for` loop.
    MapIter { for_loop: bool },
}

/// A determinism-taint source. `name` is the token it was found at: the
/// clock type, the RNG, `current`, or the map binding.
#[derive(Debug, Clone)]
pub struct TaintSite {
    pub class: TaintClass,
    pub name: String,
    pub line: u32,
    pub col: u32,
}

impl TaintSite {
    /// Short description, as graph witness messages quote it.
    pub fn what(&self) -> String {
        match self.class {
            TaintClass::Clock => format!("{}::now", self.name),
            TaintClass::Entropy => format!("ambient RNG `{}`", self.name),
            TaintClass::ThreadId => "thread::current().id()".to_string(),
            TaintClass::MapIter { for_loop: false } => {
                format!("iteration over hash-ordered `{}`", self.name)
            }
            TaintClass::MapIter { for_loop: true } => {
                format!("for-loop over hash-ordered `{}`", self.name)
            }
        }
    }

    /// The per-file `det` finding message.
    pub fn message(&self) -> String {
        match self.class {
            TaintClass::Clock => format!(
                "wall-clock call `{}` in a determinism-critical crate (thread seeded time through the config instead)",
                self.what()
            ),
            TaintClass::Entropy => format!(
                "entropy-seeded RNG `{}` in a determinism-critical crate (use the seeded mbp-randx streams)",
                self.name
            ),
            TaintClass::ThreadId => format!(
                "thread-identity read `{}` in a determinism-critical crate (key per-thread state by an explicit index)",
                self.what()
            ),
            TaintClass::MapIter { .. } => format!(
                "{} is nondeterministic (use BTreeMap/BTreeSet or collect-and-sort)",
                self.what()
            ),
        }
    }
}

/// The lock classes `lock-graph` tracks.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The `SharedBroker` core `RwLock` write guard (`core.write()`).
    CoreWrite,
    /// A named mutex (`self.writer.lock()` → `Other("writer")`).
    Other(String),
}

impl LockClass {
    /// Node name in the lock-order graph.
    pub fn order_node(&self) -> String {
        match self {
            LockClass::CoreWrite => "core.write".to_string(),
            LockClass::Other(n) => format!("mutex:{n}"),
        }
    }
}

/// A lock acquisition, positioned at its method token.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub class: LockClass,
    pub line: u32,
    pub col: u32,
}

/// An inline `LINT-ALLOW(<rule>): <reason>` waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub line: u32,
    pub col: u32,
    /// False when the comment matched the waiver marker but not the
    /// `(<rule>): <reason>` grammar.
    pub valid: bool,
}

/// A `LINT-SCOPE(<rule>): <reason>` annotation comment.
#[derive(Debug, Clone)]
pub struct ScopeAnnotation {
    pub rule: String,
    pub line: u32,
    pub col: u32,
    pub valid: bool,
}

/// Rules a `LINT-SCOPE` annotation may name.
const SCOPE_RULES: &[&str] = &["reach-panic", "taint-det", "lock-graph"];

/// Parse `<marker><rule>): <reason>` directives out of plain (non-doc)
/// comments. Doc comments are skipped so documentation can show the
/// grammar without registering a live directive. The rule is `None` when
/// the comment holds the marker but not a known rule and a non-empty
/// reason.
fn directives<'t>(
    toks: &'t [Tok],
    marker: &'static str,
    rules: &'static [&'static str],
) -> impl Iterator<Item = (Option<&'t str>, &'t Tok)> {
    toks.iter()
        .filter(|t| {
            t.is_comment()
                && !["///", "//!", "/**", "/*!"]
                    .iter()
                    .any(|doc| t.text.starts_with(doc))
        })
        .filter_map(move |t| {
            let pos = t.text.find(marker)?;
            let rule = t.text[pos + marker.len()..]
                .split_once(')')
                .and_then(|(rule, tail)| {
                    let rule = rule.trim();
                    let reason_ok = tail
                        .trim_start()
                        .strip_prefix(':')
                        .is_some_and(|r| !r.trim().is_empty());
                    (rules.contains(&rule) && reason_ok).then_some(rule)
                });
            Some((rule, t))
        })
}

fn collect_waivers(toks: &[Tok]) -> Vec<Waiver> {
    directives(toks, "LINT-ALLOW(", RULE_IDS)
        .map(|(rule, t)| Waiver {
            rule: rule.unwrap_or_default().to_string(),
            line: t.line,
            col: t.col,
            valid: rule.is_some(),
        })
        .collect()
}

fn collect_scope_annotations(toks: &[Tok]) -> Vec<ScopeAnnotation> {
    directives(toks, "LINT-SCOPE(", SCOPE_RULES)
        .map(|(rule, t)| ScopeAnnotation {
            rule: rule.unwrap_or_default().to_string(),
            line: t.line,
            col: t.col,
            valid: rule.is_some(),
        })
        .collect()
}

/// Whole-file test context: integration tests, benches, examples.
pub(crate) fn is_test_path(path: &str) -> bool {
    const MARKERS: &[&str] = &["tests/", "benches/", "examples/"];
    MARKERS
        .iter()
        .any(|m| path.starts_with(m) || path.contains(&format!("/{m}")))
}

/// Index of the token closing the delimiter opened at `open` (`(`/`[`/`{`).
/// Returns the last index when the file ends unbalanced.
pub(crate) fn match_delim(code: &[&Tok], open: usize) -> usize {
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

/// Index of the last token of the item starting at `start`: skips its
/// attributes, then ends at the first `;` outside parens/brackets or at
/// the brace closing its body. Returns the last index when the file ends
/// first.
pub(crate) fn item_end(code: &[&Tok], start: usize) -> usize {
    let n = code.len();
    let mut k = start;
    while k + 1 < n && code[k].is_punct("#") && code[k + 1].is_punct("[") {
        k = match_delim(code, k + 1) + 1;
    }
    let mut pd = 0i32;
    while k < n {
        let t = code[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => pd += 1,
                ")" | "]" => pd -= 1,
                ";" if pd == 0 => return k,
                "{" if pd == 0 => return match_delim(code, k),
                _ => {}
            }
        }
        k += 1;
    }
    n.saturating_sub(1)
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
        if is_test_attr {
            let end = item_end(code, close + 1);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
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

/// Names bound or typed as `HashMap`/`HashSet`: `name: HashMap<..>`
/// (binding or field type) or `name = HashMap::..`, with any
/// `std::collections::` path prefix.
fn hash_names(code: &[&Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct("::") && code[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j >= 2
            && (code[j - 1].is_punct(":") || code[j - 1].is_punct("="))
            && code[j - 2].kind == TokKind::Ident
        {
            names.insert(code[j - 2].text.clone());
        }
    }
    names
}
