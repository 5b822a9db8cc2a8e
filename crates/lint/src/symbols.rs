//! Per-file item trees and function facts for the interprocedural pass.
//!
//! This layer parses the code tokens of one [`Source`] into a pragmatic
//! item tree: `fn` items with their `impl`/`mod` context, the
//! file's `use`-alias table, and — for every function body — the facts
//! the graph analyses consume:
//!
//! * **call sites** (plain `foo(..)`, path `a::b::foo(..)`, and method
//!   `.foo(..)` calls with a best-effort receiver-type hint),
//! * **syntactic panic sites** and **determinism-taint sources**, found
//!   by [`Source::panic_site`] and [`Source::taint_site`] — the detectors
//!   the per-file `panic`/`det` rules report from,
//! * **lock events** — the [`Source::lock_site`] sites (core write-guard
//!   and stripe-mutex acquisitions, reverse walks over `stripes`) plus
//!   scope, statement and `drop(..)` boundaries — in statement order,
//!   interleaved with the call sites so the lock analysis can replay
//!   "what was held at this call".
//!
//! The parser is deliberately *not* a full Rust frontend: closures belong
//! to their enclosing function (a sound over-approximation — the closure
//! might never run), trait method declarations without bodies are
//! skipped, and generic arguments are skipped token-wise. The
//! `#[cfg(test)]` mask is the one [`Source`] computes for the per-file
//! rules, so test-only functions never enter the graph.

use crate::lexer::{Tok, TokKind};
use crate::source::{match_delim, LockClass, LockKind, PanicSite, Source, TaintSite};
use std::collections::{BTreeMap, BTreeSet};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` — a bare name in expression position.
    Plain { name: String },
    /// `a::b::foo(..)` — a path call (module- or type-qualified).
    Path { segs: Vec<String> },
    /// `.foo(..)` — a method call; `recv` is the receiver *type* when the
    /// lightweight local-type inference could determine it.
    Method { name: String, recv: Option<String> },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    pub line: u32,
    pub col: u32,
}

impl CallSite {
    /// The bare callee name (last path segment).
    pub fn name(&self) -> &str {
        match &self.kind {
            CallKind::Plain { name } | CallKind::Method { name, .. } => name,
            CallKind::Path { segs } => segs.last().map(String::as_str).unwrap_or(""),
        }
    }
}

/// Ordered body events the lock analysis replays.
#[derive(Debug, Clone)]
pub enum BodyEvent {
    /// `{` — opens a scope (guards bound inside die at the close).
    Open,
    /// `}` — closes a scope.
    Close,
    /// `;` — end of statement (temporary guards die here).
    StmtEnd,
    /// A call; the index points into [`FnItem::calls`].
    Call(usize),
    /// A lock acquisition. `binding` is the `let` name holding the guard
    /// (None = temporary, released at statement end).
    Acquire {
        class: LockClass,
        binding: Option<String>,
        line: u32,
        col: u32,
    },
    /// `drop(name)` — explicit guard release.
    DropName(String),
    /// `.rev()` in a statement over `stripes`.
    ReverseStripes { line: u32, col: u32 },
}

/// One `fn` item with its facts.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `impl` self type when this is a method/associated fn.
    pub self_type: Option<String>,
    /// Trait name for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// Module path inside the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// Crate name (underscored, e.g. `mbp_core`).
    pub crate_name: String,
    /// Workspace-relative file path (`/`-separated).
    pub rel_path: String,
    pub line: u32,
    pub col: u32,
    /// Inside `#[cfg(test)]` / `#[test]` or a test-path file.
    pub is_test: bool,
    /// Rules named by a `// LINT-SCOPE(<rule>): reason` annotation
    /// directly above the item.
    pub scope_off: BTreeSet<String>,
    /// Parameter name → type hint (last path segment of the type).
    pub params: BTreeMap<String, String>,
    /// Return type mentions a `*Guard` type: calling this function
    /// acquires (and hands back) a lock.
    pub returns_guard: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub taints: Vec<TaintSite>,
    pub events: Vec<BodyEvent>,
    /// Lock classes acquired directly in this body (in order).
    pub acquires: Vec<LockClass>,
}

impl FnItem {
    /// Display name for witness chains: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Parsed model of one source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    pub rel_path: String,
    pub crate_name: String,
    pub fns: Vec<FnItem>,
    /// `use` aliases: local name → full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Crate name from a workspace-relative path: `crates/core/src/...` →
/// `mbp_core`; the root `src/` tree belongs to the `mbp` facade.
pub fn crate_name_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((dir, _)) = rest.split_once('/') {
            return format!("mbp_{}", dir.replace('-', "_"));
        }
    }
    "mbp".to_string()
}

/// Module path segments implied by the file location: `src/market/mod.rs`
/// → `["market"]`, `src/market/agents.rs` → `["market", "agents"]`,
/// `src/lib.rs`/`src/main.rs` → `[]`.
fn file_module_path(rel_path: &str) -> Vec<String> {
    let after_src = match rel_path.find("/src/") {
        Some(i) => &rel_path[i + 5..],
        None => rel_path,
    };
    let mut segs: Vec<String> = after_src
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    if let Some(last) = segs.last() {
        if last == "lib" || last == "main" || last == "mod" {
            segs.pop();
        }
    }
    segs
}

/// Method names so ubiquitous in `std` that an *untyped* receiver is
/// resolved to the standard library instead of same-named workspace
/// methods. A typed receiver (param/`let` annotation/`self`) still binds
/// to the workspace impl. Documented under-approximation: see DESIGN §16.
const UBIQUITOUS_STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "get",
    "get_mut",
    "first",
    "last",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "as_str",
    "as_slice",
    "as_bytes",
    "as_ref",
    "as_mut",
    "as_deref",
    "into",
    "from",
    "collect",
    "extend",
    "chain",
    "zip",
    "enumerate",
    "rev",
    "sum",
    "product",
    "min",
    "max",
    "abs",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "floor",
    "ceil",
    "round",
    "to_le_bytes",
    "to_be_bytes",
    "contains",
    "starts_with",
    "ends_with",
    "trim",
    "split",
    "split_once",
    "splitn",
    "lines",
    "chars",
    "bytes",
    "parse",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "retain",
    "clear",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "take",
    "replace",
    "copied",
    "cloned",
    "flush",
    "read",
    "read_exact",
    "write_all",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "send",
    "recv",
    "join",
    "keys",
    "values",
    "drain",
    "append",
    "insert",
    "remove",
    "resize",
    "reserve",
    "with_capacity",
    "position",
    "find",
    "any",
    "all",
    "count",
    "fold",
    "flat_map",
    "skip",
    "step_by",
    "windows",
    "chunks",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "min_by",
    "max_by",
    "total_cmp",
    "signum",
    "is_finite",
    "is_nan",
    "is_infinite",
    "to_bits",
    "from_bits",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "make_contiguous",
    "elapsed",
    "duration_since",
    "as_secs_f64",
    "as_micros",
    "as_nanos",
    "unwrap",
    "expect",
    "lock",
    "try_lock",
    "set",
];

/// True for bare identifiers that look like calls but are not function
/// calls we should resolve (keywords, tuple-variant constructors).
fn plain_call_excluded(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "move"
            | "in"
            | "as"
            | "where"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "Vec"
            | "String"
            | "Arc"
            | "Rc"
            | "Cell"
            | "RefCell"
            | "Mutex"
            | "RwLock"
            | "Cow"
            | "Duration"
            | "Ordering"
            | "PhantomData"
    )
}

/// Is this method name treated as std when the receiver type is unknown?
pub fn is_ubiquitous_std_method(name: &str) -> bool {
    UBIQUITOUS_STD_METHODS.contains(&name)
}

/// Context stack entry while walking the item tree.
enum Ctx {
    Mod(String),
    Impl {
        self_type: Option<String>,
        trait_name: Option<String>,
    },
    Fn(usize),
    Block,
}

/// Parse one lexed file into its [`FileModel`].
pub fn parse(file: &Source) -> FileModel {
    let rel_path = file.rel_path;
    let code = &file.code;
    let test_mask = &file.test;
    // Lines carrying a valid `panic` waiver: a waived site has a reviewed
    // bound proof, so it is not a seed for the transitive may-panic closure
    // either. (The waiver covers the same line or the line below,
    // mirroring the engine's application order.)
    let panic_waiver_lines: BTreeSet<u32> = file
        .waivers
        .iter()
        .filter(|w| w.valid && w.rule == "panic")
        .map(|w| w.line)
        .collect();

    let crate_name = crate_name_of(rel_path);
    let file_mods = file_module_path(rel_path);

    let mut model = FileModel {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.clone(),
        fns: Vec::new(),
        uses: BTreeMap::new(),
    };

    let mut ctx: Vec<Ctx> = Vec::new();
    // Pending item context set by `mod`/`impl`/`fn` keywords, attached at
    // the next `{`.
    enum Pending {
        None,
        Mod(String),
        Impl {
            self_type: Option<String>,
            trait_name: Option<String>,
        },
        Fn(usize),
    }
    let mut pending = Pending::None;

    // Statement-local state for lock-guard bindings, valid while inside
    // at least one fn.
    let mut stmt_has_let = false;
    let mut let_name: Option<String> = None;
    let mut stmt_has_closure = false;
    // `let <name>: <Type>` annotations seen inside the current fn, used as
    // receiver-type hints.
    let mut local_types: BTreeMap<String, String> = BTreeMap::new();

    let n = code.len();
    let mut i = 0usize;
    while i < n {
        let t = code[i];

        // --- use-alias collection (top level only; nested uses are rare) --
        if t.is_ident("use") && ctx.is_empty() {
            i = collect_use(code, i, &mut model.uses);
            continue;
        }

        // --- item openers -------------------------------------------------
        if t.is_ident("mod")
            && code.get(i + 1).is_some_and(|x| x.kind == TokKind::Ident)
            && code.get(i + 2).is_some_and(|x| x.is_punct("{"))
        {
            pending = Pending::Mod(code[i + 1].text.clone());
            i += 2; // leave `{` for the brace handler
            continue;
        }
        if t.is_ident("impl") {
            let (self_type, trait_name, next) = parse_impl_header(code, i);
            pending = Pending::Impl {
                self_type,
                trait_name,
            };
            i = next; // sits on the `{` (or past a `;`)
            continue;
        }
        if t.is_ident("fn") && code.get(i + 1).is_some_and(|x| x.kind == TokKind::Ident) {
            let name_tok = code[i + 1];
            let (params, returns_guard, body_open) = parse_fn_signature(code, i + 1);
            let in_impl = ctx.iter().rev().find_map(|c| match c {
                Ctx::Impl {
                    self_type,
                    trait_name,
                } => Some((self_type.clone(), trait_name.clone())),
                _ => None,
            });
            let mut module = file_mods.clone();
            for c in &ctx {
                if let Ctx::Mod(m) = c {
                    module.push(m.clone());
                }
            }
            let is_test = test_mask.get(i).copied().unwrap_or(false);
            let scope_off: BTreeSet<String> = file
                .annotations
                .iter()
                .filter(|a| {
                    a.valid && a.line < name_tok.line && name_tok.line.saturating_sub(a.line) <= 8
                })
                .filter(|a| {
                    // The annotation must sit directly above the item:
                    // every code token between it and the fn keyword is
                    // part of the same item header (attributes, pub, etc.).
                    !code[..i]
                        .iter()
                        .rev()
                        .take_while(|c| c.line > a.line)
                        .any(|c| c.is_punct("}") || c.is_punct(";"))
                })
                .map(|a| a.rule.clone())
                .collect();
            let (self_type, trait_name) = in_impl.unwrap_or((None, None));
            let item = FnItem {
                name: name_tok.text.clone(),
                self_type: self_type.clone(),
                trait_name,
                module,
                crate_name: crate_name.clone(),
                rel_path: rel_path.to_string(),
                line: name_tok.line,
                col: name_tok.col,
                is_test,
                scope_off,
                params,
                returns_guard,
                calls: Vec::new(),
                panics: Vec::new(),
                taints: Vec::new(),
                events: Vec::new(),
                acquires: Vec::new(),
            };
            match body_open {
                Some(open) => {
                    model.fns.push(item);
                    pending = Pending::Fn(model.fns.len() - 1);
                    local_types.clear();
                    if let Some(st) = &self_type {
                        local_types.insert("self".to_string(), st.clone());
                    }
                    for (p, ty) in &model
                        .fns
                        .last()
                        .map(|f| f.params.clone())
                        .unwrap_or_default()
                    {
                        local_types.insert(p.clone(), ty.clone());
                    }
                    i = open; // brace handler attaches the Fn ctx
                    continue;
                }
                None => {
                    // Bodyless declaration (trait method): skip it.
                    i += 2;
                    continue;
                }
            }
        }

        // --- braces / statement boundaries --------------------------------
        if t.is_punct("{") {
            match std::mem::replace(&mut pending, Pending::None) {
                Pending::Mod(m) => ctx.push(Ctx::Mod(m)),
                Pending::Impl {
                    self_type,
                    trait_name,
                } => ctx.push(Ctx::Impl {
                    self_type,
                    trait_name,
                }),
                Pending::Fn(idx) => ctx.push(Ctx::Fn(idx)),
                Pending::None => ctx.push(Ctx::Block),
            }
            if let Some(f) = current_fn(&ctx, &mut model.fns) {
                f.events.push(BodyEvent::Open);
            }
            stmt_has_let = false;
            let_name = None;
            stmt_has_closure = false;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            if let Some(f) = current_fn(&ctx, &mut model.fns) {
                f.events.push(BodyEvent::Close);
            }
            ctx.pop();
            stmt_has_let = false;
            let_name = None;
            stmt_has_closure = false;
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            if let Some(f) = current_fn(&ctx, &mut model.fns) {
                f.events.push(BodyEvent::StmtEnd);
            }
            stmt_has_let = false;
            let_name = None;
            stmt_has_closure = false;
            i += 1;
            continue;
        }

        // --- inside a fn body: extract facts -------------------------------
        let in_fn = ctx.iter().rev().find_map(|c| match c {
            Ctx::Fn(idx) => Some(*idx),
            _ => None,
        });
        let Some(fn_idx) = in_fn else {
            i += 1;
            continue;
        };
        let masked_test = test_mask.get(i).copied().unwrap_or(false);

        // `let` bindings: remember name and optional type annotation.
        if t.is_ident("let") {
            stmt_has_let = true;
            let_name = None;
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && stmt_has_let && let_name.is_none() && t.text != "mut" {
            let_name = Some(t.text.clone());
            // `let name: Type = ...`
            if code.get(i + 1).is_some_and(|x| x.is_punct(":")) {
                if let Some(ty) = first_type_ident(code, i + 2) {
                    local_types.insert(t.text.clone(), ty);
                }
            }
        }

        // drop(name)
        if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|x| x.is_punct("("))
            && code.get(i + 2).is_some_and(|x| x.kind == TokKind::Ident)
            && code.get(i + 3).is_some_and(|x| x.is_punct(")"))
        {
            let name = code[i + 2].text.clone();
            model.fns[fn_idx].events.push(BodyEvent::DropName(name));
            i += 4;
            continue;
        }

        // A closure-parameter pipe: guards acquired past this point in the
        // statement live inside the closure body (per-iteration temporaries
        // in `.map(|s| s.lock()...)` chains), not in the `let` binding.
        if t.is_punct("|") || t.is_punct("||") {
            stmt_has_closure = true;
        }

        // Lock sites -------------------------------------------------------
        if let Some(site) = file.lock_site(i) {
            let f = &mut model.fns[fn_idx];
            match site.kind {
                LockKind::Acquire { class, len } => {
                    let binding = if stmt_has_let && !stmt_has_closure {
                        let_name.clone()
                    } else {
                        None
                    };
                    f.acquires.push(class.clone());
                    f.events.push(BodyEvent::Acquire {
                        class,
                        binding,
                        line: site.line,
                        col: site.col,
                    });
                    i += len;
                    continue;
                }
                LockKind::ReverseStripes => f.events.push(BodyEvent::ReverseStripes {
                    line: site.line,
                    col: site.col,
                }),
            }
        }

        if !masked_test {
            // Panic sites ----------------------------------------------------
            if let Some(site) = file.panic_site(i) {
                let waived = panic_waiver_lines.contains(&site.line)
                    || site.line > 0 && panic_waiver_lines.contains(&(site.line - 1));
                if !waived {
                    model.fns[fn_idx].panics.push(site);
                }
            }
            // Taint sources --------------------------------------------------
            if let Some(site) = file.taint_site(i) {
                model.fns[fn_idx].taints.push(site);
            }
        }

        // Call sites -----------------------------------------------------
        if let Some((site, adv)) = detect_call(code, i, &local_types) {
            // `let t = Type::ctor(..)` — constructor-style initializers
            // type the binding for later receiver inference.
            if stmt_has_let {
                if let (Some(name), CallKind::Path { segs }) = (&let_name, &site.kind) {
                    if segs.len() >= 2 {
                        let ty = &segs[segs.len() - 2];
                        if ty.chars().next().is_some_and(char::is_uppercase) {
                            local_types.insert(name.clone(), ty.clone());
                        }
                    }
                }
            }
            if !masked_test {
                model.fns[fn_idx].calls.push(site);
                let idx = model.fns[fn_idx].calls.len() - 1;
                model.fns[fn_idx].events.push(BodyEvent::Call(idx));
            }
            i += adv;
            continue;
        }

        i += 1;
    }

    model
}

fn current_fn<'a>(ctx: &[Ctx], fns: &'a mut [FnItem]) -> Option<&'a mut FnItem> {
    let idx = ctx.iter().rev().find_map(|c| match c {
        Ctx::Fn(idx) => Some(*idx),
        _ => None,
    })?;
    fns.get_mut(idx)
}

/// Collect one `use` declaration into the alias table. Handles
/// `use a::b::C;`, `use a::b::C as D;`, and one level of braces
/// `use a::{B, C as D, e};`. Returns the index after the closing `;`.
fn collect_use(code: &[&Tok], start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    let mut i = start + 1;
    let mut prefix: Vec<String> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut in_braces = false;
    while i < code.len() {
        let t = code[i];
        if t.is_punct(";") {
            flush_use(uses, &prefix, &current, &alias);
            return i + 1;
        }
        if t.is_punct("{") {
            prefix = current.clone();
            current.clear();
            in_braces = true;
        } else if t.is_punct("}") {
            flush_use(uses, &prefix, &current, &alias);
            current.clear();
            alias = None;
            in_braces = false;
        } else if t.is_punct(",") && in_braces {
            flush_use(uses, &prefix, &current, &alias);
            current.clear();
            alias = None;
        } else if t.is_ident("as") {
            if let Some(next) = code.get(i + 1) {
                alias = Some(next.text.clone());
                i += 2;
                continue;
            }
        } else if t.kind == TokKind::Ident {
            current.push(t.text.clone());
        }
        i += 1;
    }
    code.len()
}

fn flush_use(
    uses: &mut BTreeMap<String, Vec<String>>,
    prefix: &[String],
    current: &[String],
    alias: &Option<String>,
) {
    if current.is_empty() {
        return;
    }
    let mut full: Vec<String> = prefix.to_vec();
    full.extend(current.iter().cloned());
    let key = alias
        .clone()
        .or_else(|| full.last().cloned())
        .unwrap_or_default();
    if !key.is_empty() && key != "*" {
        uses.insert(key, full);
    }
}

/// Parse an `impl` header starting at the `impl` keyword. Returns
/// `(self_type, trait_name, index_of_body_open_or_after_semi)`.
fn parse_impl_header(code: &[&Tok], start: usize) -> (Option<String>, Option<String>, usize) {
    let mut i = start + 1;
    // Skip generic parameter list.
    if code.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(code, i);
    }
    let mut first_path: Vec<String> = Vec::new();
    let mut second_path: Vec<String> = Vec::new();
    let mut after_for = false;
    while i < code.len() {
        let t = code[i];
        if t.is_punct("{") {
            break;
        }
        if t.is_punct(";") {
            return (None, None, i + 1);
        }
        if t.is_ident("for") {
            after_for = true;
        } else if t.is_ident("where") {
            // Skip the where clause to the `{`.
            while i < code.len() && !code[i].is_punct("{") {
                i += 1;
            }
            break;
        } else if t.kind == TokKind::Ident {
            if after_for {
                second_path.push(t.text.clone());
            } else {
                first_path.push(t.text.clone());
            }
            // Skip a generic argument list on the segment.
            if code.get(i + 1).is_some_and(|x| x.is_punct("<")) {
                i = skip_angles(code, i + 1);
                continue;
            }
        }
        i += 1;
    }
    let (ty_path, trait_path) = if after_for {
        (second_path, Some(first_path))
    } else {
        (first_path, None)
    };
    let self_type = ty_path.last().cloned();
    let trait_name = trait_path.and_then(|p| p.last().cloned());
    (self_type, trait_name, i)
}

/// Skip a `<...>` token run starting at the `<`. Returns the index after
/// the matching `>`. Handles `>>` closing two levels.
fn skip_angles(code: &[&Tok], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < code.len() {
        let t = code[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" | "<<" => depth += t.text.len() as i32,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "->" => {}
                ";" | "{" => return i,
                _ => {}
            }
        }
        i += 1;
        if depth <= 0 {
            return i;
        }
    }
    i
}

/// Parse a fn signature starting at the *name* token. Returns
/// `(params, returns_guard, body_open_index)`; `body_open_index` is None
/// for bodyless declarations.
fn parse_fn_signature(
    code: &[&Tok],
    name_idx: usize,
) -> (BTreeMap<String, String>, bool, Option<usize>) {
    let mut i = name_idx + 1;
    if code.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(code, i);
    }
    let mut params = BTreeMap::new();
    if code.get(i).is_some_and(|t| t.is_punct("(")) {
        let close = match_delim(code, i);
        // Walk `name: Type` pairs at paren depth 1.
        let mut depth = 0i32;
        let mut j = i;
        while j < close {
            let t = code[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => {
                        j = skip_angles(code, j);
                        continue;
                    }
                    ":" if depth == 1
                        && j > 0
                        && code[j - 1].kind == TokKind::Ident
                        && !code.get(j + 1).is_some_and(|x| x.is_punct(":")) =>
                    {
                        let pname = code[j - 1].text.clone();
                        if let Some(ty) = first_type_ident(code, j + 1) {
                            params.insert(pname, ty);
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        i = close + 1;
    }
    // Return type: scan to `{`, `;`, or `where` for a `*Guard` ident.
    let mut returns_guard = false;
    while i < code.len() {
        let t = code[i];
        if t.is_punct("{") {
            return (params, returns_guard, Some(i));
        }
        if t.is_punct(";") {
            return (params, returns_guard, None);
        }
        if t.kind == TokKind::Ident && t.text.ends_with("Guard") {
            returns_guard = true;
        }
        i += 1;
    }
    (params, returns_guard, None)
}

/// First meaningful type identifier after `start` (skipping `&`, `mut`,
/// lifetimes, `dyn`, `impl`): the *last* segment of the leading path, so
/// `&mut market::Broker` → `Broker` and `Vec<f64>` → `Vec`.
fn first_type_ident(code: &[&Tok], start: usize) -> Option<String> {
    let mut i = start;
    while i < code.len() {
        let t = code[i];
        match t.kind {
            TokKind::Punct if t.text == "&" || t.text == "*" => i += 1,
            TokKind::Lifetime => i += 1,
            TokKind::Ident if matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const") => i += 1,
            TokKind::Ident => {
                // Follow `a::b::C` to the last segment.
                let mut last = t.text.clone();
                let mut j = i;
                while code.get(j + 1).is_some_and(|x| x.is_punct("::"))
                    && code.get(j + 2).is_some_and(|x| x.kind == TokKind::Ident)
                {
                    j += 2;
                    last = code[j].text.clone();
                }
                return Some(last);
            }
            _ => return None,
        }
    }
    None
}

/// Detect a call site at token `i`. Returns the site and how many tokens
/// to advance (to just past the callee name — arguments are walked
/// normally so nested calls are found).
fn detect_call(
    code: &[&Tok],
    i: usize,
    local_types: &BTreeMap<String, String>,
) -> Option<(CallSite, usize)> {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next = code.get(i + 1)?;
    if !next.is_punct("(") {
        return None;
    }
    // Macro invocation `name!(` is not a call (the `!` sits between).
    // (Handled implicitly: next is `(` directly.)

    // Method call: `.name(`
    if i >= 1 && code[i - 1].is_punct(".") {
        let recv = if i >= 2 {
            let r = code[i - 2];
            if r.is_ident("self") && i >= 3 && code[i - 3].is_punct(".") {
                // `self.field.name(` — field receiver, untyped.
                None
            } else if r.is_ident("self") {
                local_types.get("self").cloned()
            } else if r.kind == TokKind::Ident {
                local_types.get(&r.text).cloned()
            } else {
                None
            }
        } else {
            None
        };
        return Some((
            CallSite {
                kind: CallKind::Method {
                    name: t.text.clone(),
                    recv,
                },
                line: t.line,
                col: t.col,
            },
            2,
        ));
    }
    // Path call: walk back over `seg::` pairs.
    if i >= 2 && code[i - 1].is_punct("::") {
        let mut segs = vec![t.text.clone()];
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct("::") && code[j - 2].kind == TokKind::Ident {
            segs.push(code[j - 2].text.clone());
            j -= 2;
        }
        segs.reverse();
        return Some((
            CallSite {
                kind: CallKind::Path { segs },
                line: t.line,
                col: t.col,
            },
            2,
        ));
    }
    // Plain call.
    if plain_call_excluded(&t.text) {
        return None;
    }
    Some((
        CallSite {
            kind: CallKind::Plain {
                name: t.text.clone(),
            },
            line: t.line,
            col: t.col,
        },
        2,
    ))
}

/// [`parse`] from source text, for the unit tests.
#[cfg(test)]
pub(crate) fn parse_file(rel_path: &str, src: &str) -> FileModel {
    let toks = crate::lexer::tokenize(src);
    parse(&Source::new(rel_path, src, &toks, crate::ScopeMode::Repo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileModel {
        parse_file("crates/core/src/pricing.rs", src)
    }

    #[test]
    fn fn_items_carry_impl_context_and_module_path() {
        let m = parse(
            r#"
pub struct Table;
impl Table {
    pub fn price_at(&self, x: f64) -> f64 { helper(x) }
}
fn helper(x: f64) -> f64 { x }
mod inner {
    pub fn nested() {}
}
"#,
        );
        assert_eq!(m.crate_name, "mbp_core");
        let names: Vec<_> = m.fns.iter().map(|f| f.display()).collect();
        assert_eq!(names, ["Table::price_at", "helper", "nested"]);
        assert_eq!(m.fns[0].module, vec!["pricing"]);
        assert_eq!(m.fns[2].module, vec!["pricing", "inner"]);
    }

    #[test]
    fn calls_are_classified_plain_path_method() {
        let m = parse(
            r#"
fn f(b: &Broker) -> f64 {
    let t = Table::compile(b);
    plain(1.0) + b.quote(2.0) + t.lookup(3.0) + mbp_core::pricing::price_at(4.0)
}
"#,
        );
        let calls = &m.fns[0].calls;
        let kinds: Vec<String> = calls
            .iter()
            .map(|c| match &c.kind {
                CallKind::Plain { name } => format!("plain:{name}"),
                CallKind::Path { segs } => format!("path:{}", segs.join("::")),
                CallKind::Method { name, recv } => {
                    format!("method:{name}@{}", recv.clone().unwrap_or_default())
                }
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "path:Table::compile",
                "plain:plain",
                "method:quote@Broker",
                "method:lookup@Table",
                "path:mbp_core::pricing::price_at",
            ]
        );
    }

    #[test]
    fn panic_and_taint_sites_are_extracted() {
        let m = parse(
            r#"
fn f(v: &[f64]) -> f64 {
    let _t = std::time::Instant::now();
    v.last().unwrap() + v[0]
}
"#,
        );
        let f = &m.fns[0];
        assert_eq!(f.taints.len(), 1, "{:?}", f.taints);
        assert_eq!(f.panics.len(), 2, "{:?}", f.panics);
        assert!(f.panics[0].what().contains("unwrap"));
        assert!(f.panics[1].what().contains("indexing"));
    }

    #[test]
    fn cfg_test_fns_are_marked_and_emit_no_facts() {
        let m = parse(
            r#"
fn hot() -> f64 { 1.0 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let v = vec![1.0]; v.last().unwrap(); }
}
"#,
        );
        assert!(!m.fns[0].is_test);
        let t = m.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        assert!(t.panics.is_empty());
    }

    #[test]
    fn lock_events_capture_core_write_and_stripes() {
        let m = parse(
            r#"
fn f(s: &Shared) {
    let a = s.inner.stripes[0].lock();
    let mut core = s.inner.core.write();
    drop(a);
}
"#,
        );
        let f = &m.fns[0];
        assert_eq!(
            f.acquires,
            vec![LockClass::StripeConst(0), LockClass::CoreWrite]
        );
        assert!(f
            .events
            .iter()
            .any(|e| matches!(e, BodyEvent::DropName(n) if n == "a")));
    }

    #[test]
    fn use_aliases_are_collected() {
        let m = parse(
            "use std::time::Instant;\nuse mbp_core::market::{Broker, concurrent as conc};\nfn f() {}\n",
        );
        assert_eq!(
            m.uses.get("Instant"),
            Some(&vec![
                "std".to_string(),
                "time".to_string(),
                "Instant".to_string()
            ])
        );
        assert_eq!(m.uses.get("Broker").map(|v| v.len()), Some(3));
        assert!(m.uses.contains_key("conc"));
    }

    #[test]
    fn scope_annotations_attach_to_the_next_fn() {
        let m = parse(
            r#"
// LINT-SCOPE(reach-panic): setup-time constructor, unreachable from roots.
pub fn build() { panic!("contract"); }
pub fn other() {}
"#,
        );
        assert!(m.fns[0].scope_off.contains("reach-panic"));
        assert!(m.fns[1].scope_off.is_empty());
    }

    #[test]
    fn guard_returning_fn_is_detected() {
        let m = parse(
            "fn lock_next_stripe(&self) -> parking_lot::MutexGuard<'_, Vec<Tx>> { self.inner.stripes[0].lock() }\n",
        );
        assert!(m.fns[0].returns_guard);
        assert_eq!(m.fns[0].acquires, vec![LockClass::StripeConst(0)]);
    }
}
