//! L001 `unordered-iteration-to-sink`: iterating a `HashMap`/`HashSet`
//! inside a codec/serialization/report module without an intervening
//! sort or canonicalization.
//!
//! This is the invariant behind the repo's byte-identical model and
//! `FitState` blobs: inside the pinned sink modules, bytes and report
//! rows must be a pure function of the input *set*, never of hasher
//! state. The analysis is a documented heuristic, not a type check:
//!
//! 1. A file is a **sink** when its path ends with one of the pinned
//!    [`SINK_SUFFIXES`], or when it implements the `Codec` trait.
//! 2. An identifier is **unordered** when the file declares it (via a
//!    `let` binding, struct field, or fn parameter) whose head
//!    (outermost) type or initializer path is a
//!    `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` — an ordered
//!    container *of* hash refs (`Vec<(u64, &FxHashSet<u64>)>`) is
//!    not unordered.
//! 3. An **iteration** over an unordered identifier —
//!    `x.iter()`/`.keys()`/`.values()`/`.drain()`/`for … in &x` — is a
//!    violation unless the same statement or the next one applies a
//!    canonicalizer (a `sort*` call, `canonicalize`, collecting into a
//!    `BTreeMap`/`BTreeSet`/`BinaryHeap`) or an order-insensitive
//!    reduction (`sum`, `count`, `min`/`max`, `all`/`any`, `product`).
//!
//! `for`-loop iterations get no lookahead absolution — a loop body can
//! do anything, so it must be restructured or carry an `allow` with a
//! written reason.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lints::CodeView;
use crate::scan::SourceFile;

/// The pinned sink modules: every path producing serialized bytes,
/// wire/JSON/CSV output, or committed report rows.
pub const SINK_SUFFIXES: [&str; 20] = [
    "crates/aggdb/src/hll.rs",
    "crates/core/src/fitstate.rs",
    "crates/core/src/model.rs",
    "crates/core/src/graphgen.rs",
    "crates/mobgraph/src/graph.rs",
    "crates/mobgraph/src/csr.rs",
    "crates/mobgraph/src/codec.rs",
    "crates/service/src/wire.rs",
    "crates/service/src/csv.rs",
    "crates/service/src/csvio.rs",
    "crates/service/src/admission.rs",
    "crates/obs/src/text.rs",
    "crates/obs/src/spanjson.rs",
    "crates/eval/src/json.rs",
    "crates/eval/src/report.rs",
    "crates/density/src/map.rs",
    "crates/density/src/render.rs",
    "crates/geo/src/geojson.rs",
    "crates/bench/src/reports.rs",
    "crates/bench/src/docs.rs",
];

const UNORDERED_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Calls that pin an order (or are insensitive to it) within the
/// lookahead window after an iteration.
const SANCTIONERS: [&str; 20] = [
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "canonicalize",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "all",
    "any",
    "product",
];

/// Runs L001 over one file.
pub fn run(file: &SourceFile) -> Vec<Diagnostic> {
    let code = CodeView::new(&file.tokens);
    if !is_sink(&file.rel_path, &code) {
        return Vec::new();
    }
    let unordered = unordered_names(&code);
    if unordered.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    method_iterations(file, &code, &unordered, &mut out);
    for_iterations(file, &code, &unordered, &mut out);
    out
}

fn is_sink(rel_path: &str, code: &CodeView<'_>) -> bool {
    if SINK_SUFFIXES.iter().any(|s| rel_path.ends_with(s)) {
        return true;
    }
    // Any file implementing the Codec trait produces bytes.
    (0..code.len()).any(|i| {
        code.is_ident(i, "impl") && code.is_ident(i + 1, "Codec") && code.is_ident(i + 2, "for")
    })
}

/// Collects identifiers the file declares with an unordered hash type:
/// `let` bindings, struct fields, and fn parameters. Scope-insensitive
/// by design — a shared name anywhere in the file taints the name.
///
/// Only the *head* (outermost) type decides: `m: FxHashMap<…>` and
/// `let m = FxHashMap::default()` taint, but an ordered container of
/// hash refs — `spans: Vec<(u64, &FxHashSet<u64>)>` — does not.
fn unordered_names(code: &CodeView<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        // let [mut] NAME [: HEAD…] [= HEAD…] ;  — simple-identifier
        // patterns only. The annotation's head wins when present; an
        // unannotated binding falls back to the initializer's head
        // path (`FxHashMap::default()`).
        if code.is_ident(i, "let") {
            let mut j = i + 1;
            if code.is_ident(j, "mut") {
                j += 1;
            }
            if code.is_any_ident(j) {
                let annotated = code.is_punct(j + 1, ":") && !code.is_punct(j + 2, ":");
                let initialized = code.is_punct(j + 1, "=");
                if (annotated || initialized) && head_is_unordered(code, j + 2) {
                    names.insert(code.text(j).to_string());
                }
            }
        }
        // NAME : HEAD…  — struct fields and fn parameters share this
        // shape. The `::` guards reject paths (`x::y`) on both sides.
        if code.is_any_ident(i)
            && code.is_punct(i + 1, ":")
            && !code.is_punct(i + 2, ":")
            && (i == 0 || !code.is_punct(i - 1, ":"))
            && head_is_unordered(code, i + 2)
        {
            names.insert(code.text(i).to_string());
        }
    }
    names
}

/// Is the head type (or head expression path) starting at `start` an
/// unordered hash container? Skips `&`/`mut`/lifetimes, then walks one
/// leading path — any segment of `aggdb::fxhash::FxHashMap<…>` or
/// `FxHashMap::default()` matches; the `Vec` of `Vec<&FxHashSet<u64>>`
/// does not.
fn head_is_unordered(code: &CodeView<'_>, start: usize) -> bool {
    let mut i = start;
    while code.is_punct(i, "&") || code.is_ident(i, "mut") || code.is_lifetime(i) {
        i += 1;
    }
    while code.is_any_ident(i) {
        if UNORDERED_TYPES.contains(&code.text(i)) {
            return true;
        }
        if code.is_punct(i + 1, ":") && code.is_punct(i + 2, ":") {
            i += 3;
        } else {
            break;
        }
    }
    false
}

/// Flags `x.iter()` / `self.cells.values()` … over unordered names.
fn method_iterations(
    file: &SourceFile,
    code: &CodeView<'_>,
    unordered: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..code.len() {
        if !code.is_any_ident(i) || !unordered.contains(code.text(i)) {
            continue;
        }
        if !code.is_punct(i + 1, ".") {
            continue;
        }
        let method = code.text(i + 2);
        if !ITER_METHODS.contains(&method) || !code.is_punct(i + 3, "(") {
            continue;
        }
        if sanctioned_after(code, i + 3) {
            continue;
        }
        let t = code.get(i).expect("checked ident");
        out.push(diagnostic(
            file,
            t.line,
            t.col,
            format!(
                "iteration over unordered `{}` via `.{}()` in a serialization/report module",
                t.text, method
            ),
        ));
    }
}

/// Flags `for … in [&[mut]] path.to.map {` over unordered names.
fn for_iterations(
    file: &SourceFile,
    code: &CodeView<'_>,
    unordered: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..code.len() {
        if !code.is_ident(i, "for") {
            continue;
        }
        // Find the `in` of this for-loop (patterns carry no braces in
        // this codebase), then the `{` opening the body. Hitting `{`
        // or `;` first means this `for` was a trait bound or
        // `impl … for …`, not a loop.
        let Some(in_idx) = (i + 1..code.len().min(i + 40))
            .take_while(|&j| !code.is_punct(j, "{") && !code.is_punct(j, ";"))
            .find(|&j| code.is_ident(j, "in"))
        else {
            continue;
        };
        let Some(body) = (in_idx + 1..code.len().min(in_idx + 60)).find(|&j| code.is_punct(j, "{"))
        else {
            continue;
        };
        for j in in_idx + 1..body {
            if !code.is_any_ident(j) || !unordered.contains(code.text(j)) {
                continue;
            }
            // The identifier must be the iterated collection itself:
            // directly before the body brace (`for x in &map {`), not a
            // sub-expression like `0..map.len()` — method iterations are
            // rule 1's job.
            if j + 1 != body {
                continue;
            }
            let t = code.get(j).expect("checked ident");
            out.push(diagnostic(
                file,
                t.line,
                t.col,
                format!(
                    "`for … in` over unordered `{}` in a serialization/report module",
                    t.text
                ),
            ));
        }
    }
}

/// Looks ahead from the iteration call for a sanctioning token within
/// the current statement and the next one.
fn sanctioned_after(code: &CodeView<'_>, from: usize) -> bool {
    let mut depth = 0i32;
    let mut statements_ended = 0;
    for i in from..code.len().min(from + 250) {
        let t = code.text(i);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    // Left the enclosing expression (closure body, match
                    // arm…): stop before sanctioning against unrelated code.
                    return false;
                }
            }
            ";" if depth == 0 => {
                statements_ended += 1;
                if statements_ended >= 2 {
                    return false;
                }
            }
            _ if SANCTIONERS.contains(&t) => return true,
            _ => {}
        }
    }
    false
}

fn diagnostic(file: &SourceFile, line: u32, col: u32, message: String) -> Diagnostic {
    Diagnostic {
        lint: "L001",
        file: file.rel_path.clone(),
        line,
        col,
        message,
        note: "hash iteration order is arbitrary: sort or canonicalize before bytes/report \
               rows are produced, or store a BTreeMap (LINTS.md#l001)"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        run(&SourceFile::new(path.into(), src))
    }

    #[test]
    fn flags_iteration_in_sink_files_only() {
        let src = "fn f() { let m: FxHashMap<u64, u64> = FxHashMap::default(); \
                   for (k, v) in &m { emit(k, v); } }";
        assert_eq!(lint("crates/service/src/wire.rs", src).len(), 1);
        assert!(lint("crates/engine/src/shard.rs", src).is_empty());
    }

    /// A pinned sink that names no file guards nothing: deleting a
    /// module must take its entry with it.
    #[test]
    fn every_pinned_sink_names_a_workspace_file() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for suffix in SINK_SUFFIXES {
            assert!(root.join(suffix).is_file(), "{suffix} names no file");
        }
    }

    #[test]
    fn codec_impl_makes_any_file_a_sink() {
        let src = "impl Codec for T {}\nfn f(map: HashMap<u8, u8>) { \
                   for x in map.values() { push(x); } }";
        let d = lint("crates/other/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`map`"));
    }

    #[test]
    fn sort_in_the_next_statement_sanctions() {
        let src = "impl Codec for T {}\nfn f(set: FxHashSet<u8>) { \
                   let mut v: Vec<&u8> = set.iter().collect(); \
                   v.sort_by(|a, b| a.cmp(b)); emit(&v); }";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn order_insensitive_reduction_sanctions() {
        let src = "impl Codec for T {}\nfn f(m: FxHashMap<u8, u64>) -> u64 { \
                   m.values().sum() }";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn for_loops_get_no_lookahead_absolution() {
        let src = "impl Codec for T {}\nfn f(m: FxHashMap<u8, u64>) { \
                   for (k, v) in &m { out.push((k, v)); } out.sort(); }";
        assert_eq!(lint("x.rs", src).len(), 1);
    }

    #[test]
    fn names_in_comments_and_strings_do_not_taint() {
        let src = "impl Codec for T {}\n// a HashMap would be wrong here\n\
                   fn f(v: Vec<u8>) { let s = \"HashMap\"; for x in &v { emit(x); } }";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn loop_bounds_over_len_are_not_iterations() {
        let src = "impl Codec for T {}\nfn f(m: HashMap<u8, u8>) { \
                   for i in 0..m.len() { emit(i); } }";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn ordered_container_of_hash_refs_is_not_tainted() {
        let src = "impl Codec for T {}\nfn f(m: FxHashMap<u64, FxHashSet<u64>>) { \
                   let mut spans: Vec<(u64, &FxHashSet<u64>)> = \
                   m.iter().map(|(t, s)| (*t, s)).collect(); \
                   spans.sort_unstable_by_key(|(t, _)| *t); \
                   for (t, s) in spans { emit(t, s); } }";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn unannotated_default_initializer_taints() {
        let src = "impl Codec for T {}\nfn f() { let m = FxHashMap::default(); \
                   for (k, v) in &m { emit(k, v); } }";
        assert_eq!(lint("x.rs", src).len(), 1);
    }

    #[test]
    fn field_access_iteration_is_flagged() {
        let src = "impl Codec for T {}\nstruct S { cells: FxHashMap<u64, u64> }\n\
                   fn f(s: &S) { for (k, v) in &s.cells { emit(k, v); } }";
        let d = lint("x.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`cells`"));
    }
}
