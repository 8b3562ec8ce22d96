//! The pinned lint registry.
//!
//! Every lint `habit-lint` implements is declared here, exactly once,
//! with its stable ID, rationale, and silencing instructions — the same
//! "pinned table" discipline as `ErrorCode::ALL` in `habit-service`:
//! anything that adds, removes, or renames a lint changes this array
//! and the tests that pin it, so the registry can never drift
//! silently. `LINTS.md` is rendered from this table
//! ([`render_lints_md`]) and CI fails when the committed copy is stale.

/// One registered lint: identity plus the documentation that
/// `LINTS.md` renders.
#[derive(Debug, Clone, Copy)]
pub struct Lint {
    /// Stable ID (`L001` …). Never reused, never renumbered.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line summary (README / diagnostics).
    pub summary: &'static str,
    /// Why the rule exists, in terms of the invariant it protects.
    pub rationale: &'static str,
    /// A minimal violating example.
    pub example: &'static str,
    /// How to fix — and when fixing is wrong, how to silence.
    pub fix: &'static str,
}

/// Every lint, in ID order. Pinned by `registry_is_pinned` in the
/// crate tests; golden fixture tests pin each lint's diagnostics.
///
/// L002 (the `// SAFETY:` comment audit) and L004
/// (`error-taxonomy-drift`) are retired: the workspace forbids
/// `unsafe_code`, and the error taxonomy is one `macro_rules!` table
/// checked by exhaustive matches and tier-1 tests. Their IDs are never
/// reused, so an `allow(L002)` is an unknown lint to L005.
pub const ALL: [Lint; 3] = [
    Lint {
        id: "L001",
        name: "unordered-iteration-to-sink",
        summary: "HashMap/HashSet iteration inside a codec/serialization/report module",
        rationale: "The repo's headline guarantee is that models and FitState blobs are \
                    byte-identical at any shard/thread count. Hash-map iteration order is \
                    arbitrary (and randomized across std versions), so iterating an unordered \
                    map or set on a path that produces serialized bytes or report rows makes \
                    the output depend on hasher state instead of the input set. Inside the \
                    pinned sink modules (codecs, wire/JSON/CSV serializers, report builders) \
                    every such iteration must be sorted or canonicalized first, or the \
                    container switched to a BTreeMap/BTreeSet.",
        example: "for (cell, stats) in &self.cells { out.extend(encode(cell, stats)); }",
        fix: "Sort the entries before producing bytes (`let mut v: Vec<_> = m.iter().collect(); \
              v.sort_by_key(…)`), call `canonicalize()`, or store a BTreeMap. If the iteration \
              provably cannot reach the sink, silence with \
              `// habit-lint: allow(L001) -- <why the order cannot matter>`.",
    },
    Lint {
        id: "L003",
        name: "float-ordering-hazard",
        summary: "`partial_cmp(…).unwrap()` / `.expect(…)` instead of a total order on floats",
        rationale: "`partial_cmp` on floats is None for NaN, so `.unwrap()`/`.expect()` turns \
                    an unexpected NaN into a panic deep inside a sort — and under the \
                    pre-total_cmp idiom `-0.0 == 0.0`, leaving the final order of equal keys \
                    to the sort algorithm instead of the data. Deterministic paths (fit, \
                    codecs, reports) must use a total order: `f64::total_cmp` is panic-free \
                    and totally ordered, which is exactly the byte-identity discipline.",
        example: "values.sort_by(|a, b| a.partial_cmp(b).unwrap());",
        fix: "Use `a.total_cmp(b)` for float keys (panic-free, total). For genuinely partial \
              comparisons keep `partial_cmp` but handle `None` explicitly \
              (`unwrap_or(Ordering::Equal)` is a shim the lint accepts). Silence only with \
              `// habit-lint: allow(L003) -- <why NaN is impossible and order is pinned>`.",
    },
    Lint {
        id: "L005",
        name: "lint-suppression-audit",
        summary: "a malformed, reasonless, or dead `habit-lint: allow` directive",
        rationale: "Inline `// habit-lint: allow(Lxxx) -- reason` is the *only* silencing \
                    mechanism, and the written reason is the point: every suppression is an \
                    auditable decision in the committed lint report, so the count can only \
                    move in review, never silently. A bare allow (no reason), an unknown lint \
                    ID, or an allow that no longer silences anything is itself a violation.",
        example: "// habit-lint: allow(L001)            (bare: no `-- reason`)",
        fix: "Write `// habit-lint: allow(L001) -- <one-line reason>` on the flagged line or \
              the line directly above it; delete directives whose violation is gone. L005 \
              itself cannot be silenced.",
    },
];

/// Looks a lint up by ID.
pub fn by_id(id: &str) -> Option<&'static Lint> {
    ALL.iter().find(|l| l.id == id)
}

/// Renders the generated `LINTS.md` from the registry. Deterministic;
/// CI fails when the committed file differs (`habit-lint --check-docs`).
pub fn render_lints_md() -> String {
    let mut out = String::new();
    out.push_str(
        "# habit-lint — the workspace lint registry\n\n\
         <!-- GENERATED FILE — do not edit by hand.\n\
         Regenerate:\n\n    cargo run -p habit-lint --release -- --gen-docs\n\n\
         CI runs `habit-lint --check-docs` and fails when this file is stale. -->\n\n\
         `habit-lint` is the repo's hand-rolled static-analysis pass: a comment- and\n\
         string-aware lexer plus a lightweight scanner (no `syn`) that enforces the\n\
         invariants neither the compiler nor the test suite can — byte-identical\n\
         serialization and a total order on floats — and audits its own suppressions.\n\
         It runs over the whole workspace in CI:\n\n\
         ```sh\n\
         cargo run -p habit-lint --release -- --check          # fail on any violation\n\
         cargo run -p habit-lint --release -- --json reports/lint.json\n\
         ```\n\n\
         Silencing: `// habit-lint: allow(Lxxx) -- reason` on the flagged line or the\n\
         line directly above it. The reason is mandatory, audited by L005, and every\n\
         suppression appears in the committed `reports/lint.json`, which CI diffs —\n\
         so the suppression count can never grow without showing up in review.\n\n\
         IDs are never reused. L002 and L004 are retired: the workspace sets\n\
         `unsafe_code = \"forbid\"`, and the wire error taxonomy is declared once in\n\
         `crates/service/src/error.rs` and checked by exhaustive matches and tier-1 tests.\n\n",
    );
    for lint in &ALL {
        out.push_str(&format!("## {} `{}`\n\n", lint.id, lint.name));
        out.push_str(&format!("**{}.**\n\n", lint.summary));
        out.push_str(&format!("{}\n\n", lint.rationale));
        out.push_str(&format!("```rust\n{}\n```\n\n", lint.example));
        out.push_str(&format!("**Fix / silencing:** {}\n\n", lint.fix));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the registry: count and IDs, like `ErrorCode::ALL`.
    /// Adding a lint must be a deliberate change to this table.
    #[test]
    fn registry_is_pinned() {
        let ids: Vec<&str> = ALL.iter().map(|l| l.id).collect();
        assert_eq!(ids, ["L001", "L003", "L005"]);
        let names: Vec<&str> = ALL.iter().map(|l| l.name).collect();
        assert_eq!(
            names,
            [
                "unordered-iteration-to-sink",
                "float-ordering-hazard",
                "lint-suppression-audit",
            ]
        );
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(by_id("L003").map(|l| l.name), Some("float-ordering-hazard"));
        assert!(by_id("L002").is_none(), "retired");
        assert!(by_id("L004").is_none(), "retired");
        assert!(by_id("L999").is_none());
    }

    #[test]
    fn lints_md_documents_every_lint() {
        let md = render_lints_md();
        assert!(md.starts_with("# habit-lint"));
        assert!(md.contains("GENERATED FILE"));
        for lint in &ALL {
            assert!(md.contains(lint.id), "LINTS.md must document {}", lint.id);
            assert!(md.contains(lint.name));
            assert!(md.contains(lint.rationale));
        }
        // Deterministic render.
        assert_eq!(md, render_lints_md());
    }
}
