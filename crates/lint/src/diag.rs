//! Diagnostics: the findings lints emit, their rustc-style rendering,
//! and the machine-readable JSON report.
//!
//! The JSON writer is hand-rolled (the crate is dependency-free so the
//! whole workspace — including this crate — can be linted by it), and
//! every rendering is deterministic: diagnostics and suppressions are
//! sorted by `(file, line, col, lint)` before output, so the committed
//! `reports/lint.json` is a pure function of the scanned tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finding: a lint fired at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint's stable ID (`L001` …).
    pub lint: &'static str,
    /// Workspace-relative path (forward slashes) of the file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// 1-based column of the finding.
    pub col: u32,
    /// What is wrong, concretely, at this site.
    pub message: String,
    /// How to fix it (rendered as a `= note:` line).
    pub note: String,
}

/// One applied suppression: a well-formed `habit-lint: allow` directive
/// that silenced at least one diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The silenced lint's ID.
    pub lint: String,
    /// Workspace-relative path of the directive.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The written reason (mandatory; audited by L005).
    pub reason: String,
}

/// The outcome of a whole-tree scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsilenced findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Applied suppressions, sorted.
    pub suppressions: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Code size per crate: lines of `crates/<crate>/src/**/*.rs` that
    /// carry code (blank and comment-only lines excluded) before the
    /// file's first top-level `#[cfg(test)]`. Committed with the report
    /// so CI's freshness check also drift-checks code size.
    pub non_test_lines: BTreeMap<String, usize>,
}

impl Report {
    /// Sorts diagnostics and suppressions into the canonical order.
    pub fn canonicalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            key(&a.file, a.line, a.col, a.lint).cmp(&key(&b.file, b.line, b.col, b.lint))
        });
        self.suppressions.sort_by(|a, b| {
            key(&a.file, a.line, 0, &a.lint).cmp(&key(&b.file, b.line, 0, &b.lint))
        });
    }

    /// Renders every diagnostic rustc-style, plus a one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", render_diagnostic(d));
        }
        let _ = writeln!(
            out,
            "habit-lint: {} violation{} ({} suppression{}) in {} files",
            self.diagnostics.len(),
            plural(self.diagnostics.len()),
            self.suppressions.len(),
            plural(self.suppressions.len()),
            self.files_scanned,
        );
        out
    }

    /// Renders the machine-readable report (`habit-lint-report/v1`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": \"habit-lint-report/v1\",\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violations\": {},", self.diagnostics.len());
        let _ = writeln!(out, "  \"suppression_count\": {},", self.suppressions.len());
        out.push_str("  \"non_test_lines\": {");
        for (i, (krate, lines)) in self.non_test_lines.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {lines}", json_str(krate));
        }
        if self.non_test_lines.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                json_str(d.lint),
                json_str(&d.file),
                d.line,
                d.col,
                json_str(&d.message),
            );
        }
        if self.diagnostics.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"suppressions\": [");
        for (i, s) in self.suppressions.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(&s.lint),
                json_str(&s.file),
                s.line,
                json_str(&s.reason),
            );
        }
        if self.suppressions.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Renders one diagnostic in rustc's `warning[ID]` shape.
pub fn render_diagnostic(d: &Diagnostic) -> String {
    format!(
        "warning[{id}]: {msg}\n  --> {file}:{line}:{col}\n   = note: {note}",
        id = d.lint,
        msg = d.message,
        file = d.file,
        line = d.line,
        col = d.col,
        note = d.note,
    )
}

fn key<'a>(file: &'a str, line: u32, col: u32, lint: &'a str) -> (&'a str, u32, u32, &'a str) {
    (file, line, col, lint)
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            diagnostics: vec![
                Diagnostic {
                    lint: "L003",
                    file: "b.rs".into(),
                    line: 2,
                    col: 5,
                    message: "float".into(),
                    note: "use total_cmp".into(),
                },
                Diagnostic {
                    lint: "L001",
                    file: "a.rs".into(),
                    line: 9,
                    col: 1,
                    message: "unordered".into(),
                    note: "sort".into(),
                },
            ],
            suppressions: vec![Suppression {
                lint: "L001".into(),
                file: "c.rs".into(),
                line: 4,
                reason: "order-free: feeds a membership set".into(),
            }],
            files_scanned: 3,
            non_test_lines: [("core".to_string(), 40), ("ais".to_string(), 7)].into(),
        };
        r.canonicalize();
        r
    }

    #[test]
    fn human_rendering_is_rustc_style_and_sorted() {
        let text = sample().render_human();
        let a = text.find("a.rs:9:1").expect("a.rs diagnostic rendered");
        let b = text.find("b.rs:2:5").expect("b.rs diagnostic rendered");
        assert!(a < b, "diagnostics sorted by file");
        assert!(text.contains("warning[L001]: unordered"));
        assert!(text.contains("= note: sort"));
        assert!(text.contains("2 violations (1 suppression) in 3 files"));
    }

    #[test]
    fn json_report_shape() {
        let json = sample().render_json();
        assert!(json.contains("\"version\": \"habit-lint-report/v1\""));
        assert!(json.contains("\"violations\": 2"));
        assert!(json.contains("\"suppression_count\": 1"));
        assert!(json.contains("\"file\": \"a.rs\""));
        assert!(json.contains("\"reason\": \"order-free: feeds a membership set\""));
        assert!(json.contains("\"non_test_lines\": {\n    \"ais\": 7,\n    \"core\": 40\n  },\n"));
        // Deterministic.
        assert_eq!(json, sample().render_json());
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let json = Report::default().render_json();
        assert!(json.contains("\"non_test_lines\": {},"));
        assert!(json.contains("\"diagnostics\": [],"));
        assert!(json.contains("\"suppressions\": []\n"));
        assert!(json.contains("\"violations\": 0"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
