//! Workspace scanning: file collection, `allow` directives, and the
//! analysis driver that runs every lint and applies suppressions.
//!
//! The walker collects every `.rs` file under the root except
//! `target/`, `vendor/` (external API stubs, not our code), `.git/`,
//! and `fixtures/` directories (seeded-violation test inputs). Paths
//! are sorted, so a scan is deterministic.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Report, Suppression};
use crate::lexer::{lex, Token, TokenKind};
use crate::lints;
use crate::registry;

/// Directory names the walker never descends into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// A well-formed `// habit-lint: allow(Lxxx) -- reason` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint ID the directive silences.
    pub lint: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The mandatory written reason.
    pub reason: String,
}

/// One lexed source file plus its parsed suppression directives.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// The full token stream (comments included).
    pub tokens: Vec<Token>,
    /// Well-formed allow directives, in line order.
    pub allows: Vec<Allow>,
    /// L005 diagnostics for malformed directives.
    pub bad_allows: Vec<Diagnostic>,
}

impl SourceFile {
    /// Lexes `src` into a file ready for linting.
    pub fn new(rel_path: String, src: &str) -> Self {
        let tokens = lex(src);
        let (allows, bad_allows) = parse_allows(&rel_path, &tokens);
        Self {
            rel_path,
            tokens,
            allows,
            bad_allows,
        }
    }
}

/// Everything a scan collected: the lexed sources.
#[derive(Debug)]
pub struct Workspace {
    /// Lexed `.rs` files, sorted by path.
    pub files: Vec<SourceFile>,
}

/// Walks `root` and lexes every eligible file.
pub fn scan_root(root: &Path) -> io::Result<Workspace> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let src = fs::read_to_string(p)?;
        files.push(SourceFile::new(rel(root, p), &src));
    }
    Ok(Workspace { files })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every lint over the workspace, applies suppressions, and
/// returns the canonical report.
pub fn analyze(ws: &Workspace) -> Report {
    let mut raw: Vec<Diagnostic> = Vec::new();
    for file in &ws.files {
        raw.extend(lints::l001::run(file));
        raw.extend(lints::l003::run(file));
    }

    // Apply suppressions: an allow silences diagnostics of its lint on
    // its own line or the line directly below it. L005 findings are
    // never suppressible — the audit trail must not audit itself away.
    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    let test_only = test_only_modules(ws);
    for file in &ws.files {
        let crate_src = file.rel_path.strip_prefix("crates/").and_then(|p| {
            let (krate, rest) = p.split_once('/')?;
            rest.starts_with("src/").then_some(krate)
        });
        let in_test_module = test_only.iter().any(|m| {
            file.rel_path
                .strip_prefix(m.as_str())
                .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
        });
        if let Some(krate) = crate_src.filter(|_| !in_test_module) {
            *report.non_test_lines.entry(krate.to_string()).or_insert(0) +=
                non_test_lines(&file.tokens);
        }
    }
    let mut used: BTreeMap<(String, u32), bool> = BTreeMap::new();
    for file in &ws.files {
        for allow in &file.allows {
            used.insert((file.rel_path.clone(), allow.line), false);
        }
    }
    for d in raw {
        let allow = ws
            .files
            .iter()
            .find(|f| f.rel_path == d.file)
            .and_then(|f| {
                f.allows
                    .iter()
                    .find(|a| a.lint == d.lint && (a.line == d.line || a.line + 1 == d.line))
            });
        match allow {
            Some(a) => {
                used.insert((d.file.clone(), a.line), true);
                report.suppressions.push(Suppression {
                    lint: a.lint.clone(),
                    file: d.file.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
            None => report.diagnostics.push(d),
        }
    }
    // L005: malformed directives, plus well-formed ones that silenced
    // nothing (dead suppressions hide real coverage).
    for file in &ws.files {
        report.diagnostics.extend(file.bad_allows.iter().cloned());
        for allow in &file.allows {
            if !used
                .get(&(file.rel_path.clone(), allow.line))
                .copied()
                .unwrap_or(false)
            {
                report.diagnostics.push(Diagnostic {
                    lint: "L005",
                    file: file.rel_path.clone(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "allow({}) silences nothing — the violation it covered is gone",
                        allow.lint
                    ),
                    note: "delete the stale directive; suppressions must map 1:1 to live \
                           violations"
                        .to_string(),
                });
            }
        }
    }
    report.suppressions.dedup();
    report.canonicalize();
    report
}

const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];

/// Whether `w` opens with a top-level (column 1) `#[cfg(test)]`.
fn opens_with_cfg_test(w: &[&Token]) -> bool {
    w[0].col == 1 && w.iter().zip(CFG_TEST).all(|(t, s)| t.text == s)
}

/// Modules that are test code because their *parent* says so: for every
/// top-level `#[cfg(test)] mod <name>;` in a file of `<dir>`, the path
/// stem `<dir>/<name>` (covering `<name>.rs` and `<name>/**`).
fn test_only_modules(ws: &Workspace) -> Vec<String> {
    let mut stems = Vec::new();
    for file in &ws.files {
        let dir = file.rel_path.rsplit_once('/').map_or("", |(dir, _)| dir);
        let code: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        for w in code.windows(CFG_TEST.len() + 3) {
            let decl = &w[CFG_TEST.len()..];
            if opens_with_cfg_test(w) && decl[0].text == "mod" && decl[2].text == ";" {
                stems.push(format!("{dir}/{}", decl[1].text));
            }
        }
    }
    stems
}

/// Lines that carry code — at least one non-comment token, or the
/// continuation of a multi-line string literal — before the file's
/// first top-level (column 1) `#[cfg(test)]`.
fn non_test_lines(tokens: &[Token]) -> usize {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let end = code
        .windows(CFG_TEST.len())
        .position(opens_with_cfg_test)
        .unwrap_or(code.len());
    let mut lines = std::collections::BTreeSet::new();
    for t in &code[..end] {
        let continued = match t.kind {
            TokenKind::Str => t.text.matches('\n').count() as u32,
            _ => 0,
        };
        lines.extend(t.line..=t.line + continued);
    }
    lines.len()
}

/// Convenience: scan + analyze in one call.
pub fn check_root(root: &Path) -> io::Result<Report> {
    Ok(analyze(&scan_root(root)?))
}

/// Parses every `habit-lint:` directive in the comment stream.
fn parse_allows(rel_path: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        // A directive *starts* the comment; a mid-sentence mention of
        // the syntax (docs, this file) is not a directive.
        let Some(rest) = t.text.strip_prefix("habit-lint:") else {
            continue;
        };
        let directive = rest.trim();
        match parse_allow_body(directive) {
            Ok((lint, reason)) => {
                if registry::by_id(&lint).is_none() {
                    bad.push(bad_allow(
                        rel_path,
                        t,
                        format!("allow names unknown lint `{lint}`"),
                    ));
                } else if lint == "L005" {
                    bad.push(bad_allow(
                        rel_path,
                        t,
                        "L005 cannot be silenced — fix or delete the directive".to_string(),
                    ));
                } else {
                    allows.push(Allow {
                        lint,
                        line: t.line,
                        reason,
                    });
                }
            }
            Err(why) => bad.push(bad_allow(rel_path, t, why.to_string())),
        }
    }
    (allows, bad)
}

/// Parses `allow(Lxxx) -- reason`; the reason is mandatory.
fn parse_allow_body(s: &str) -> Result<(String, String), &'static str> {
    let rest = s
        .strip_prefix("allow(")
        .ok_or("directive must be `allow(Lxxx) -- reason`")?;
    let close = rest.find(')').ok_or("unclosed `allow(`")?;
    let lint = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim();
    let reason = tail
        .strip_prefix("--")
        .ok_or("bare allow: a `-- reason` is mandatory")?
        .trim();
    if reason.is_empty() {
        return Err("bare allow: a `-- reason` is mandatory");
    }
    Ok((lint, reason.to_string()))
}

fn bad_allow(rel_path: &str, t: &Token, message: String) -> Diagnostic {
    Diagnostic {
        lint: "L005",
        file: rel_path.to_string(),
        line: t.line,
        col: t.col,
        message,
        note: "the only silencing form is `// habit-lint: allow(Lxxx) -- reason`".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parsing_accepts_the_canonical_form() {
        let f = SourceFile::new(
            "x.rs".into(),
            "// habit-lint: allow(L001) -- order-free membership set\nlet x = 1;\n",
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].lint, "L001");
        assert_eq!(f.allows[0].reason, "order-free membership set");
        assert!(f.bad_allows.is_empty());
    }

    #[test]
    fn bare_and_unknown_allows_are_l005() {
        let f = SourceFile::new(
            "x.rs".into(),
            "// habit-lint: allow(L001)\n// habit-lint: allow(L999) -- nope\n\
             // habit-lint: allow(L005) -- meta\n// habit-lint: disallow(L001)\n\
             // habit-lint: allow(L002) -- retired\n// habit-lint: allow(L004) -- retired\n",
        );
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_allows.len(), 6);
        assert!(f.bad_allows[0].message.contains("bare allow"));
        assert!(f.bad_allows[1].message.contains("unknown lint"));
        assert!(f.bad_allows[2].message.contains("L005 cannot be silenced"));
        assert!(f.bad_allows[3].message.contains("must be"));
        // Retired IDs are unknown, never silently accepted.
        assert!(f.bad_allows[4].message.contains("unknown lint `L002`"));
        assert!(f.bad_allows[5].message.contains("unknown lint `L004`"));
    }

    #[test]
    fn non_test_lines_skip_comments_blanks_and_the_test_module() {
        let src = "//! docs\n\nuse a::b; // trailing comment\n/* block\n comment */\n\
                   fn f() -> &'static str {\n    \"two\nlines\"\n}\n\
                   mod inner {\n    #[cfg(test)]\n    fn nested() {}\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        // `use`, the 4-line fn (its string spans two), and the 4-line
        // `mod inner` (its indented cfg(test) is not top-level).
        assert_eq!(non_test_lines(&lex(src)), 9);

        let ws = Workspace {
            files: vec![
                SourceFile::new("crates/core/src/a.rs".into(), "fn a() {}\n"),
                SourceFile::new("crates/core/src/sub/b.rs".into(), "fn b() {}\nfn c() {}\n"),
                SourceFile::new("crates/core/tests/t.rs".into(), "fn t() {}\n"),
                SourceFile::new("src/lib.rs".into(), "fn root() {}\n"),
            ],
        };
        let report = analyze(&ws);
        assert_eq!(report.non_test_lines, [("core".to_string(), 3)].into());

        // A module is also test code when only its parent says so:
        // `props.rs` and everything under `props/` stop counting, the
        // sibling crate's file of the same name does not.
        let ws = Workspace {
            files: vec![
                SourceFile::new(
                    "crates/core/src/lib.rs".into(),
                    "mod a;\n#[cfg(test)]\nmod props;\n",
                ),
                SourceFile::new("crates/core/src/props.rs".into(), "fn p() {}\nfn q() {}\n"),
                SourceFile::new("crates/core/src/props/deep.rs".into(), "fn d() {}\n"),
                SourceFile::new("crates/core/src/props_too.rs".into(), "fn kept() {}\n"),
                SourceFile::new("crates/geo/src/props.rs".into(), "fn kept() {}\n"),
            ],
        };
        let report = analyze(&ws);
        assert_eq!(
            report.non_test_lines,
            [("core".to_string(), 2), ("geo".to_string(), 1)].into()
        );
        assert_eq!(report.files_scanned, 5, "skipped for size, still linted");
    }

    #[test]
    fn unused_allow_is_reported_dead() {
        let ws = Workspace {
            files: vec![SourceFile::new(
                "x.rs".into(),
                "// habit-lint: allow(L003) -- stale\nfn f() {}\n",
            )],
        };
        let report = analyze(&ws);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].lint, "L005");
        assert!(report.diagnostics[0].message.contains("silences nothing"));
    }
}
