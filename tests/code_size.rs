//! Lines of non-test Rust per crate, pinned in `reports/code_size.json`.
//!
//! A line counts when it carries a non-comment token or continues a
//! multi-line string literal, and comes before the file's first
//! column-1 `#[cfg(test)]`. A column-1 `#[cfg(test)] mod <name>;` makes
//! `<name>.rs` and `<name>/**` beside the declaring file test code, so
//! they count nothing. Every change to non-test code moves the number,
//! so the committed report moves with it: on drift this test fails and
//! prints the regenerated JSON.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const CFG_TEST: &str = "#[cfg(test)]";

/// Marks the bytes of `src` that are code (non-whitespace outside
/// comments, and every byte of a string literal) and returns them with
/// the offsets of the column-1 `#[cfg(test)]` attributes.
fn scan(src: &[u8]) -> (Vec<bool>, Vec<usize>) {
    let at = |k: usize, s: &[u8]| src.get(k..).is_some_and(|rest| rest.starts_with(s));
    let ident = |k: usize| {
        src.get(k)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    };
    let mut code = vec![false; src.len()];
    let mut cfg_test = Vec::new();
    let mut i = 0;
    while i < src.len() {
        let start = i;
        if at(i, b"//") {
            while i < src.len() && src[i] != b'\n' {
                i += 1;
            }
            continue;
        } else if at(i, b"/*") {
            let mut depth = 0;
            while i < src.len() {
                depth += i32::from(at(i, b"/*")) - i32::from(at(i, b"*/"));
                i += if at(i, b"/*") || at(i, b"*/") { 2 } else { 1 };
                if depth == 0 {
                    break;
                }
            }
            continue;
        } else if ident(i) && !src[i].is_ascii_digit() {
            while ident(i) {
                i += 1;
            }
            let hashes = src[i..].iter().take_while(|&&b| b == b'#').count();
            if matches!(&src[start..i], b"r" | b"br") && at(i + hashes, b"\"") {
                // A raw string: no escapes, closed by `"` and its hashes.
                let close = [&b"\""[..], &vec![b'#'; hashes]].concat();
                i += hashes + 1;
                while i < src.len() && !at(i, &close) {
                    i += 1;
                }
                i += close.len();
            }
        } else if src[i] == b'"' {
            i += 1;
            while i < src.len() && src[i] != b'"' {
                i += if src[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if src[i] == b'\'' {
            // A char literal, unless a lifetime: `'a` not closed at once.
            i += 1;
            if !ident(i) || src.get(i + 1) == Some(&b'\'') {
                while i < src.len() && src[i] != b'\'' && src[i] != b'\n' {
                    i += if src[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
        } else {
            if (i == 0 || src[i - 1] == b'\n') && at(i, CFG_TEST.as_bytes()) {
                cfg_test.push(i);
            }
            code[i] = !src[i].is_ascii_whitespace();
            i += 1;
            continue;
        }
        code[start..i.min(src.len())].fill(true);
    }
    (code, cfg_test)
}

/// Non-test lines of one file: lines holding a code byte, before its
/// first column-1 `#[cfg(test)]`.
fn non_test_lines(src: &str) -> usize {
    let (code, cfg_test) = scan(src.as_bytes());
    let end = cfg_test.first().copied().unwrap_or(src.len());
    let (mut lines, mut on_line) = (0, false);
    for (&b, &is_code) in src.as_bytes()[..end].iter().zip(&code) {
        on_line |= is_code;
        if b == b'\n' {
            lines += usize::from(on_line);
            on_line = false;
        }
    }
    lines + usize::from(on_line)
}

/// The module a column-1 `#[cfg(test)] mod <name>;` at `at` declares.
fn test_module(src: &str, at: usize) -> Option<&str> {
    let decl = src[at + CFG_TEST.len()..]
        .trim_start()
        .strip_prefix("mod ")?;
    let name = decl.split_once(';')?.0.trim();
    name.bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_')
        .then_some(name)
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir lists") {
        let path = entry.expect("source dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Non-test lines of every crate under `crates/`, by directory name.
fn count_crates(root: &Path) -> BTreeMap<String, usize> {
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let src = krate.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut sources);
        }
    }
    let texts: Vec<(PathBuf, String)> = sources
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("source reads");
            (p, text)
        })
        .collect();
    // `#[cfg(test)] mod x;` in `dir/f.rs` makes `dir/x.rs` and `dir/x/**`
    // test code.
    let test_only: Vec<PathBuf> = texts
        .iter()
        .flat_map(|(path, text)| {
            let modules = scan(text.as_bytes()).1.into_iter();
            modules.filter_map(|at| Some(path.with_file_name(test_module(text, at)?)))
        })
        .collect();
    let mut counts = BTreeMap::new();
    for (path, text) in &texts {
        if test_only
            .iter()
            .any(|m| path.with_extension("") == *m || path.starts_with(m))
        {
            continue;
        }
        let krate = path
            .strip_prefix(root.join("crates"))
            .expect("under crates/");
        let krate = krate.iter().next().expect("crate dir").to_string_lossy();
        *counts.entry(krate.into_owned()).or_insert(0) += non_test_lines(text);
    }
    counts
}

/// The `reports/code_size.json` document for `counts`.
fn render(counts: &BTreeMap<String, usize>) -> String {
    let rows: Vec<String> = counts
        .iter()
        .map(|(krate, n)| format!("    \"{krate}\": {n}"))
        .collect();
    format!(
        "{{\n  \"non_test_lines\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

#[test]
fn committed_code_size_report_is_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = root.join("reports/code_size.json");
    let committed = fs::read_to_string(&report).unwrap_or_default();
    let current = render(&count_crates(root));
    assert!(
        committed == current,
        "{} is stale; the current counts are:\n{current}",
        report.display()
    );
}

#[test]
fn counts_code_and_string_lines_before_the_test_module() {
    let src = "//! doc\nuse std::fmt; // trailing\n\n/* block\n   comment */\n\
               fn f() -> &'static str {\n    \"two\nlines\"\n}\n\
               fn g() -> &'static str {\n    r#\"raw \" // not a comment\n\"#\n}\n\
               mod inner {\n    #[cfg(test)]\n    fn nested() {}\n}\n\
               #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    // `use`, both 4-line fns (their strings span two lines) and the
    // 4-line `mod inner` (its indented `#[cfg(test)]` is not column 1).
    assert_eq!(non_test_lines(src), 13);
}

#[test]
fn chars_lifetimes_and_escapes_do_not_open_strings() {
    let src = "fn a<'a>(x: &'a str) -> char {\n    '\"'\n}\n\
               const Q: char = '\\'';\nconst S: &str = \"\\\"\";\n\
               // \"not code\n#[cfg(test)]\nfn t() {}\n";
    assert_eq!(non_test_lines(src), 5);
}
