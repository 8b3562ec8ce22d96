//! The `habit-lint` binary: scan the workspace, print rustc-style
//! diagnostics, and gate CI.
//!
//! ```text
//! habit-lint [--root DIR] [--check] [--json [FILE]]
//!            [--gen-docs [FILE]] [--check-docs]
//! ```
//!
//! Exit codes follow the workspace taxonomy: `0` clean, `1` violations
//! found (with `--check`) or stale docs (with `--check-docs`), `2`
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use habit_lint::{check_root, render_lints_md};

struct Args {
    root: PathBuf,
    check: bool,
    json: Option<PathBuf>,
    gen_docs: Option<PathBuf>,
    check_docs: bool,
}

fn usage() -> &'static str {
    "USAGE: habit-lint [--root DIR] [--check] [--json [FILE]] [--gen-docs [FILE]] [--check-docs]\n\
     \n\
     Runs the pinned lint registry (L001, L003, L005; see LINTS.md) over every .rs file\n\
     under the root (vendor/, target/, and test fixtures excluded).\n\
     \n\
       --root DIR        scan DIR instead of the current directory\n\
       --check           exit 1 when any unsilenced violation is found\n\
       --json [FILE]     write the machine-readable report (default reports/lint.json)\n\
       --gen-docs [FILE] render LINTS.md from the lint registry (default LINTS.md)\n\
       --check-docs      exit 1 when the committed LINTS.md is stale"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        check: false,
        json: None,
        gen_docs: None,
        check_docs: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--root" => {
                i += 1;
                let dir = argv.get(i).ok_or("--root needs a directory")?;
                args.root = PathBuf::from(dir);
            }
            "--check" => args.check = true,
            "--json" => {
                // Optional value: a following non-flag token is the path.
                if let Some(v) = argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                    args.json = Some(PathBuf::from(v));
                    i += 1;
                } else {
                    args.json = Some(PathBuf::from("reports/lint.json"));
                }
            }
            "--gen-docs" => {
                if let Some(v) = argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                    args.gen_docs = Some(PathBuf::from(v));
                    i += 1;
                } else {
                    args.gen_docs = Some(PathBuf::from("LINTS.md"));
                }
            }
            "--check-docs" => args.check_docs = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("habit-lint: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // Docs generation / freshness is root-relative like everything else.
    if let Some(path) = &args.gen_docs {
        let target = args.root.join(path);
        if let Err(e) = std::fs::write(&target, render_lints_md()) {
            eprintln!("habit-lint: cannot write {}: {e}", target.display());
            return ExitCode::from(1);
        }
        println!("wrote {}", target.display());
    }
    if args.check_docs {
        let target = args.root.join("LINTS.md");
        let committed = std::fs::read_to_string(&target).unwrap_or_default();
        if committed != render_lints_md() {
            eprintln!(
                "habit-lint: {} is stale — regenerate with `habit-lint --gen-docs`",
                target.display()
            );
            return ExitCode::from(1);
        }
        println!("LINTS.md is fresh");
    }
    if args.gen_docs.is_some() && args.json.is_none() && !args.check {
        return ExitCode::SUCCESS;
    }

    let report = match check_root(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("habit-lint: scan failed: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", report.render_human());

    if let Some(path) = &args.json {
        let target = args.root.join(path);
        if let Err(e) = std::fs::write(&target, report.render_json()) {
            eprintln!("habit-lint: cannot write {}: {e}", target.display());
            return ExitCode::from(1);
        }
        println!("wrote {}", target.display());
    }

    if args.check && !report.diagnostics.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
