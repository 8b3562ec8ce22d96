//! Generates the repository `README.md` from live sources (the
//! quickstart example and the `habit` CLI help text are embedded
//! verbatim), so the front page cannot drift from the code.
//!
//! ```text
//! cargo run -p habit-bench --release --bin gen_readme            # write README.md
//! cargo run -p habit-bench --release --bin gen_readme -- --check # fail if stale
//! ```
//!
//! Exit codes: 0 fresh/written, 1 stale or unwritable, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("error: {message}");
            ExitCode::from(code)
        }
    }
}

/// A failure carries its exit code and message.
fn run() -> Result<(), (u8, String)> {
    let (mut out, mut check) = (PathBuf::from("README.md"), false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let usage = || {
            (
                2,
                format!("bad argument `{arg}` (supported: --out PATH, --check)"),
            )
        };
        match arg.as_str() {
            "--out" => out = args.next().ok_or_else(usage)?.into(),
            "--check" => check = true,
            _ => return Err(usage()),
        }
    }
    let rendered = habit_bench::docs::render_readme();
    let shown = out.display();
    if !check {
        std::fs::write(&out, rendered).map_err(|e| (1, format!("could not write {shown}: {e}")))?;
        eprintln!("wrote {shown}");
    } else if std::fs::read_to_string(&out)
        .map_err(|e| (1, format!("could not read {shown}: {e}")))?
        != rendered
    {
        let hint = "regenerate with `cargo run -p habit-bench --bin gen_readme`";
        return Err((1, format!("{shown} is stale — {hint}")));
    } else {
        eprintln!("{shown} is fresh");
    }
    Ok(())
}
