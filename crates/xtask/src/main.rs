//! Workspace automation tasks (`cargo xtask` pattern).
//!
//! Subcommands:
//!
//! ```text
//! cargo run -p xtask -- lint [--format text|json|github]
//! cargo run -p xtask -- bench-diff [--fresh <dir>] [--threshold <pct>]
//! cargo run -p xtask -- loc [--base <rev>]
//! ```
//!
//! `lint` runs the project-specific static analysis described in [`lint`]
//! and DESIGN.md §8/§12 (including the cross-crate lock-order pass in
//! [`lockorder`]), exiting non-zero if any invariant is violated.
//! `--format json` emits machine-readable findings on stdout; `--format
//! github` emits GitHub Actions `::error` annotations so findings surface
//! inline on pull requests. `bench-diff` compares freshly generated
//! benchmark JSON (default `target/bench-fresh/BENCH_*.json`) against the
//! committed copies at the workspace root and fails on any latency
//! regression beyond the threshold (default 15%) and on any moved exact value
//! (work count, simulated time, span count); see [`bench_diff`].
//! `loc` prints code lines per crate and per file — comments, blanks and
//! test code excluded — optionally next to the same count at `--base <rev>`;
//! see [`loc`].

mod bench_diff;
mod lint;
mod loc;
mod lockorder;

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("bench-diff") => run_bench_diff(&args[1..]),
        Some("loc") => run_loc(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            eprintln!();
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo run -p xtask -- <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint        enforce workspace invariants (SAFETY comments, clock/rng");
    eprintln!("              gates, panic-free serving crates, no stdout in libraries,");
    eprintln!("              ranked-sync-only locking, cross-crate lock-order graph,");
    eprintln!("              metric-name registry);");
    eprintln!("              --format text|json|github selects the output shape");
    eprintln!("  bench-diff  compare fresh BENCH_*.json (--fresh <dir>, default");
    eprintln!("              target/bench-fresh) against committed copies; fail on");
    eprintln!("              latency regressions beyond --threshold <pct> (default 15)");
    eprintln!("  loc         code lines per crate and per file (no comments, blanks or");
    eprintln!("              tests); --base <rev> adds the count at that commit");
}

/// Workspace root: xtask lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

#[derive(Clone, Copy, PartialEq)]
enum LintFormat {
    Text,
    Json,
    Github,
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut format = LintFormat::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = LintFormat::Text,
                Some("json") => format = LintFormat::Json,
                Some("github") => format = LintFormat::Github,
                other => {
                    eprintln!(
                        "xtask lint: --format requires text, json or github (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = workspace_root();
    let findings = match lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: failed to walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let scanned = lint::count_files(&root).unwrap_or(0);
    match format {
        LintFormat::Json => {
            // Hand-rolled JSON (xtask is dependency-free by design).
            let mut out = String::from("{\n  \"files_scanned\": ");
            out.push_str(&scanned.to_string());
            out.push_str(",\n  \"findings\": [");
            for (i, f) in findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {\"file\": ");
                out.push_str(&json_string(&f.file));
                out.push_str(", \"line\": ");
                out.push_str(&f.line.to_string());
                out.push_str(", \"rule\": ");
                out.push_str(&json_string(f.rule.name()));
                out.push_str(", \"msg\": ");
                out.push_str(&json_string(&f.msg));
                out.push('}');
            }
            if !findings.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]\n}");
            println!("{out}");
        }
        LintFormat::Github => {
            // Workflow-command annotations: GitHub renders these inline on
            // the PR diff when emitted from an Actions step.
            for f in &findings {
                println!(
                    "::error file={},line={},title=xtask lint [{}]::{}",
                    f.file,
                    f.line,
                    f.rule.name(),
                    github_escape(&f.msg)
                );
            }
            eprintln!("xtask lint: {} finding(s) in {scanned} file(s)", findings.len());
        }
        LintFormat::Text => {
            if findings.is_empty() {
                eprintln!("xtask lint: {scanned} files clean");
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!();
                eprintln!(
                    "xtask lint: {} finding(s) in {scanned} file(s); see DESIGN.md \
                     sections 8 and 12 for the rules and the `// lint: allow(...)` \
                     annotation",
                    findings.len()
                );
            }
        }
    }
    if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}

/// Escape a string into a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escape a workflow-command message (GitHub's own percent-encoding rules).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

fn run_loc(args: &[String]) -> ExitCode {
    let base = match args {
        [] => None,
        [flag, rev] if flag == "--base" => Some(rev.as_str()),
        _ => {
            eprintln!("xtask loc: usage: loc [--base <rev>]");
            return ExitCode::FAILURE;
        }
    };
    match loc::run(&workspace_root(), base) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask loc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_bench_diff(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut fresh = root.join("target").join("bench-fresh");
    let mut threshold = bench_diff::DEFAULT_THRESHOLD_PCT;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fresh" => match it.next() {
                Some(dir) => fresh = PathBuf::from(dir),
                None => {
                    eprintln!("xtask bench-diff: --fresh requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--threshold" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t > 0.0 => threshold = t,
                _ => {
                    eprintln!("xtask bench-diff: --threshold requires a positive percentage");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask bench-diff: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let (comparisons, notes) = match bench_diff::diff_benchmarks(&root, &fresh, threshold) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &notes {
        eprintln!("xtask bench-diff: note: {note}");
    }
    for c in &comparisons {
        eprintln!("{c}");
    }
    let regressions = comparisons.iter().filter(|c| c.regressed).count();
    if regressions > 0 {
        eprintln!();
        eprintln!(
            "xtask bench-diff: {regressions} field(s) regressed beyond {threshold}% or moved \
             (of {} compared)",
            comparisons.len()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask bench-diff: {} field(s) within {threshold}% of, or equal to, committed baselines",
        comparisons.len()
    );
    ExitCode::SUCCESS
}
