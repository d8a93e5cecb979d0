//! `cargo xtask loc [--base <rev>]`: how much code the workspace holds.
//!
//! Counts *code lines* of every `crates/*/src/**/*.rs` — lines that still
//! hold a token once [`crate::lint::sanitize`] has removed comments, outside
//! `#[cfg(test)]` items and `#[test]` functions. Blank lines, comments and
//! tests do not count, so moving code into a test module or deleting
//! comments does not read as a reduction. With `--base <rev>` the same count
//! is taken of the files as committed at `rev` (read through `git show`) and
//! the table shows both sides. The numbers are printed, never gated.

use crate::lint::{sanitize, test_mask, workspace_sources};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::Command;

/// Code lines of one source file.
pub fn code_lines(src: &str) -> usize {
    let lines = sanitize(src);
    let mask = test_mask(&lines);
    lines.iter().zip(mask).filter(|(l, in_test)| !in_test && !l.code.trim().is_empty()).count()
}

/// `path -> code lines` of the working tree.
fn count_tree(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    Ok(workspace_sources(root)?.into_iter().map(|(rel, src)| (rel, code_lines(&src))).collect())
}

fn git(root: &Path, args: &[&str]) -> io::Result<String> {
    let out = Command::new("git").arg("-C").arg(root).args(args).output()?;
    if !out.status.success() {
        let msg =
            format!("git {}: {}", args.join(" "), String::from_utf8_lossy(&out.stderr).trim());
        return Err(io::Error::other(msg));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `path -> code lines` of the same file set as committed at `rev`.
fn count_rev(root: &Path, rev: &str) -> io::Result<BTreeMap<String, usize>> {
    let mut counts = BTreeMap::new();
    for path in git(root, &["ls-tree", "-r", "--name-only", rev, "--", "crates"])?.lines() {
        let in_src = path.split('/').nth(2) == Some("src");
        if in_src && path.ends_with(".rs") {
            let src = git(root, &["show", &format!("{rev}:{path}")])?;
            counts.insert(path.to_string(), code_lines(&src));
        }
    }
    Ok(counts)
}

/// `crates/<name>/...` -> `<name>`.
fn crate_of(path: &str) -> &str {
    path.split('/').nth(1).unwrap_or(path)
}

/// Render the per-crate and per-file tables. With a base, only files whose
/// count differs are listed; without one, every file.
pub fn report(now: &BTreeMap<String, usize>, base: Option<&BTreeMap<String, usize>>) -> String {
    let empty = BTreeMap::new();
    let old = base.unwrap_or(&empty);
    let row = |name: &str, before: usize, after: usize| match base {
        Some(_) => {
            format!("{name:<44} {before:>7} {after:>7} {:>+7}\n", after as i64 - before as i64)
        }
        None => format!("{name:<44} {after:>7}\n"),
    };
    let mut crates: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (path, &n) in old {
        crates.entry(crate_of(path)).or_default().0 += n;
    }
    for (path, &n) in now {
        crates.entry(crate_of(path)).or_default().1 += n;
    }
    let mut out = String::new();
    let (mut before, mut after) = (0, 0);
    for (name, &(b, a)) in &crates {
        out.push_str(&row(&format!("crates/{name}"), b, a));
        before += b;
        after += a;
    }
    out.push_str(&row("crates/ total", before, after));
    out.push('\n');
    let files: std::collections::BTreeSet<&String> = old.keys().chain(now.keys()).collect();
    for path in files {
        let (b, a) = (old.get(path).copied().unwrap_or(0), now.get(path).copied().unwrap_or(0));
        if base.is_none() || a != b {
            out.push_str(&row(path, b, a));
        }
    }
    out
}

/// Count the tree under `root` (and `base`, when given) and render the report.
pub fn run(root: &Path, base: Option<&str>) -> io::Result<String> {
    let now = count_tree(root)?;
    let old = base.map(|rev| count_rev(root, rev)).transpose()?;
    Ok(report(&now, old.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_blanks_and_tests_do_not_count() {
        let src = "\
//! Module docs.

/// Doc comment.
pub fn f() -> u32 {
    // a comment
    let s = \"// not a comment\"; /* inline */
    1 /* trailing */
}
/* block
   comment */

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::f(), 1);
    }
}
";
        // `pub fn`, `let s`, `1`, `}`.
        assert_eq!(code_lines(src), 4);
        assert_eq!(code_lines(""), 0);
    }

    #[test]
    fn report_sums_per_crate_and_lists_changed_files() {
        let tree = |pairs: &[(&str, usize)]| -> BTreeMap<String, usize> {
            pairs.iter().map(|&(p, n)| (p.to_string(), n)).collect()
        };
        let old =
            tree(&[("crates/a/src/x.rs", 10), ("crates/a/src/y.rs", 5), ("crates/b/src/z.rs", 7)]);
        let now =
            tree(&[("crates/a/src/x.rs", 8), ("crates/a/src/y.rs", 5), ("crates/b/src/w.rs", 2)]);
        let text = report(&now, Some(&old));
        let has = |name: &str, cols: &str| {
            text.lines().any(|l| {
                l.starts_with(name)
                    && l.split_whitespace().skip(1).collect::<Vec<_>>().join(" ") == cols
            })
        };
        assert!(has("crates/a ", "15 13 -2"), "{text}");
        assert!(has("crates/b ", "7 2 -5"), "{text}");
        assert!(has("crates/ total", "total 22 15 -7"), "{text}");
        assert!(has("crates/a/src/x.rs", "10 8 -2"), "{text}");
        assert!(has("crates/b/src/z.rs", "7 0 -7"), "{text}");
        assert!(has("crates/b/src/w.rs", "0 2 +2"), "{text}");
        assert!(!text.contains("crates/a/src/y.rs"), "unchanged file listed: {text}");
        // Without a base every file is listed, one column.
        assert!(report(&now, None).contains("crates/a/src/y.rs"));
    }
}
