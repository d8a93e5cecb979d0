//! Project-specific static analysis over the workspace source tree.
//!
//! Clippy and rustc enforce language-level rules; this pass enforces
//! *project* invariants that keep the BlendHouse simulation deterministic and
//! the `unsafe` surface auditable (DESIGN.md §8):
//!
//! 1. **`unsafe` needs `// SAFETY:`** — every `unsafe` block, fn, impl or
//!    trait must be immediately preceded by a `// SAFETY:` comment (or carry a
//!    `# Safety` doc section, for `unsafe fn`). An unjustified `unsafe` is a
//!    review escape hatch we do not allow.
//! 2. **Wall-clock gate** — no `Instant::now()` / `SystemTime::now()` outside
//!    `bh_common::clock` and `bh_common::trace` (which timestamps spans).
//!    All time flows through [`Clock`]/`Stopwatch` so the
//!    disaggregated-architecture simulation stays virtualizable and tests
//!    deterministic.
//! 3. **Determinism gate** — no ambient randomness (`thread_rng`,
//!    `from_entropy`, `rand::random`, `RandomState::new`) outside
//!    `bh_common::rng`. Every stochastic component takes an explicit seed.
//! 4. **No panics in library paths** — no `.unwrap()` / `.expect(` /
//!    `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test code
//!    of `storage`, `query`, `cluster`, `vector`. A query must degrade into a
//!    `BhError`, not take the server down. Provable invariants may be
//!    annotated `// lint: allow(panic) - <reason>` (the reason is mandatory).
//! 5. **No stdout in library crates** — `println!` & friends are reserved for
//!    the bench harness; libraries report through `MetricsRegistry`.
//! 6. **Import-graph hygiene** — a crate is consumed through its public
//!    surface: the root re-exports plus its public-surface modules. Reaching
//!    across crates into an *internal* module couples the consumer to
//!    implementation layout the owning crate never promised and makes
//!    intra-crate refactors breaking changes. Internal today:
//!    `bh_common::loom` (the vendored model checker backing the `--cfg loom`
//!    tests), `bh_vector::{hnsw, ivf, quant, iterator}` (index
//!    implementations — go through `IndexRegistry`/`VectorIndex`),
//!    `bh_query::plan` and `bh_storage::{partition, delete}`
//!    (planner and maintenance internals re-exported at their crate roots).
//!    By contrast `bh_common::clock` *is* public surface: a crate that
//!    overlaps simulated transfers does it there, with a `LatencyModel`
//!    deadline paid by `Clock::advance_to` (DESIGN.md §11).
//! 7. **No raw sync primitives** — `std::sync::{Mutex, RwLock, Condvar}`
//!    (guards, `PoisonError`) and any `parking_lot` type are forbidden
//!    outside `bh_common::sync`, the ranked wrappers' home. A raw lock is
//!    invisible to the lockdep runtime and to rule 8, so it re-opens the
//!    deadlock class the sync layer closes (DESIGN.md §12). Escape hatch:
//!    `// lint: allow(raw-sync) - <reason>` (the reason is mandatory).
//! 8. **Lock-order static analysis** — rebuilds the class-level lock
//!    acquisition graph from source (construction sites + nested
//!    `.lock()`/`.read()`/`.write()` scopes) across all crates and fails on
//!    any rank inversion or cycle; see [`crate::lockorder`].
//! 9. **Metric-name registry** — every literal metric registration
//!    (`.counter("…")`, `.gauge("…")`, `.histogram("…")` and their
//!    `_with_labels` forms) in library code must name an entry of
//!    `bh_common::metrics::NAMES`, and every entry of the table must be
//!    registered by at least one such call. A typo in a metric name silently
//!    forks a counter nobody reads, and an entry nothing registers names a
//!    series that reads zero forever; the table makes the namespace
//!    reviewable and gives dashboards one source of truth. Dynamically built
//!    names (`format!` tiers, cache labels) are out of the rule's scope, and
//!    registrations in tests and the harness crates count in neither
//!    direction.
//!
//! The scanner is a line-oriented lexer, not a full parser: it strips string
//! literals and comments (so `"unsafe"` in an error message is not a
//! finding), tracks `#[cfg(test)]` regions by brace depth, and understands
//! `// lint: allow(...)` suppressions on the offending or preceding line.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which invariant a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without an adjacent `// SAFETY:` / `# Safety` justification.
    UnsafeNeedsSafety,
    /// Ambient wall-clock access outside `bh_common::clock`.
    WallClock,
    /// Ambient randomness outside `bh_common::rng`.
    Nondeterminism,
    /// Panic path in library code of a serving crate.
    PanicInLib,
    /// Stdout/stderr printing in a library crate.
    StdoutInLib,
    /// `// lint: allow(panic)` without a stated invariant.
    EmptyAllowReason,
    /// Cross-crate import of another crate's internal module.
    CrossCrateInternal,
    /// Raw `std::sync`/`parking_lot` lock primitive outside `bh_common::sync`.
    RawSync,
    /// A nested lock acquisition that inverts the rank table, or a cycle in
    /// the cross-crate acquisition graph.
    LockOrder,
    /// A literal metric registration whose name is missing from
    /// `bh_common::metrics::NAMES`.
    MetricNames,
}

impl Rule {
    /// Stable machine-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe-needs-safety",
            Rule::WallClock => "wall-clock",
            Rule::Nondeterminism => "nondeterminism",
            Rule::PanicInLib => "panic-in-lib",
            Rule::StdoutInLib => "stdout-in-lib",
            Rule::EmptyAllowReason => "empty-allow-reason",
            Rule::CrossCrateInternal => "cross-crate-internal",
            Rule::RawSync => "raw-sync",
            Rule::LockOrder => "lock-order",
            Rule::MetricNames => "metric-names",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (unix separators).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.msg)
    }
}

/// Crates whose library code must be panic-free (rule 4).
const PANIC_FREE_CRATES: &[&str] = &["storage", "query", "cluster", "vector"];

/// Crates exempt from the library-hygiene rules 2, 3 and 5: the bench harness
/// measures real wall time and prints reports by design, and xtask is a
/// developer tool.
const HARNESS_CRATES: &[&str] = &["bench", "xtask"];

/// Rule 6: modules that are `pub` for intra-crate layering but are NOT part
/// of the owning crate's cross-crate surface. Everything else reachable from
/// a crate root (its re-exports and remaining public modules — e.g.
/// `bh_common::clock`, `bh_storage::objectstore`, `bh_vector::registry`) is fair
/// game. Promoting a module out of this list is a deliberate API decision
/// made here, in review, not by the first caller that finds it convenient.
const CROSS_CRATE_INTERNAL: &[(&str, &[&str])] = &[
    ("bh_common", &["loom"]),
    ("bh_vector", &["hnsw", "ivf", "quant", "iterator"]),
    ("bh_query", &["plan"]),
    ("bh_storage", &["partition", "delete"]),
];

// ------------------------------------------------------------------ scanner

/// One source line split into code and comment channels. String literal
/// contents are blanked in `code`; comment text (line, block and doc
/// comments) is concatenated into `comment`.
#[derive(Debug, Default, Clone)]
pub(crate) struct LineView {
    pub(crate) code: String,
    pub(crate) comment: String,
}

/// Lex `src` into per-line code/comment views. Handles nested block
/// comments, regular/raw/byte string literals, char literals vs lifetimes.
pub(crate) fn sanitize(src: &str) -> Vec<LineView> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u8),
        Char,
    }

    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<LineView> = Vec::new();
    let mut cur = LineView::default();
    let mut st = St::Code;
    let mut i = 0usize;

    // True when `chars[at..]` starts a raw string opener (`r"`/`r#"`/`br#"`),
    // returning the number of hashes.
    let raw_open = |at: usize| -> Option<u8> {
        let mut j = at;
        if chars.get(j) == Some(&'b') {
            j += 1;
        }
        if chars.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
        let mut hashes = 0u8;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        (chars.get(j) == Some(&'"')).then_some(hashes)
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    i += 2;
                } else if (c == 'r' || c == 'b') && raw_open(i).is_some() {
                    let hashes = raw_open(i).unwrap_or(0);
                    // Skip the opener: optional `b`, `r`, hashes, quote.
                    i += usize::from(c == 'b') + 1 + hashes as usize + 1;
                    cur.code.push('"');
                    st = St::RawStr(hashes);
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Str;
                    i += 1;
                } else if c == '\'' {
                    // Char literal iff escaped or closed within two chars;
                    // otherwise it is a lifetime.
                    let is_char = next == Some('\\')
                        || chars.get(i + 2) == Some(&'\'')
                        || (next == Some('\'')); // empty char literal: invalid but lex it
                    cur.code.push('\'');
                    i += 1;
                    if is_char {
                        st = St::Char;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    st = if depth <= 1 { St::Code } else { St::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // A line-continuation escape (`\` at end of line) still
                    // ends the physical line — keep the line views aligned
                    // with the raw source.
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push(std::mem::take(&mut cur));
                    } else {
                        cur.code.push(' ');
                    }
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes as usize).all(|h| chars.get(i + 1 + h) == Some(&'#')) {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1 + hashes as usize;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    out.push(cur);
    out
}

/// Mark lines belonging to `#[cfg(test)]` items and `#[test]` functions.
pub(crate) fn test_mask(lines: &[LineView]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let code = &lines[i].code;
        let is_test_attr = code.contains("#[cfg(test)]")
            || code.contains("#[cfg(all(test")
            || code.contains("#[cfg(any(test")
            || code.contains("#[test]");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Mask from the attribute through the end of the item's brace block
        // (or through its `;` for brace-less items like `use`).
        let mut depth: i64 = 0;
        let mut started = false;
        let mut j = i;
        'item: while j < lines.len() {
            mask[j] = true;
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    ';' if !started => break 'item,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// True when `hay` contains `needle` not embedded in a larger identifier.
fn token_present(hay: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let left_ok = at == 0 || !ident(hay[..at].chars().next_back().unwrap_or(' '));
        let right_ok =
            !hay[at + needle.len()..].chars().next().map(ident).unwrap_or(false);
        if left_ok && right_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Candidate lines for an allow annotation: the flagged line itself plus the
/// contiguous block of pure-comment lines directly above it (annotations are
/// prose and may wrap across lines).
fn annotation_lines(lines: &[LineView], idx: usize) -> impl Iterator<Item = usize> + '_ {
    let mut first = idx;
    while first > 0 {
        let prev = &lines[first - 1];
        if prev.code.trim().is_empty() && !prev.comment.trim().is_empty() {
            first -= 1;
        } else {
            break;
        }
    }
    (first..=idx).rev()
}

/// True when this line or the comment block above it carries
/// `// lint: allow(<what>)`.
pub(crate) fn allowed(lines: &[LineView], idx: usize, what: &str) -> bool {
    let marker = format!("lint: allow({what})");
    annotation_lines(lines, idx).any(|at| lines[at].comment.contains(&marker))
}

/// A `// lint: allow(<what>)` annotation must state the invariant that makes
/// the suppression sound. Returns the annotation line if the reason is
/// missing or too thin to mean anything.
pub(crate) fn allow_reason_missing(lines: &[LineView], idx: usize, what: &str) -> Option<usize> {
    let marker = format!("lint: allow({what})");
    for at in annotation_lines(lines, idx) {
        let view = &lines[at];
        if let Some(pos) = view.comment.find(&marker) {
            let reason = view.comment[pos + marker.len()..]
                .trim_start_matches([' ', '-', ':', '—', '–'])
                .trim();
            if reason.chars().filter(|c| c.is_alphanumeric()).count() < 8 {
                return Some(at);
            }
            return None;
        }
    }
    None
}

/// Collect the first path segment of each entry after a `::`, looking
/// through `{...}` groups; consumes (and ignores) the rest of each path.
/// Shared by rules 6 and 7, which both resolve `prefix::{a, b::c}` forms.
fn path_heads(text: &str, mut j: usize, out: &mut Vec<(usize, usize)>) -> usize {
    let bytes = text.as_bytes();
    let skip_ws = |mut j: usize| {
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        j
    };
    j = skip_ws(j);
    if j < bytes.len() && bytes[j] == b'{' {
        j += 1;
        loop {
            j = path_heads(text, j, out);
            j = skip_ws(j);
            match bytes.get(j) {
                Some(b',') => j += 1,
                Some(b'}') => {
                    j += 1;
                    break;
                }
                _ => break,
            }
        }
        return j;
    }
    let start = j;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    if j > start {
        out.push((start, j));
    }
    // Swallow the remaining `::segment` / `::{...}` / `::*` tail.
    loop {
        let at = skip_ws(j);
        if !text[at..].starts_with("::") {
            break;
        }
        j = skip_ws(at + 2);
        match bytes.get(j) {
            Some(b'{') => {
                let mut depth = 0usize;
                while j < bytes.len() {
                    match bytes[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            Some(b'*') => j += 1,
            _ => {
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
            }
        }
    }
    j
}

// ---------------------------------------------- rule 7: raw sync primitives

/// Lock types that must come from `bh_common::sync`, not `std::sync`. The
/// guards and `PoisonError` ride along: naming them means handling raw
/// guards, which only raw locks produce.
const RAW_SYNC_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "PoisonError",
];

/// Find `std::sync::<forbidden>` paths — direct (`std::sync::Mutex<T>`) or
/// through import groups (`use std::sync::{Arc, Mutex}`) — in the joined
/// code channel. Returns `(line_idx, type_name)` per hit. `Arc`, `mpsc`,
/// `atomic` and friends pass: only the lock primitives are ranked.
fn raw_sync_reach(lines: &[LineView]) -> Vec<(usize, &'static str)> {
    let mut text = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for v in lines {
        line_starts.push(text.len());
        text.push_str(&v.code);
        text.push('\n');
    }
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let line_of = |pos: usize| line_starts.partition_point(|&s| s <= pos).saturating_sub(1);

    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find("std") {
        let at = from + pos;
        from = at + 3;
        // A preceding `::` is fine — `::std::sync::Mutex` is still std's.
        let left_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after = at + 3;
        if !left_ok || !text[after..].starts_with("::") {
            continue;
        }
        let mut j = after + 2;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if !text[j..].starts_with("sync") {
            continue;
        }
        j += 4;
        if !text[j..].starts_with("::") {
            continue;
        }
        let mut segs = Vec::new();
        path_heads(&text, j + 2, &mut segs);
        for (s, e) in segs {
            if let Some(t) = RAW_SYNC_TYPES.iter().find(|t| **t == &text[s..e]) {
                out.push((line_of(s), *t));
            }
        }
    }
    out
}

// ------------------------------------------------- rule 6: import hygiene

/// The external crate name a `crates/<dir>` directory compiles to.
fn crate_token(dir: &str) -> String {
    if dir == "core" { "blendhouse".to_string() } else { format!("bh_{dir}") }
}

/// Scan the file's code channel for cross-crate paths that reach an internal
/// module of another crate. Returns `(line_idx, crate, module)` per hit.
///
/// Unlike the per-line rules this joins the whole code channel first: a
/// rustfmt-wrapped `use bh_vector::{\n    distance,\n    quant::Pq,\n};`
/// names the internal module on a different line than the crate.
fn cross_crate_reach(lines: &[LineView], owner: &str) -> Vec<(usize, &'static str, &'static str)> {
    let mut text = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for v in lines {
        line_starts.push(text.len());
        text.push_str(&v.code);
        text.push('\n');
    }
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let skip_ws = |mut j: usize| {
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        j
    };
    let line_of = |pos: usize| line_starts.partition_point(|&s| s <= pos).saturating_sub(1);

    let mut out = Vec::new();
    for (krate, internals) in CROSS_CRATE_INTERNAL {
        if *krate == owner {
            continue;
        }
        let mut from = 0usize;
        while let Some(pos) = text[from..].find(krate) {
            let at = from + pos;
            from = at + krate.len();
            let left_ok = at == 0 || !is_ident(bytes[at - 1]);
            let after = at + krate.len();
            if !left_ok || after >= bytes.len() || is_ident(bytes[after]) {
                continue;
            }
            let j = skip_ws(after);
            if !text[j..].starts_with("::") {
                continue;
            }
            let mut segs = Vec::new();
            path_heads(&text, j + 2, &mut segs);
            for (s, e) in segs {
                if let Some(m) = internals.iter().find(|m| **m == &text[s..e]) {
                    out.push((line_of(s), *krate, *m));
                }
            }
        }
    }
    out
}

// -------------------------------------------------------------------- rules

/// Lint one file. `rel` is the workspace-relative path with `/` separators
/// (e.g. `crates/query/src/exec.rs`); it determines which rules apply.
pub fn lint_file(rel: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let parts: Vec<&str> = rel.split('/').collect();
    // Only `crates/<name>/src/**` is library code; tests/, benches/ and
    // examples/ follow test rules (assertions are the point there).
    let crate_name = match parts.as_slice() {
        ["crates", name, "src", ..] => *name,
        _ => return findings,
    };
    let harness = HARNESS_CRATES.contains(&crate_name);

    let lines = sanitize(content);
    let tests = test_mask(&lines);
    let mut push = |line: usize, rule: Rule, msg: String| {
        findings.push(Finding { file: rel.to_string(), line: line + 1, rule, msg });
    };

    for (idx, view) in lines.iter().enumerate() {
        let code = &view.code;

        // Rule 1: unsafe needs SAFETY. Applies everywhere, tests included —
        // UB in a test corrupts the test, not just production.
        if token_present(code, "unsafe") && !has_safety_justification(&lines, idx) {
            push(
                idx,
                Rule::UnsafeNeedsSafety,
                "`unsafe` must be immediately preceded by a `// SAFETY:` comment \
                 (or carry a `# Safety` doc section)"
                    .into(),
            );
        }

        if tests[idx] {
            continue;
        }

        // Rule 2: wall-clock gate. The clock module is where wall time is
        // sanctioned; the trace module timestamps spans (via Stopwatch, but
        // the exemption keeps the rule honest if it ever reads time directly).
        let clock_home =
            rel == "crates/common/src/clock.rs" || rel == "crates/common/src/trace.rs";
        if !harness && !clock_home {
            for tok in ["Instant::now", "SystemTime::now"] {
                if code.contains(tok) && !allowed(&lines, idx, "wall_clock") {
                    push(
                        idx,
                        Rule::WallClock,
                        format!(
                            "`{tok}()` outside bh_common::clock breaks the simulation's \
                             virtual time; use `Clock`/`Stopwatch` from bh_common::clock"
                        ),
                    );
                }
            }
        }

        // Rule 3: determinism gate.
        let rng_home = rel == "crates/common/src/rng.rs";
        if !harness && !rng_home {
            for tok in ["thread_rng", "from_entropy", "rand::random", "RandomState::new"] {
                if code.contains(tok) && !allowed(&lines, idx, "nondeterminism") {
                    push(
                        idx,
                        Rule::Nondeterminism,
                        format!(
                            "`{tok}` introduces unseeded randomness; derive a seeded \
                             RNG via bh_common::rng instead"
                        ),
                    );
                }
            }
        }

        // Rule 4: panic-free serving crates.
        if PANIC_FREE_CRATES.contains(&crate_name) {
            let hit = [".unwrap()", ".expect("]
                .iter()
                .find(|t| code.contains(**t))
                .copied()
                .or_else(|| {
                    ["panic!", "unreachable!", "todo!", "unimplemented!"]
                        .iter()
                        .find(|t| token_present(code, t))
                        .copied()
                });
            if let Some(tok) = hit {
                if allowed(&lines, idx, "panic") {
                    if let Some(at) = allow_reason_missing(&lines, idx, "panic") {
                        push(
                            at,
                            Rule::EmptyAllowReason,
                            "`lint: allow(panic)` must state the invariant that makes \
                             the panic unreachable"
                                .into(),
                        );
                    }
                } else {
                    push(
                        idx,
                        Rule::PanicInLib,
                        format!(
                            "`{tok}` in library code of `{crate_name}`: return a BhError \
                             or annotate `// lint: allow(panic) - <invariant>`"
                        ),
                    );
                }
            }
        }

        // Rule 5: no stdout in libraries.
        if !harness {
            for tok in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                if token_present(code, tok) && !allowed(&lines, idx, "stdout") {
                    push(
                        idx,
                        Rule::StdoutInLib,
                        format!(
                            "`{tok}` in a library crate; report through MetricsRegistry \
                             or return data to the caller"
                        ),
                    );
                }
            }
        }
    }

    // Rule 6: cross-crate imports must stay on the public surface.
    let owner = crate_token(crate_name);
    for (idx, krate, module) in cross_crate_reach(&lines, &owner) {
        if tests[idx] || allowed(&lines, idx, "cross_crate") {
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: idx + 1,
            rule: Rule::CrossCrateInternal,
            msg: format!(
                "`{krate}::{module}` is an internal module of `{krate}`; use its \
                 crate-root surface (or promote the module in xtask lint's \
                 CROSS_CRATE_INTERNAL after review)"
            ),
        });
    }

    // Rule 7: raw sync primitives live in one file. Applies to tests too —
    // a deadlock in a test hangs CI just as hard, and only wrapped locks
    // participate in the lockdep runtime that would have caught it.
    if rel != "crates/common/src/sync.rs" {
        let mut raw_hits: Vec<(usize, String)> = raw_sync_reach(&lines)
            .into_iter()
            .map(|(idx, t)| (idx, format!("std::sync::{t}")))
            .collect();
        for (idx, view) in lines.iter().enumerate() {
            if token_present(&view.code, "parking_lot") {
                raw_hits.push((idx, "parking_lot".to_string()));
            }
        }
        raw_hits.sort();
        for (idx, what) in raw_hits {
            if allowed(&lines, idx, "raw-sync") {
                if let Some(at) = allow_reason_missing(&lines, idx, "raw-sync") {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: at + 1,
                        rule: Rule::EmptyAllowReason,
                        msg: "`lint: allow(raw-sync)` must state why bypassing the \
                              ranked sync layer is sound here"
                            .into(),
                    });
                }
                continue;
            }
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: Rule::RawSync,
                msg: format!(
                    "`{what}` outside bh_common::sync is invisible to lockdep; use the \
                     ranked wrappers from bh_common::sync (or annotate \
                     `// lint: allow(raw-sync) - <reason>`)"
                ),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// An `unsafe` token on `lines[idx]` is justified when a `SAFETY:` comment
/// sits on the same line, or when the contiguous run of comment/attribute
/// lines directly above contains `SAFETY:` or a `# Safety` doc section.
fn has_safety_justification(lines: &[LineView], idx: usize) -> bool {
    let has_marker =
        |v: &LineView| v.comment.contains("SAFETY:") || v.comment.contains("# Safety");
    if has_marker(&lines[idx]) {
        return true;
    }
    let mut at = idx;
    while at > 0 {
        at -= 1;
        let v = &lines[at];
        let code = v.code.trim();
        let is_annotation = code.is_empty() || code.starts_with("#[") || code.starts_with("#![");
        if !is_annotation {
            return false;
        }
        if has_marker(v) {
            return true;
        }
    }
    false
}

// --------------------------------------------------------------------- walk

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------- rule 9: metric names

/// Path of the canonical metric-name table.
const METRIC_NAMES_FILE: &str = "crates/common/src/metrics.rs";

/// Registration calls whose first argument names a metric.
const METRIC_REGISTRATIONS: &[&str] = &[
    ".counter_with_labels(",
    ".gauge_with_labels(",
    ".histogram_with_labels(",
    ".counter(",
    ".gauge(",
    ".histogram(",
];

/// Extract the string literals of the `pub const NAMES` table from the
/// `bh_common::metrics` source. Returns `None` when the table is missing.
pub(crate) fn parse_metric_names(src: &str) -> Option<Vec<String>> {
    let start = src.find("pub const NAMES")?;
    // Seek past the `=` so the `[` of the type (`&[&str]`) is not mistaken
    // for the opening bracket of the initializer.
    let eq = start + src[start..].find('=')?;
    let open = eq + src[eq..].find('[')?;
    let close = open + src[open..].find(']')?;
    let body = &src[open + 1..close];
    let mut names = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let end = after.find('"')?;
        names.push(after[..end].to_string());
        rest = &after[end + 1..];
    }
    Some(names)
}

/// The first argument of a registration call when it is a string literal.
/// `None` means the name is built dynamically — out of the rule's scope.
fn literal_first_arg(raw_after_paren: &str) -> Option<&str> {
    let arg = raw_after_paren.trim_start();
    let inner = arg.strip_prefix('"')?;
    let end = inner.find('"')?;
    Some(&inner[..end])
}

/// Rule 9 over the whole file set: every literal registration must appear in
/// the NAMES table, and every entry of the table must be registered by one.
/// Tests and harness crates are exempt; dynamic names are skipped (they
/// cannot be checked textually).
pub(crate) fn check_metric_names(sources: &[(String, String)]) -> Vec<Finding> {
    let Some((_, metrics_src)) = sources.iter().find(|(rel, _)| rel == METRIC_NAMES_FILE)
    else {
        return vec![Finding {
            file: METRIC_NAMES_FILE.to_string(),
            line: 1,
            rule: Rule::MetricNames,
            msg: "missing: the metric-name table (bh_common::metrics::NAMES) must \
                  exist for rule 9 (metric-names) to run"
                .into(),
        }];
    };
    let Some(names) = parse_metric_names(metrics_src) else {
        return vec![Finding {
            file: METRIC_NAMES_FILE.to_string(),
            line: 1,
            rule: Rule::MetricNames,
            msg: "no `pub const NAMES` table found; rule 9 (metric-names) cannot run"
                .into(),
        }];
    };

    let mut findings = Vec::new();
    let mut registered = vec![false; names.len()];
    for (rel, content) in sources {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, "src", ..] => *name,
            _ => continue,
        };
        if HARNESS_CRATES.contains(&crate_name) {
            continue;
        }
        let lines = sanitize(content);
        let tests = test_mask(&lines);
        for (idx, raw) in content.lines().enumerate() {
            if tests.get(idx).copied().unwrap_or(false) {
                continue;
            }
            // The sanitized view gates on real code (not comments or string
            // contents); the literal itself is read from the raw line. The two
            // views can disagree on line count (sanitize folds some forms), so
            // a raw line past the sanitized view is skipped.
            let Some(code) = lines.get(idx).map(|l| l.code.as_str()) else {
                break;
            };
            for pat in METRIC_REGISTRATIONS {
                // The sanitized view (comments stripped, literals blanked)
                // decides whether the line really has a call; the literal is
                // then read from the raw text. Columns may differ between the
                // two (escapes, comments), so matches are re-found in raw.
                if !code.contains(pat) {
                    continue;
                }
                let mut from = 0usize;
                // The six patterns are mutually exclusive (`.counter(` cannot
                // occur inside `.counter_with_labels(`), so each call site
                // matches exactly one.
                while let Some(pos) = raw[from..].find(pat) {
                    let at = from + pos;
                    from = at + pat.len();
                    let Some(name) = raw.get(at + pat.len()..).and_then(literal_first_arg)
                    else {
                        continue; // dynamic name
                    };
                    match names.iter().position(|n| n == name) {
                        Some(i) => registered[i] = true,
                        None => findings.push(Finding {
                            file: rel.clone(),
                            line: idx + 1,
                            rule: Rule::MetricNames,
                            msg: format!(
                                "metric \"{name}\" is not in \
                                 bh_common::metrics::NAMES; add it to the \
                                 table (or fix the typo)"
                            ),
                        }),
                    }
                }
            }
        }
    }
    // The other direction: a table entry no library site registers, reported
    // at its line of the table.
    let table = metrics_src.lines().position(|l| l.contains("pub const NAMES")).unwrap_or(0);
    for (name, _) in names.iter().zip(&registered).filter(|(_, seen)| !**seen) {
        let quoted = format!("\"{name}\"");
        let at = metrics_src.lines().skip(table).position(|l| l.contains(&quoted)).unwrap_or(0);
        findings.push(Finding {
            file: METRIC_NAMES_FILE.to_string(),
            line: table + at + 1,
            rule: Rule::MetricNames,
            msg: format!(
                "metric \"{name}\" is in bh_common::metrics::NAMES but no library \
                 code registers it; delete the entry"
            ),
        });
    }
    findings
}

/// Every `crates/*/src/**/*.rs` under the workspace root, sorted.
fn src_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> =
        fs::read_dir(root.join("crates"))?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }
    Ok(files)
}

/// `(root-relative path, content)` of every file [`lint_workspace`] scans.
pub(crate) fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for path in src_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(sources)
}

/// Lint every `crates/*/src/**/*.rs` under the workspace root.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = workspace_sources(root)?;
    let mut findings = Vec::new();
    for (rel, content) in &sources {
        findings.extend(lint_file(rel, content));
    }
    // Rule 8: the lock-order graph spans all crates, so it runs over the
    // whole file set at once, keyed by the rank table in bh_common::sync.
    match sources.iter().find(|(rel, _)| rel == "crates/common/src/sync.rs") {
        Some((_, sync_src)) => match crate::lockorder::parse_rank_table(sync_src) {
            Some(table) => findings.extend(crate::lockorder::check(&sources, &table)),
            None => findings.push(Finding {
                file: "crates/common/src/sync.rs".to_string(),
                line: 1,
                rule: Rule::LockOrder,
                msg: "no lock_rank_table! invocation found; rule 8 (lock-order) \
                      cannot run"
                    .into(),
            }),
        },
        None => findings.push(Finding {
            file: "crates/common/src/sync.rs".to_string(),
            line: 1,
            rule: Rule::LockOrder,
            msg: "missing: the ranked sync layer (and its rank table) must exist \
                  for rule 8 (lock-order) to run"
                .into(),
        }),
    }
    // Rule 9: metric registrations are checked against the NAMES table in
    // bh_common::metrics, across the whole file set.
    findings.extend(check_metric_names(&sources));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Number of files the workspace walk would visit (for the summary line).
pub fn count_files(root: &Path) -> io::Result<usize> {
    Ok(src_files(root)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<Rule> {
        lint_file(rel, src).into_iter().map(|f| f.rule).collect()
    }

    // ---- rule 1: unsafe needs SAFETY ----

    #[test]
    fn bare_unsafe_block_is_caught() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules("crates/vector/src/x.rs", src), vec![Rule::UnsafeNeedsSafety]);
    }

    #[test]
    fn safety_comment_above_passes() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(rules("crates/vector/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_same_line_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid per contract\n}\n";
        assert!(rules("crates/vector/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_on_unsafe_fn_passes() {
        let src = "/// Reads a byte.\n///\n/// # Safety\n/// `p` must be valid for reads.\n#[inline]\npub unsafe fn f(p: *const u8) -> u8 {\n    // SAFETY: contract forwarded from f's own docs\n    unsafe { *p }\n}\n";
        assert!(rules("crates/vector/src/x.rs", src).is_empty());
    }

    #[test]
    fn comment_separated_by_code_does_not_count() {
        let src = "// SAFETY: stale comment\nfn g() {}\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules("crates/vector/src/x.rs", src), vec![Rule::UnsafeNeedsSafety]);
    }

    #[test]
    fn unsafe_inside_string_literal_is_ignored() {
        // Regression guard: objectstore.rs rejects "unsafe blob key" paths.
        let src = "fn f(key: &str) -> String {\n    format!(\"unsafe blob key: {key}\")\n}\n";
        assert!(rules("crates/storage/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_comment_is_ignored() {
        let src = "// this code is not unsafe at all\nfn f() {}\n";
        assert!(rules("crates/storage/src/x.rs", src).is_empty());
    }

    // ---- rule 2: wall clock ----

    #[test]
    fn instant_now_in_query_is_caught() {
        let src = "fn f() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
        assert_eq!(rules("crates/query/src/x.rs", src), vec![Rule::WallClock]);
    }

    #[test]
    fn system_time_is_caught() {
        let src = "fn f() {\n    let _ = std::time::SystemTime::now();\n}\n";
        assert_eq!(rules("crates/storage/src/x.rs", src), vec![Rule::WallClock]);
    }

    #[test]
    fn clock_module_is_exempt() {
        let src = "pub fn now() {\n    let _ = std::time::Instant::now();\n}\n";
        assert!(rules("crates/common/src/clock.rs", src).is_empty());
    }

    #[test]
    fn trace_module_is_exempt() {
        let src = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
        assert!(rules("crates/common/src/trace.rs", src).is_empty());
    }

    #[test]
    fn bench_harness_is_exempt() {
        let src = "pub fn t() {\n    let _ = std::time::Instant::now();\n    println!(\"x\");\n}\n";
        assert!(rules("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn instant_in_cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::time::Instant::now();\n    }\n}\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_allow_annotation() {
        let src = "fn f() {\n    // lint: allow(wall_clock) - measuring real RPC deadline\n    let _ = std::time::Instant::now();\n}\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    // ---- rule 3: nondeterminism ----

    #[test]
    fn thread_rng_is_caught() {
        let src = "fn f() {\n    let mut r = rand::thread_rng();\n    let _ = &mut r;\n}\n";
        assert_eq!(rules("crates/vector/src/x.rs", src), vec![Rule::Nondeterminism]);
    }

    #[test]
    fn rng_module_is_exempt() {
        let src = "pub fn f() {\n    let _ = rand::thread_rng();\n}\n";
        assert!(rules("crates/common/src/rng.rs", src).is_empty());
    }

    // ---- rule 4: panic-free serving crates ----

    #[test]
    fn unwrap_in_storage_is_caught() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        assert_eq!(rules("crates/storage/src/x.rs", src), vec![Rule::PanicInLib]);
    }

    #[test]
    fn expect_and_macros_are_caught() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    if false { panic!(\"boom\") }\n    v.expect(\"set\")\n}\n";
        let got = rules("crates/cluster/src/x.rs", src);
        assert_eq!(got, vec![Rule::PanicInLib, Rule::PanicInLib]);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap_or(0) + v.unwrap_or_else(|| 1) + v.unwrap_or_default()\n}\n";
        assert!(rules("crates/storage/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_only_applies_to_serving_crates() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        assert!(rules("crates/sql/src/x.rs", src).is_empty());
        assert!(rules("crates/common/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_panic_with_reason_passes() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    // lint: allow(panic) - v was populated for every key two lines above\n    v.unwrap()\n}\n";
        assert!(rules("crates/storage/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_panic_wrapped_across_comment_lines_passes() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    // lint: allow(panic) - v was populated for\n    // every key two lines above\n    v.unwrap()\n}\n";
        assert!(rules("crates/storage/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_panic_without_reason_is_caught() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint: allow(panic)\n}\n";
        assert_eq!(rules("crates/storage/src/x.rs", src), vec![Rule::EmptyAllowReason]);
    }

    #[test]
    fn unwrap_in_tests_mod_is_fine() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1u32).unwrap();\n    }\n}\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    #[test]
    fn code_after_tests_mod_is_still_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u32).unwrap(); }\n}\n\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert_eq!(rules("crates/query/src/x.rs", src), vec![Rule::PanicInLib]);
    }

    #[test]
    fn unwrap_in_doc_comment_example_is_fine() {
        let src = "/// Example: `x.unwrap()` panics on None.\nfn f() {}\n";
        assert!(rules("crates/storage/src/x.rs", src).is_empty());
    }

    // ---- rule 5: stdout ----

    #[test]
    fn println_in_library_is_caught() {
        let src = "fn f() {\n    println!(\"hello\");\n}\n";
        assert_eq!(rules("crates/common/src/x.rs", src), vec![Rule::StdoutInLib]);
    }

    #[test]
    fn dbg_is_caught_and_writeln_is_fine() {
        let src = "use std::fmt::Write;\nfn f(out: &mut String) {\n    let _ = writeln!(out, \"x\");\n    dbg!(42);\n}\n";
        assert_eq!(rules("crates/query/src/x.rs", src), vec![Rule::StdoutInLib]);
    }

    // ---- rule 6: cross-crate import hygiene ----

    #[test]
    fn reach_into_internal_module_is_caught() {
        let src = "use bh_common::loom::thread;\nfn f() { thread::spawn(|| {}); }\n";
        assert_eq!(rules("crates/query/src/x.rs", src), vec![Rule::CrossCrateInternal]);
    }

    #[test]
    fn grouped_and_wrapped_imports_are_caught() {
        let src = "use bh_vector::{\n    distance,\n    quant::ProductQuantizer,\n};\nfn f() { let _ = (distance::l2_sq, ProductQuantizer::default); }\n";
        let f = lint_file("crates/storage/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::CrossCrateInternal);
        assert_eq!(f[0].line, 3, "finding anchors on the line naming the module");
    }

    #[test]
    fn inline_path_expression_is_caught() {
        let src = "fn f(v: &[f32]) -> Vec<u32> {\n    bh_vector::hnsw::HnswIndex::probe(v)\n}\n";
        assert_eq!(rules("crates/cluster/src/x.rs", src), vec![Rule::CrossCrateInternal]);
    }

    #[test]
    fn public_surface_modules_pass() {
        let src = "use bh_common::clock::{Clock, LatencyModel};\nuse bh_vector::{distance::Metric, registry};\nuse bh_storage::objectstore::InMemoryObjectStore;\nfn f() { let _ = (LatencyModel::deadline, registry::IndexRegistry::load_blob, InMemoryObjectStore::for_tests); }\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    #[test]
    fn owning_crate_may_use_its_own_internals() {
        let src = "use bh_common::loom::sync::Arc;\nfn f() { let _ = Arc::<u32>::new; }\n";
        assert!(rules("crates/common/src/x.rs", src).is_empty());
    }

    #[test]
    fn cross_crate_allow_annotation_and_tests_are_exempt() {
        let allowed = "fn f() {\n    // lint: allow(cross_crate) - loom model shim for the fan-out harness\n    let _ = bh_common::loom::model;\n}\n";
        assert!(rules("crates/query/src/x.rs", allowed).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    use bh_query::plan::PhysicalPlan;\n    #[test]\n    fn t() { let _ = std::any::type_name::<PhysicalPlan>(); }\n}\n";
        assert!(rules("crates/storage/src/x.rs", in_tests).is_empty());
    }

    #[test]
    fn internal_module_name_in_string_or_comment_passes() {
        let src = "// docs may mention bh_common::loom::model freely\nfn f() -> &'static str {\n    \"bh_vector::quant::ProductQuantizer\"\n}\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    // ---- rule 7: raw sync primitives ----

    #[test]
    fn raw_std_mutex_is_caught() {
        let src = "use std::sync::Mutex;\nfn f() { let _ = Mutex::new(0u32); }\n";
        assert_eq!(rules("crates/storage/src/x.rs", src), vec![Rule::RawSync]);
    }

    #[test]
    fn raw_sync_in_import_group_is_caught() {
        let src = "use std::sync::{Arc, Mutex, RwLock};\nfn f() {}\n";
        let got = rules("crates/query/src/x.rs", src);
        assert_eq!(got, vec![Rule::RawSync, Rule::RawSync], "Mutex and RwLock, not Arc");
    }

    #[test]
    fn inline_raw_condvar_path_is_caught() {
        let src = "struct S {\n    cv: std::sync::Condvar,\n}\n";
        let f = lint_file("crates/cluster/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RawSync);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn parking_lot_is_caught() {
        let src = "use parking_lot::RwLock;\nfn f() { let _ = RwLock::new(0u32); }\n";
        let got = rules("crates/vector/src/x.rs", src);
        assert!(got.contains(&Rule::RawSync), "{got:?}");
    }

    #[test]
    fn arc_once_lock_atomics_and_mpsc_pass() {
        let src = "use std::sync::{mpsc, Arc, OnceLock};\nuse std::sync::atomic::{AtomicU64, Ordering};\nfn f() { let _ = (Arc::new(0), OnceLock::<u32>::new(), AtomicU64::new(0)); }\n";
        assert!(rules("crates/common/src/x.rs", src).is_empty());
    }

    #[test]
    fn sync_home_file_is_exempt() {
        let src = "pub struct Mutex<T> { inner: std::sync::Mutex<T> }\n";
        assert!(rules("crates/common/src/sync.rs", src).is_empty());
    }

    #[test]
    fn raw_sync_applies_to_test_code_too() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    #[test]\n    fn t() { let _ = Mutex::new(0u32); }\n}\n";
        assert_eq!(rules("crates/storage/src/x.rs", src), vec![Rule::RawSync]);
    }

    #[test]
    fn raw_sync_allow_with_reason_passes_without_reason_is_caught() {
        let with = "// lint: allow(raw-sync) - vendored model checker cannot self-instrument\nuse std::sync::{Mutex, Condvar};\nfn f() {}\n";
        assert!(rules("crates/common/src/x.rs", with).is_empty());
        let without = "// lint: allow(raw-sync)\nuse std::sync::Mutex;\nfn f() {}\n";
        assert_eq!(rules("crates/common/src/x.rs", without), vec![Rule::EmptyAllowReason]);
    }

    #[test]
    fn raw_sync_in_string_or_comment_passes() {
        let src = "// std::sync::Mutex is what the wrappers wrap\nfn f() -> &'static str {\n    \"std::sync::Mutex\"\n}\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    // ---- scanner edge cases ----

    #[test]
    fn raw_strings_and_block_comments_are_stripped() {
        let src = "fn f() -> &'static str {\n    /* println!(\"no\") */\n    let s = r#\"panic!(\"not code\") Instant::now()\"#;\n    s\n}\n";
        assert!(rules("crates/query/src/x.rs", src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_lex_correctly() {
        let src = "fn f<'a>(s: &'a str) -> char {\n    let q = '\"';\n    let n = '\\n';\n    let _ = (s, n);\n    q\n}\nfn g(v: Option<u32>) -> u32 { v.unwrap() }\n";
        // The unwrap after the tricky literals must still be found — proves
        // the lexer did not get stuck in a string state.
        assert_eq!(rules("crates/storage/src/x.rs", src), vec![Rule::PanicInLib]);
    }

    #[test]
    fn findings_carry_line_numbers() {
        let src = "fn a() {}\nfn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        let f = lint_file("crates/storage/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert_eq!(f[0].file, "crates/storage/src/x.rs");
    }

    #[test]
    fn non_crate_paths_are_skipped() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert!(rules("crates/storage/tests/x.rs", src).is_empty());
        assert!(rules("examples/src/x.rs", src).is_empty());
    }

    // ---- rule 9: metric names ----

    const NAMES_SRC: &str = "//! metrics\npub const NAMES: &[&str] = &[\n    \
                             \"query.executed\",\n    \"query.slo\",\n];\n";

    /// The table, one library file registering both of its names, and `extra`.
    fn metric_sources(extra: &str) -> Vec<(String, String)> {
        let both = "fn g(m: &M) {\n    m.counter(\"query.executed\").inc();\n    \
                    m.histogram(\"query.slo\");\n}\n";
        vec![
            ("crates/common/src/metrics.rs".to_string(), NAMES_SRC.to_string()),
            ("crates/query/src/lib.rs".to_string(), both.to_string()),
            ("crates/query/src/exec.rs".to_string(), extra.to_string()),
        ]
    }

    #[test]
    fn metric_names_table_parses() {
        let names = parse_metric_names(NAMES_SRC).unwrap();
        assert_eq!(names, vec!["query.executed", "query.slo"]);
        assert!(parse_metric_names("fn f() {}").is_none());
    }

    #[test]
    fn metric_names_catches_seeded_typo() {
        // "query.exeucted" is a transposition of a registered name.
        let src = "fn f(m: &M) { m.counter(\"query.exeucted\").inc(); }\n";
        let f = check_metric_names(&metric_sources(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::MetricNames);
        assert_eq!(f[0].line, 1);
        assert!(f[0].msg.contains("query.exeucted"), "{}", f[0].msg);
    }

    #[test]
    fn metric_names_accepts_registered_and_labeled() {
        let src = "fn f(m: &M) {\n    m.counter(\"query.executed\").inc();\n    \
                   m.histogram_with_labels(\"query.slo\", &[(\"kind\", k)]);\n}\n";
        assert!(check_metric_names(&metric_sources(src)).is_empty());
    }

    #[test]
    fn metric_names_skips_dynamic_tests_and_comments() {
        let src = "fn f(m: &M, n: &str) {\n    m.counter(n).inc();\n    \
                   m.counter(&format!(\"kernel.tier.{t}\")).inc();\n    \
                   // m.counter(\"not.a.metric\")\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   m.counter(\"test.only.name\").inc();\n    }\n}\n";
        assert!(check_metric_names(&metric_sources(src)).is_empty());
    }

    #[test]
    fn metric_names_requires_the_table() {
        let f = check_metric_names(&[(
            "crates/query/src/exec.rs".to_string(),
            "fn f() {}".to_string(),
        )]);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("must exist"), "{}", f[0].msg);
        let f = check_metric_names(&[(
            "crates/common/src/metrics.rs".to_string(),
            "fn f() {}".to_string(),
        )]);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("NAMES"), "{}", f[0].msg);
    }

    #[test]
    fn metric_names_exempts_harness_crates() {
        let mut sources = metric_sources("fn f() {}");
        sources.push((
            "crates/bench/src/harness.rs".to_string(),
            "fn f(m: &M) { m.counter(\"bench.only\").inc(); }".to_string(),
        ));
        assert!(check_metric_names(&sources).is_empty());
    }

    #[test]
    fn metric_names_catches_seeded_unregistered_entry() {
        // "query.slo" is in the table, but only a test and a harness crate
        // register it: no library site does.
        let lib = "fn f(m: &M) { m.counter(\"query.executed\").inc(); }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   m.histogram(\"query.slo\");\n    }\n}\n";
        let sources = vec![
            ("crates/common/src/metrics.rs".to_string(), NAMES_SRC.to_string()),
            ("crates/query/src/exec.rs".to_string(), lib.to_string()),
            (
                "crates/bench/src/harness.rs".to_string(),
                "fn f(m: &M) { m.histogram(\"query.slo\"); }".to_string(),
            ),
        ];
        let f = check_metric_names(&sources);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::MetricNames);
        assert_eq!((f[0].file.as_str(), f[0].line), ("crates/common/src/metrics.rs", 4));
        let msg = &f[0].msg;
        assert!(msg.contains("\"query.slo\"") && msg.contains("no library"), "{msg}");
    }

    // ---- the tree this lint lands in must be clean ----

    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("xtask lives at <root>/crates/xtask");
        let findings = lint_workspace(root).expect("workspace walk");
        for f in &findings {
            eprintln!("{f}");
        }
        assert!(findings.is_empty(), "{} lint findings in workspace", findings.len());
    }
}
