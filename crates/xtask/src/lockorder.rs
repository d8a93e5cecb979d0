//! Rule 8: cross-crate lock-order static analysis (`lock-order`).
//!
//! The runtime half of the lock discipline (`bh_common::sync`) panics on the
//! first *executed* rank inversion; this pass finds inversions the test suite
//! never executes. It rebuilds the class-level acquisition graph from source:
//!
//! 1. parse the one in-tree rank table out of `crates/common/src/sync.rs`
//!    (the `lock_rank_table!` invocation — names and ranks);
//! 2. map lock *fields* to classes at their construction sites
//!    (`Mutex::new(&classes::NAME, ..)` / `RwLock::new(&classes::NAME, ..)`);
//! 3. walk every function's code channel tracking which guards are live
//!    (let-bound guards until their block closes or `drop(g)`, temporaries
//!    until the end of their statement) and record an edge `held -> acquired`
//!    for every acquisition nested inside another;
//! 4. merge the edges from all crates into one graph and fail on any edge
//!    that does not strictly increase in rank, plus any cycle.
//!
//! The tracker is deliberately an over-approximation of *syntactic* nesting
//! within one function: it does not follow calls (a callee's locks are its
//! own edges) and it may hold a `let`-bound guard slightly longer than NLL
//! would. It resolves receivers through the per-file field map, so locks it
//! cannot attribute to a class (locals, foreign fields) are skipped rather
//! than guessed. `#[cfg(test)]` regions are exempt — tests seed deliberate
//! inversions to prove the runtime catches them.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::lint::{allow_reason_missing, allowed, sanitize, test_mask, Finding, LineView, Rule};

/// The lock-rank table parsed from `bh_common::sync`.
#[derive(Debug, Default)]
pub struct RankTable {
    ranks: BTreeMap<String, u32>,
}

impl RankTable {
    pub fn rank(&self, class: &str) -> Option<u32> {
        self.ranks.get(class).copied()
    }

    /// Number of classes in the table (test-only diagnostics).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.ranks.len()
    }
}

/// Parse the `lock_rank_table! { NAME = rank, .. }` invocation out of the
/// sync module's source. Returns `None` when no invocation is found (the
/// macro *definition* arms use parentheses and are skipped).
pub fn parse_rank_table(sync_src: &str) -> Option<RankTable> {
    let lines = sanitize(sync_src);
    let mut table = RankTable::default();
    let mut in_body = false;
    for view in &lines {
        let code = view.code.trim();
        if !in_body {
            if let Some(pos) = code.find("lock_rank_table!") {
                let rest = code[pos + "lock_rank_table!".len()..].trim_start();
                if rest.starts_with('{') {
                    in_body = true;
                }
            }
            continue;
        }
        if code.starts_with('}') {
            break;
        }
        let entry = code.trim_end_matches(',');
        if let Some((name, rank)) = entry.split_once('=') {
            let name = name.trim();
            let rank = rank.trim();
            if !name.is_empty()
                && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            {
                if let Ok(r) = rank.parse::<u32>() {
                    table.ranks.insert(name.to_string(), r);
                }
            }
        }
    }
    (!table.ranks.is_empty()).then_some(table)
}

// ------------------------------------------------------------ per-file scan

/// A nested acquisition observed in source: while a guard of `held` was
/// live, a lock of class `acquired` was taken at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: usize,
}

/// Join the code channel into one scannable text with line-start offsets.
fn join_code(lines: &[LineView]) -> (String, Vec<usize>) {
    let mut text = String::new();
    let mut starts = Vec::with_capacity(lines.len());
    for v in lines {
        starts.push(text.len());
        text.push_str(&v.code);
        text.push('\n');
    }
    (text, starts)
}

fn line_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&s| s <= pos).saturating_sub(1)
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier ending at byte `end` (exclusive), if any.
fn ident_before(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut s = end;
    while s > 0 && is_ident(bytes[s - 1]) {
        s -= 1;
    }
    (s < end && !bytes[s].is_ascii_digit()).then(|| &text[s..end])
}

/// Map lock-carrying field/variable names to class names for one file, from
/// `Mutex::new(&..classes::NAME, ..)` construction sites. Names bound to two
/// different classes in the same file are dropped as ambiguous.
fn field_classes(
    text: &str,
    starts: &[usize],
    tests: &[bool],
    table: &RankTable,
) -> HashMap<String, String> {
    let bytes = text.as_bytes();
    let mut map: HashMap<String, String> = HashMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for ctor in ["Mutex::new(", "RwLock::new("] {
        let mut from = 0usize;
        while let Some(pos) = text[from..].find(ctor) {
            let at = from + pos;
            from = at + ctor.len();
            // `Mutex` must be a whole path segment, not e.g. `MyMutex`.
            if at > 0 && is_ident(bytes[at - 1]) {
                continue;
            }
            if tests[line_of(starts, at)] {
                continue;
            }
            // First argument must be `&<path>::classes::NAME`.
            let mut j = at + ctor.len();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) != Some(&b'&') {
                continue;
            }
            j += 1;
            let mut segs: Vec<&str> = Vec::new();
            loop {
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                let s = j;
                while j < bytes.len() && is_ident(bytes[j]) {
                    j += 1;
                }
                if j == s {
                    break;
                }
                segs.push(&text[s..j]);
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if text[j..].starts_with("::") {
                    j += 2;
                } else {
                    break;
                }
            }
            let class = match segs.as_slice() {
                [.., parent, name] if *parent == "classes" => *name,
                _ => continue,
            };
            if table.rank(class).is_none() {
                continue;
            }
            // The name this lock is bound to: walk back over the constructor
            // path (`bh_common::sync::Mutex`), then either `name =` (a let or
            // assignment) or the nearest `field:` going left.
            let mut p = at;
            loop {
                let before = text[..p].trim_end();
                if !before.ends_with("::") {
                    break;
                }
                let upto = text[..before.len() - 2].trim_end();
                match ident_before(upto, upto.len()) {
                    Some(seg) => p = upto.len() - seg.len(),
                    None => break,
                }
            }
            let prefix = text[..p].trim_end();
            let name = if let Some(lhs) = prefix.strip_suffix('=') {
                let lhs = lhs.trim_end();
                ident_before(lhs, lhs.len()).map(str::to_string)
            } else {
                nearest_field_name(prefix)
            };
            let Some(name) = name else { continue };
            match map.get(&name) {
                Some(existing) if existing != class => {
                    ambiguous.insert(name.clone());
                }
                _ => {
                    map.insert(name, class.to_string());
                }
            }
        }
    }
    for name in ambiguous {
        map.remove(&name);
    }
    map
}

/// Nearest `ident:` (single colon) scanning left in `prefix`, bounded to the
/// current statement-ish region. Handles construction sites nested in
/// expressions, e.g. `slots: (0..n).map(|_| Mutex::new(..)).collect()`.
fn nearest_field_name(prefix: &str) -> Option<String> {
    let bytes = prefix.as_bytes();
    let lo = prefix.len().saturating_sub(300);
    let mut i = prefix.len();
    while i > lo {
        i -= 1;
        if bytes[i] == b';' {
            return None;
        }
        if bytes[i] != b':' {
            continue;
        }
        // Skip `::` path separators.
        if i > 0 && bytes[i - 1] == b':' {
            i -= 1;
            continue;
        }
        if prefix[i + 1..].trim_start().starts_with(':') {
            continue;
        }
        let end = prefix[..i].trim_end().len();
        return ident_before(prefix, end).map(str::to_string);
    }
    None
}

/// One live guard on the tracker's stack.
#[derive(Debug)]
struct LiveGuard {
    class: String,
    /// Brace depth at acquisition.
    depth: usize,
    /// Variable the guard is bound to (for `drop(var)`).
    var: Option<String>,
    /// Temporary (statement-scoped) rather than let-bound.
    temp: bool,
}

const ACQ_TOKENS: &[&str] =
    &[".lock_checked()", ".read_checked()", ".write_checked()", ".lock()", ".read()", ".write()"];

/// Scan one file and append its nested-acquisition edges.
#[allow(clippy::too_many_arguments)]
fn scan_file(
    rel: &str,
    lines: &[LineView],
    text: &str,
    starts: &[usize],
    tests: &[bool],
    fields: &HashMap<String, String>,
    edges: &mut BTreeSet<Edge>,
    findings: &mut Vec<Finding>,
) {
    let bytes = text.as_bytes();
    let mut stack: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                // Let-bound guards die with their block; temporaries die when
                // their compound statement (`if let`, `match`, closure arg)
                // returns to their depth.
                stack.retain(|g| if g.temp { g.depth < depth } else { g.depth <= depth });
                i += 1;
            }
            b';' => {
                stack.retain(|g| !(g.temp && g.depth >= depth));
                i += 1;
            }
            b'd' if text[i..].starts_with("drop")
                && (i == 0 || !is_ident(bytes[i - 1]))
                && !is_ident(*bytes.get(i + 4).unwrap_or(&b' ')) =>
            {
                // `drop(var)` releases the named guard.
                let mut j = i + 4;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'(') {
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    let s = j;
                    while j < bytes.len() && is_ident(bytes[j]) {
                        j += 1;
                    }
                    let var = &text[s..j];
                    if !var.is_empty() {
                        if let Some(at) =
                            stack.iter().rposition(|g| g.var.as_deref() == Some(var))
                        {
                            stack.remove(at);
                        }
                    }
                }
                i += 4;
            }
            b'.' => {
                let Some(tok) = ACQ_TOKENS.iter().find(|t| text[i..].starts_with(**t)) else {
                    i += 1;
                    continue;
                };
                let line = line_of(starts, i);
                if tests[line] {
                    i += tok.len();
                    continue;
                }
                let Some(class) = receiver_class(text, i, fields) else {
                    i += tok.len();
                    continue;
                };
                if allowed(lines, line, "lock-order") {
                    if let Some(at) = allow_reason_missing(lines, line, "lock-order") {
                        findings.push(Finding {
                            file: rel.to_string(),
                            line: at + 1,
                            rule: Rule::EmptyAllowReason,
                            msg: "`lint: allow(lock-order)` must state why this nesting \
                                  cannot deadlock"
                                .into(),
                        });
                    }
                    i += tok.len();
                    continue;
                }
                for held in &stack {
                    edges.insert(Edge {
                        held: held.class.clone(),
                        acquired: class.clone(),
                        file: rel.to_string(),
                        line: line + 1,
                    });
                }
                let (temp, var) = binding_of(text, i, tok.len());
                stack.push(LiveGuard { class, depth, var, temp });
                i += tok.len();
            }
            _ => i += 1,
        }
    }
}

/// Resolve the receiver of an acquisition at `dot` (the `.` of `.lock()`)
/// to a lock class: the trailing identifier of the receiver chain, looked up
/// in the file's field map. `self.slots[i].lock()` resolves through the
/// index expression to `slots`.
fn receiver_class(text: &str, dot: usize, fields: &HashMap<String, String>) -> Option<String> {
    let bytes = text.as_bytes();
    let mut p = dot;
    while p > 0 && bytes[p - 1].is_ascii_whitespace() {
        p -= 1;
    }
    if p > 0 && bytes[p - 1] == b']' {
        let mut depth = 0usize;
        while p > 0 {
            p -= 1;
            match bytes[p] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let ident = ident_before(text, p)?;
    fields.get(ident).cloned()
}

/// Classify an acquisition as let-bound (held to end of block) or temporary
/// (held to end of statement), and name its binding when let-bound. A guard
/// is only block-scoped when the acquisition is the *entire* right-hand side
/// of a `let` or assignment — `let g = m.lock();` binds the guard, while
/// `let n = m.lock().len();` binds the length and drops the guard at `;`.
fn binding_of(text: &str, dot: usize, tok_len: usize) -> (bool, Option<String>) {
    let bytes = text.as_bytes();
    let mut j = dot + tok_len;
    if bytes.get(j) == Some(&b'?') {
        j += 1;
    }
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if bytes.get(j) != Some(&b';') {
        return (true, None);
    }
    // Statement prefix: back to the previous `;`, `{` or `}`.
    let stmt = text[..dot]
        .rfind([';', '{', '}'])
        .map(|s| &text[s + 1..dot])
        .unwrap_or(&text[..dot]);
    let has = |needle: &str| {
        let mut from = 0;
        while let Some(pos) = stmt[from..].find(needle) {
            let at = from + pos;
            let l_ok = at == 0 || !is_ident(stmt.as_bytes()[at - 1]);
            let r_ok = !stmt.as_bytes().get(at + needle.len()).copied().map(is_ident).unwrap_or(false);
            if l_ok && r_ok {
                return Some(at);
            }
            from = at + needle.len();
        }
        None
    };
    // `if let` / `while let` / `match` scrutinee temporaries are statement
    // scoped, not block scoped (and `;` never directly follows them anyway).
    if has("if").is_some() || has("while").is_some() || has("match").is_some() {
        return (true, None);
    }
    if let Some(at) = has("let") {
        let mut rest = stmt[at + 3..].trim_start();
        rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let end = rest.bytes().position(|b| !is_ident(b)).unwrap_or(rest.len());
        if end > 0 {
            return (false, Some(rest[..end].to_string()));
        }
        return (false, None);
    }
    // Plain re-assignment: `g = m.lock();`.
    if let Some(eq) = stmt.find('=') {
        let lhs = stmt[..eq].trim();
        if !lhs.is_empty() && lhs.bytes().all(is_ident) {
            return (false, Some(lhs.to_string()));
        }
    }
    (true, None)
}

// ------------------------------------------------------------------- verdict

/// Run the full analysis over `(rel_path, content)` pairs.
pub fn check(files: &[(String, String)], table: &RankTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    for (rel, content) in files {
        if rel == "crates/common/src/sync.rs" {
            continue; // the wrappers' own internals have no classes
        }
        let lines = sanitize(content);
        let tests = test_mask(&lines);
        let (text, starts) = join_code(&lines);
        let fields = field_classes(&text, &starts, &tests, table);
        if fields.is_empty() {
            // Receivers resolve through this file's construction sites; with
            // none mapped, no acquisition here can be attributed to a class.
            continue;
        }
        scan_file(rel, &lines, &text, &starts, &tests, &fields, &mut edges, &mut findings);
    }

    // Rank check: every recorded nesting must strictly increase.
    for e in &edges {
        let (Some(rh), Some(ra)) = (table.rank(&e.held), table.rank(&e.acquired)) else {
            continue;
        };
        if e.held == e.acquired {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::LockOrder,
                msg: format!(
                    "lock-order inversion: `{}` acquired while a guard of the same class \
                     is already held (self-deadlock)",
                    e.acquired
                ),
            });
        } else if rh >= ra {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::LockOrder,
                msg: format!(
                    "lock-order inversion: `{}` (rank {ra}) acquired while `{}` (rank {rh}) \
                     is held; nested acquisitions must strictly increase in rank \
                     (bh_common::sync rank table)",
                    e.acquired, e.held
                ),
            });
        }
    }

    // Cycle check over the merged graph: a backstop that also catches
    // multi-edge cycles assembled from different functions and crates.
    findings.extend(find_cycles(&edges));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Report each class-level cycle in the acquisition graph once.
fn find_cycles(edges: &BTreeSet<Edge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        if e.held != e.acquired {
            adj.entry(e.held.as_str()).or_default().push(e);
        }
    }
    let mut findings = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        if done.contains(start) {
            continue;
        }
        // DFS looking for a path back to `start`.
        let mut path: Vec<&Edge> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        if dfs_cycle(start, start, &adj, &mut seen, &mut path) {
            let mut names: Vec<&str> = path.iter().map(|e| e.held.as_str()).collect();
            names.push(start);
            let site = path.last().expect("non-empty cycle path");
            findings.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: Rule::LockOrder,
                msg: format!("lock-order cycle: {}", names.join(" -> ")),
            });
            for e in &path {
                done.insert(e.held.as_str());
            }
        }
        done.insert(start);
    }
    findings
}

fn dfs_cycle<'a>(
    at: &'a str,
    target: &str,
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    seen: &mut BTreeSet<&'a str>,
    path: &mut Vec<&'a Edge>,
) -> bool {
    if !seen.insert(at) {
        return false;
    }
    for e in adj.get(at).map(Vec::as_slice).unwrap_or(&[]) {
        path.push(e);
        if e.acquired == target || dfs_cycle(e.acquired.as_str(), target, adj, seen, path) {
            return true;
        }
        path.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const TABLE_SRC: &str = "
lock_rank_table! {
    /// Catalog of tables.
    DB_TABLES = 100,
    TABLE_WRITER = 300,
    TABLE_VERSION = 310,
    METRICS_COUNTERS = 850,
}
";

    fn table() -> RankTable {
        parse_rank_table(TABLE_SRC).expect("fixture table parses")
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(String, String)> =
            files.iter().map(|(r, c)| (r.to_string(), c.to_string())).collect();
        check(&files, &table())
    }

    #[test]
    fn rank_table_parses_names_and_ranks() {
        let t = table();
        assert_eq!(t.len(), 4);
        assert_eq!(t.rank("TABLE_VERSION"), Some(310));
        assert_eq!(t.rank("DB_TABLES"), Some(100));
        assert_eq!(t.rank("NOPE"), None);
    }

    #[test]
    fn real_rank_table_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("xtask lives at <root>/crates/xtask");
        let src = std::fs::read_to_string(root.join("crates/common/src/sync.rs"))
            .expect("sync.rs readable");
        let t = parse_rank_table(&src).expect("real rank table parses");
        assert!(t.len() >= 20, "expected the full rank table, got {}", t.len());
        assert_eq!(t.rank("TABLE_VERSION"), Some(310));
        assert_eq!(t.rank("IDXCACHE_PENDING"), Some(410));
    }

    const LEGAL: &str = "
struct Db { tables: RwLock<u32>, segments: RwLock<u32> }
impl Db {
    fn new() -> Self {
        Db {
            tables: RwLock::new(&classes::DB_TABLES, 0),
            segments: RwLock::new(&classes::TABLE_VERSION, 0),
        }
    }
    fn ordered(&self) {
        let t = self.tables.read();
        let s = self.segments.write();
        let _ = (t, s);
    }
}
";

    #[test]
    fn rank_increasing_nesting_is_clean() {
        assert!(run(&[("crates/core/src/db.rs", LEGAL)]).is_empty());
    }

    /// The seeded-inversion fixture ISSUE 8 requires: an ABBA pair across two
    /// functions must produce both an inversion finding (naming both classes
    /// and ranks) and a cycle finding.
    #[test]
    fn seeded_abba_inversion_is_caught() {
        let seeded = "
struct Db { tables: RwLock<u32>, segments: RwLock<u32> }
impl Db {
    fn new() -> Self {
        Db {
            tables: RwLock::new(&classes::DB_TABLES, 0),
            segments: RwLock::new(&classes::TABLE_VERSION, 0),
        }
    }
    fn ab(&self) {
        let t = self.tables.read();
        let s = self.segments.write();
        let _ = (t, s);
    }
    fn ba(&self) {
        let s = self.segments.write();
        let t = self.tables.read();
        let _ = (s, t);
    }
}
";
        let findings = run(&[("crates/core/src/db.rs", seeded)]);
        let inversion = findings
            .iter()
            .find(|f| f.msg.contains("inversion"))
            .expect("seeded ABBA must raise an inversion");
        assert_eq!(inversion.rule, Rule::LockOrder);
        assert!(inversion.msg.contains("DB_TABLES"), "{}", inversion.msg);
        assert!(inversion.msg.contains("TABLE_VERSION"), "{}", inversion.msg);
        assert!(inversion.msg.contains("rank 100"), "{}", inversion.msg);
        assert!(inversion.msg.contains("rank 310"), "{}", inversion.msg);
        assert!(
            findings.iter().any(|f| f.msg.contains("cycle")),
            "ABBA edges must also close a cycle: {findings:?}"
        );
    }

    #[test]
    fn cross_file_cycle_is_assembled_from_single_edges() {
        // Each file's nesting is locally plausible; only the merged graph
        // has the A->B (legal) + B->A (inverted) pair.
        let ab = "
struct X { a: Mutex<u32>, b: Mutex<u32> }
impl X {
    fn new() -> Self {
        X { a: Mutex::new(&classes::DB_TABLES, 0), b: Mutex::new(&classes::TABLE_VERSION, 0) }
    }
    fn f(&self) { let g = self.a.lock(); self.b.lock().checked_add(*g); }
}
";
        let ba = "
struct Y { c: Mutex<u32>, d: Mutex<u32> }
impl Y {
    fn new() -> Self {
        Y { c: Mutex::new(&classes::TABLE_VERSION, 0), d: Mutex::new(&classes::DB_TABLES, 0) }
    }
    fn f(&self) { let g = self.c.lock(); self.d.lock().checked_add(*g); }
}
";
        let findings =
            run(&[("crates/storage/src/ab.rs", ab), ("crates/cluster/src/ba.rs", ba)]);
        assert!(findings.iter().any(|f| f.msg.contains("inversion")), "{findings:?}");
        assert!(findings.iter().any(|f| f.msg.contains("cycle")), "{findings:?}");
        // The inversion anchors in the file that takes them in the bad order.
        let inv = findings.iter().find(|f| f.msg.contains("inversion")).unwrap();
        assert_eq!(inv.file, "crates/cluster/src/ba.rs");
    }

    #[test]
    fn same_class_nesting_is_a_self_deadlock() {
        let src = "
struct X { m: Mutex<u32> }
impl X {
    fn new() -> Self { X { m: Mutex::new(&classes::DB_TABLES, 0) } }
    fn f(&self) { let g = self.m.lock(); self.m.lock().checked_add(*g); }
}
";
        let findings = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("self-deadlock"), "{}", findings[0].msg);
    }

    #[test]
    fn temporary_guard_is_released_at_statement_end() {
        let src = "
struct X { a: Mutex<u32>, b: Mutex<u32> }
impl X {
    fn new() -> Self {
        X { a: Mutex::new(&classes::TABLE_VERSION, 0), b: Mutex::new(&classes::DB_TABLES, 0) }
    }
    fn f(&self) {
        let n = self.a.lock().checked_add(1);
        let g = self.b.lock();
        let _ = (n, g);
    }
}
";
        // a's guard is a temporary dropped at `;` — no SEGMENTS->TABLES edge.
        assert!(run(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn if_let_scrutinee_guard_does_not_leak_into_following_statements() {
        // The metrics read-then-write shape: the read guard in the `if let`
        // condition is gone by the time the write happens.
        let src = "
struct M { counters: RwLock<u32> }
impl M {
    fn new() -> Self { M { counters: RwLock::new(&classes::METRICS_COUNTERS, 0) } }
    fn f(&self) -> u32 {
        if let Some(c) = self.counters.read().checked_add(1) {
            return c;
        }
        *self.counters.write()
    }
}
";
        assert!(run(&[("crates/common/src/m.rs", src)]).is_empty());
    }

    #[test]
    fn dropped_guard_stops_generating_edges() {
        let src = "
struct X { a: Mutex<u32>, b: Mutex<u32> }
impl X {
    fn new() -> Self {
        X { a: Mutex::new(&classes::TABLE_VERSION, 0), b: Mutex::new(&classes::DB_TABLES, 0) }
    }
    fn f(&self) {
        let g = self.a.lock();
        drop(g);
        let h = self.b.lock();
        let _ = h;
    }
}
";
        assert!(run(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn let_bound_guard_holds_across_statements() {
        let src = "
struct X { a: Mutex<u32>, b: Mutex<u32> }
impl X {
    fn new() -> Self {
        X { a: Mutex::new(&classes::TABLE_VERSION, 0), b: Mutex::new(&classes::DB_TABLES, 0) }
    }
    fn f(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
        let _ = (g, h);
    }
}
";
        let findings = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(findings.iter().filter(|f| f.msg.contains("inversion")).count(), 1);
    }

    #[test]
    fn checked_locks_and_wrapped_chains_resolve() {
        let src = "
struct C { inflight: Mutex<u32>, pending: Mutex<u32> }
impl C {
    fn new() -> Self {
        C {
            inflight: Mutex::new(&classes::DB_TABLES, 0),
            pending: Mutex::new(&classes::TABLE_VERSION, 0),
        }
    }
    fn f(&self) -> Result<(), ()> {
        let g = self.inflight.lock_checked()?;
        self.pending
            .lock_checked()?
            .checked_add(*g);
        Ok(())
    }
    fn inverted(&self) -> Result<(), ()> {
        let g = self.pending.lock_checked()?;
        self.inflight
            .lock_checked()?
            .checked_add(*g);
        Ok(())
    }
}
";
        let findings = run(&[("crates/storage/src/c.rs", src)]);
        assert_eq!(findings.iter().filter(|f| f.msg.contains("inversion")).count(), 1);
    }

    #[test]
    fn test_code_may_seed_inversions() {
        let src = "
struct X { a: Mutex<u32>, b: Mutex<u32> }
impl X {
    fn new() -> Self {
        X { a: Mutex::new(&classes::DB_TABLES, 0), b: Mutex::new(&classes::TABLE_VERSION, 0) }
    }
}
#[cfg(test)]
mod tests {
    #[test]
    fn deliberate_inversion() {
        let x = super::X::new();
        let g = x.b.lock();
        let h = x.a.lock();
        let _ = (g, h);
    }
}
";
        assert!(run(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_with_reason_and_flags_without() {
        let with_reason = "
struct X { a: Mutex<u32>, b: Mutex<u32> }
impl X {
    fn new() -> Self {
        X { a: Mutex::new(&classes::DB_TABLES, 0), b: Mutex::new(&classes::TABLE_VERSION, 0) }
    }
    fn f(&self) {
        let g = self.b.lock();
        // lint: allow(lock-order) - b's owner thread never takes a; proven by the vw model
        let h = self.a.lock();
        let _ = (g, h);
    }
}
";
        assert!(run(&[("crates/core/src/x.rs", with_reason)]).is_empty());
        let bare = with_reason.replace(
            " - b's owner thread never takes a; proven by the vw model",
            "",
        );
        let findings = run(&[("crates/core/src/x.rs", bare.as_str())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::EmptyAllowReason);
    }

    #[test]
    fn unmapped_receivers_are_skipped() {
        let src = "
struct X { file: std::fs::File }
impl X {
    fn f(&self, buf: &mut Vec<u8>) {
        let r = self.file.read();
        let _ = (r, buf);
    }
}
";
        assert!(run(&[("crates/storage/src/x.rs", src)]).is_empty());
    }
}
