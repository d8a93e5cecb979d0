//! `cargo xtask bench-diff` — compare freshly generated benchmark JSON
//! against the committed `BENCH_*.json` files at the workspace root.
//!
//! Benchmark harnesses (e.g. `cargo bench -p bh-bench --bench pq_fastscan`)
//! drop their results into `target/bench-fresh/BENCH_<name>.json` using the
//! same schema as the committed file. This task walks both JSON trees in
//! lockstep and compares every numeric latency field — any key ending in
//! `_ns` or `_ns_per_row` (lower is better) — reporting the relative change.
//! A fresh value more than `threshold` percent *slower* than the committed
//! one is a regression and fails the task.
//!
//! Deterministic work counts (`index_build`'s k-means counters
//! `lloyd_iters`, `seed_rounds` and `point_centroid_evals`) are compared
//! exactly: any difference, in either direction, is reported as `MOVED` and
//! fails the task. An intended move means re-committing the file.
//!
//! Other fields (`speedup`, recall, other counts) are ignored: those derived
//! from latencies would double-count them. Committed files with no fresh
//! counterpart are skipped with a note (not every harness runs on every
//! machine), as are fresh files with no committed baseline (a new benchmark
//! has nothing to regress against).
//!
//! Like the rest of xtask this is dependency-free: it carries its own
//! minimal JSON reader rather than pulling `serde_json` into the
//! bootstrap path.

use std::fmt;
use std::fs;
use std::path::Path;

/// Default regression gate: fresh latency > committed × (1 + 15%).
pub const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

/// One latency-field or work-count comparison between a fresh and a
/// committed file.
pub struct Comparison {
    /// `file :: json.path.to.field` (array elements labelled by their
    /// identifying fields where present).
    pub path: String,
    pub committed: f64,
    pub fresh: f64,
    /// Relative change in percent; positive = slower (for throughput
    /// fields the sign is already inverted so this convention holds).
    pub change_pct: f64,
    pub regressed: bool,
    /// Display unit of the raw values: "ns" for latency, "qps" for
    /// throughput, "count" for an exact work count (regressed = moved).
    pub unit: &'static str,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match (self.regressed, self.unit) {
            (false, _) => "ok",
            (true, "count") => "MOVED",
            (true, _) => "REGRESSED",
        };
        write!(
            f,
            "{:9} {:+7.1}%  {:>10.1} -> {:>10.1} {}  {}",
            tag, self.change_pct, self.committed, self.fresh, self.unit, self.path
        )
    }
}

/// Compare every `BENCH_*.json` in `fresh_dir` against its committed
/// counterpart directly under `root`. Returns all latency comparisons plus
/// human-readable notes for skipped files.
pub fn diff_benchmarks(
    root: &Path,
    fresh_dir: &Path,
    threshold_pct: f64,
) -> Result<(Vec<Comparison>, Vec<String>), String> {
    let mut comparisons = Vec::new();
    let mut notes = Vec::new();
    if !fresh_dir.is_dir() {
        notes.push(format!(
            "no fresh results: {} does not exist (run a bench harness first)",
            fresh_dir.display()
        ));
        return Ok((comparisons, notes));
    }
    let mut entries: Vec<_> = fs::read_dir(fresh_dir)
        .map_err(|e| format!("read {}: {e}", fresh_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    entries.sort();
    if entries.is_empty() {
        notes.push(format!("no BENCH_*.json files in {}", fresh_dir.display()));
        return Ok((comparisons, notes));
    }
    for fresh_path in entries {
        let name = fresh_path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let committed_path = root.join(name);
        if !committed_path.is_file() {
            notes.push(format!("{name}: no committed baseline at workspace root, skipping"));
            continue;
        }
        let committed = load_json(&committed_path)?;
        let fresh = load_json(&fresh_path)?;
        let before = comparisons.len();
        walk(name, &committed, &fresh, threshold_pct, &mut comparisons);
        if comparisons.len() == before {
            notes.push(format!("{name}: no matching latency fields found"));
        }
    }
    Ok((comparisons, notes))
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Latency fields are minimized; everything else (speedups, recalls, row
/// counts, dates) is ignored.
fn is_latency_key(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with("_ns_per_row") || key.ends_with("_ns_per_op")
}

/// Work counts a deterministic build repeats exactly.
fn is_exact_key(key: &str) -> bool {
    matches!(key, "lloyd_iters" | "seed_rounds" | "point_centroid_evals")
}

/// Throughput fields are maximized: the regression direction inverts
/// (fresh *lower* than committed is the slowdown).
fn is_throughput_key(key: &str) -> bool {
    key.ends_with("_qps")
}

/// Walk committed and fresh trees in lockstep. Objects match by key, arrays
/// by index (benchmark files keep a stable case order); mismatched shapes
/// are silently skipped — the diff only speaks about fields both sides have.
fn walk(path: &str, committed: &Json, fresh: &Json, threshold_pct: f64, out: &mut Vec<Comparison>) {
    match (committed, fresh) {
        (Json::Obj(ck), Json::Obj(fk)) => {
            for (key, cv) in ck {
                if let Some((_, fv)) = fk.iter().find(|(k, _)| k == key) {
                    if let (Json::Num(c), Json::Num(f)) = (cv, fv) {
                        if is_latency_key(key) && *c > 0.0 {
                            let change_pct = (f - c) / c * 100.0;
                            out.push(Comparison {
                                path: format!("{path}.{key}"),
                                committed: *c,
                                fresh: *f,
                                change_pct,
                                regressed: change_pct > threshold_pct,
                                unit: "ns",
                            });
                        } else if is_throughput_key(key) && *f > 0.0 {
                            // Throughput inverts: report the slowdown implied
                            // by the rate change, positive = slower, so one
                            // sign convention covers both field families.
                            let change_pct = (c / f - 1.0) * 100.0;
                            out.push(Comparison {
                                path: format!("{path}.{key}"),
                                committed: *c,
                                fresh: *f,
                                change_pct,
                                regressed: change_pct > threshold_pct,
                                unit: "qps",
                            });
                        } else if is_exact_key(key) {
                            out.push(Comparison {
                                path: format!("{path}.{key}"),
                                committed: *c,
                                fresh: *f,
                                change_pct: (f - c) / c.max(1.0) * 100.0,
                                regressed: f != c,
                                unit: "count",
                            });
                        }
                    } else {
                        walk(&format!("{path}.{key}"), cv, fv, threshold_pct, out);
                    }
                }
            }
        }
        (Json::Arr(ca), Json::Arr(fa)) => {
            for (i, (cv, fv)) in ca.iter().zip(fa).enumerate() {
                let label = element_label(cv).unwrap_or_else(|| i.to_string());
                walk(&format!("{path}[{label}]"), cv, fv, threshold_pct, out);
            }
        }
        _ => {}
    }
}

/// Human-readable label for an array element: its identifying fields
/// (`kernel`/`name`/`case` plus `dim`) when it is an object that has them.
fn element_label(v: &Json) -> Option<String> {
    let Json::Obj(kv) = v else { return None };
    let get = |want: &str| {
        kv.iter().find(|(k, _)| k == want).map(|(_, v)| match v {
            Json::Str(s) => s.clone(),
            Json::Num(n) => format!("{n}"),
            _ => String::new(),
        })
    };
    let id = get("kernel").or_else(|| get("name")).or_else(|| get("case"))?;
    match get("dim") {
        Some(d) => Some(format!("{id},dim={d}")),
        None => Some(id),
    }
}

// ------------------------------------------------------------- mini JSON

/// Just enough JSON to read the benchmark files.
pub enum Json {
    Null,
    // The diff only reads numbers; the bool value is parsed for
    // completeness but never inspected.
    Bool(#[allow(dead_code)] bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b.get(self.i).copied().ok_or_else(|| "unexpected end of JSON".to_string())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected '{}' at byte {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.keyword("null", Json::Null),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        c => return Err(format!("bad array separator '{}'", c as char)),
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        c => return Err(format!("bad object separator '{}'", c as char)),
                    }
                }
            }
            _ => {
                self.skip_ws();
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                let lit = std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|e| e.to_string())?;
                lit.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{lit}'"))
            }
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c if c >= 0x80 => {
                    // Copy the full UTF-8 sequence through.
                    let start = self.i - 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
                c => out.push(c as char),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(dir: &Path, name: &str, body: &str) {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join(name), body).unwrap();
    }

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bh-bench-diff-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn flags_regressions_over_threshold_only() {
        let root = tmp_root("flags");
        let fresh = root.join("fresh");
        fixture(
            &root,
            "BENCH_x.json",
            r#"{"cases":[{"kernel":"l2","dim":128,"scalar_ns":100.0,"fast_ns":10.0,"speedup":10.0}]}"#,
        );
        fixture(
            &fresh,
            "BENCH_x.json",
            r#"{"cases":[{"kernel":"l2","dim":128,"scalar_ns":105.0,"fast_ns":20.0,"speedup":5.2}]}"#,
        );
        let (cmp, _) = diff_benchmarks(&root, &fresh, 15.0).unwrap();
        // Two latency fields compared; speedup ignored.
        assert_eq!(cmp.len(), 2);
        let scalar = cmp.iter().find(|c| c.path.contains("scalar_ns")).unwrap();
        let fast = cmp.iter().find(|c| c.path.contains("fast_ns")).unwrap();
        assert!(!scalar.regressed, "+5% is under the 15% gate");
        assert!(fast.regressed, "+100% must regress");
        assert!(fast.path.contains("l2,dim=128"), "path was {}", fast.path);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn throughput_keys_invert_regression_direction() {
        let root = tmp_root("qps");
        let fresh = root.join("fresh");
        fixture(
            &root,
            "BENCH_b.json",
            r#"{"results":[{"batch":8,"sequential_qps":1000.0,"batched_qps":4000.0,"op_ns_per_op":50.0}]}"#,
        );
        fixture(
            &fresh,
            "BENCH_b.json",
            r#"{"results":[{"batch":8,"sequential_qps":1100.0,"batched_qps":2000.0,"op_ns_per_op":80.0}]}"#,
        );
        let (cmp, _) = diff_benchmarks(&root, &fresh, 15.0).unwrap();
        assert_eq!(cmp.len(), 3);
        let seq = cmp.iter().find(|c| c.path.contains("sequential_qps")).unwrap();
        let bat = cmp.iter().find(|c| c.path.contains("batched_qps")).unwrap();
        let op = cmp.iter().find(|c| c.path.contains("op_ns_per_op")).unwrap();
        assert!(!seq.regressed, "faster throughput must not regress");
        assert!(seq.change_pct < 0.0, "sign convention: faster is negative");
        assert!(bat.regressed, "halved throughput must regress");
        assert!((bat.change_pct - 100.0).abs() < 1e-9, "4000->2000 qps is a +100% slowdown");
        assert_eq!(bat.unit, "qps");
        assert!(op.regressed, "_ns_per_op is a latency key; +60% must regress");
        assert_eq!(op.unit, "ns");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_work_count_that_moves_either_way_fails() {
        let root = tmp_root("exact");
        let fresh = root.join("fresh");
        let row = |evals: u32| {
            format!(
                r#"{{"build":[{{"kind":"IVFPQFS","train_ns_per_row":10.0,"lloyd_iters":25,"seed_rounds":16,"point_centroid_evals":{evals},"rows":512}}]}}"#
            )
        };
        fixture(&root, "BENCH_build.json", &row(1000));
        for (evals, moved) in [(1000, false), (1001, true), (999, true)] {
            fixture(&fresh, "BENCH_build.json", &row(evals));
            let (cmp, _) = diff_benchmarks(&root, &fresh, 15.0).unwrap();
            // One latency field and three exact counts; `rows` is ignored.
            assert_eq!(cmp.len(), 4);
            let evals = cmp.iter().find(|c| c.path.ends_with("point_centroid_evals")).unwrap();
            assert_eq!(evals.regressed, moved, "{evals}");
            assert_eq!(evals.to_string().starts_with("MOVED"), moved, "{evals}");
            assert_eq!(cmp.iter().filter(|c| c.regressed).count(), usize::from(moved));
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_baseline_or_fresh_dir_is_a_note_not_an_error() {
        let root = tmp_root("missing");
        let (cmp, notes) = diff_benchmarks(&root, &root.join("nope"), 15.0).unwrap();
        assert!(cmp.is_empty());
        assert_eq!(notes.len(), 1);
        let fresh = root.join("fresh");
        fixture(&fresh, "BENCH_new.json", r#"{"a_ns": 1.0}"#);
        let (cmp, notes) = diff_benchmarks(&root, &fresh, 15.0).unwrap();
        assert!(cmp.is_empty());
        assert!(notes[0].contains("no committed baseline"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn parser_reads_committed_bench_schema() {
        let v = parse_json(
            r#"{"benchmark":"x","machine":{"cores":1},"rows":[{"dim":64,"scalar_ns":40.8}],"ok":true,"none":null}"#,
        )
        .unwrap();
        let Json::Obj(kv) = v else { panic!("expected object") };
        assert_eq!(kv.len(), 5);
        assert!(matches!(kv.iter().find(|(k, _)| k == "ok"), Some((_, Json::Bool(true)))));
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{\"a\": }").is_err());
    }
}
