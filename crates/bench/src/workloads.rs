//! Workload generators mirroring §V-A.
//!
//! * **VectorBench-style**: pure top-k vector search, and hybrid queries
//!   combining the search with a range filter over the random-int column at
//!   a controlled pass fraction. The paper's "1% selectivity" workload
//!   filters out 1% (pass fraction 0.99); its "99% selectivity" workload
//!   filters out 99% (pass fraction 0.01) — we name by pass fraction to
//!   avoid the ambiguity.
//! * **LAION-style**: multi-predicate queries — a regex over captions plus a
//!   range over the caption-image similarity column (threshold ≥ 0.3, per
//!   the LAION team's guidance quoted in the paper) plus vector search.
//! * **Production-style**: top-k with conjunctive ranges over several
//!   scalar columns, like the image-search service.

use crate::datasets::Dataset;
use bh_common::rng::derived_rng;
use rand::Rng;

/// One hybrid query: a vector plus optional scalar conditions, rendered as
/// SQL ([`HybridQuery::to_sql`]) and evaluated on dataset rows
/// ([`HybridQuery::passes`]).
#[derive(Debug, Clone)]
pub struct HybridQuery {
    /// The query embedding.
    pub vector: Vec<f32>,
    /// `(column, lo, hi)` inclusive ranges.
    pub ranges: Vec<(String, i64, i64)>,
    /// Regex over the caption column, if any.
    pub regex: Option<String>,
    /// Similarity-score lower bound, if any.
    pub similarity_floor: Option<f64>,
    /// Requested result count.
    pub k: usize,
}

impl HybridQuery {
    /// Render the WHERE clause (empty string when unconditioned).
    pub fn where_sql(&self) -> String {
        let mut parts = Vec::new();
        for (c, lo, hi) in &self.ranges {
            parts.push(format!("{c} BETWEEN {lo} AND {hi}"));
        }
        if let Some(re) = &self.regex {
            parts.push(format!("caption REGEXP '{re}'"));
        }
        if let Some(floor) = self.similarity_floor {
            parts.push(format!("similarity >= {floor}"));
        }
        parts.join(" AND ")
    }

    /// Does dataset row `row` pass every scalar condition of the query?
    /// `second_attr` holds the `y` column (see `setup::second_attr`); a
    /// condition on any other column passes nothing.
    pub fn passes(&self, data: &Dataset, row: usize, second_attr: Option<&[i64]>) -> bool {
        self.ranges.iter().all(|(col, lo, hi)| {
            let v = match col.as_str() {
                "x" => data.rand_int[row],
                "y" => second_attr.map_or(0, |a| a[row]),
                _ => return false,
            };
            (*lo..=*hi).contains(&v)
        }) && self.similarity_floor.is_none_or(|f| data.similarity[row] >= f)
            && self.regex.as_ref().is_none_or(|re| {
                bh_common::regex_lite::Regex::new(re)
                    .map(|r| r.is_match(&data.captions[row]))
                    .unwrap_or(false)
            })
    }

    /// Full SELECT against a BlendHouse table with columns
    /// `(id, …, emb)` and a distance alias.
    pub fn to_sql(&self, table: &str, vector_col: &str) -> String {
        let vec_lit: Vec<String> = self.vector.iter().map(|v| format!("{v}")).collect();
        let where_clause = {
            let w = self.where_sql();
            if w.is_empty() {
                String::new()
            } else {
                format!("WHERE {w} ")
            }
        };
        format!(
            "SELECT id, dist FROM {table} {where_clause}ORDER BY L2Distance({vector_col}, [{}]) AS dist LIMIT {}",
            vec_lit.join(", "),
            self.k
        )
    }
}

/// Pure top-k vector search queries.
pub fn vector_search(data: &Dataset, count: usize, k: usize, seed: u64) -> Vec<HybridQuery> {
    data.queries(count, seed)
        .into_iter()
        .map(|vector| HybridQuery {
            vector,
            ranges: Vec::new(),
            regex: None,
            similarity_floor: None,
            k,
        })
        .collect()
}

/// Hybrid queries whose random-int range passes ~`pass_fraction` of rows.
/// The attribute is uniform on `[0, 1_000_000)`, so a window of
/// `pass_fraction · 1e6` gives the desired selectivity.
pub fn filtered_search(
    data: &Dataset,
    count: usize,
    k: usize,
    pass_fraction: f64,
    seed: u64,
) -> Vec<HybridQuery> {
    let mut r = derived_rng(data.spec.seed, 0xF117E12 ^ seed);
    let width = ((1_000_000.0 * pass_fraction) as i64).clamp(1, 1_000_000);
    data.queries(count, seed)
        .into_iter()
        .map(|vector| {
            let lo = r.gen_range(0..=(1_000_000 - width) as usize) as i64;
            HybridQuery {
                vector,
                ranges: vec![("x".to_string(), lo, lo + width - 1)],
                regex: None,
                similarity_floor: None,
                k,
            }
        })
        .collect()
}

/// LAION-style multi-predicate queries (§V-A3): regex over captions built
/// from 2–10 random tokens, similarity floor at 0.3..1.0, plus the vector.
pub fn laion_search(data: &Dataset, count: usize, k: usize, seed: u64) -> Vec<HybridQuery> {
    let mut r = derived_rng(data.spec.seed, 0x1A10 ^ seed);
    let tokens = ["^[a-m]", "ing", "o", "a.", "e+", "[0-9]", "^s", "t.?r", "an", "c"];
    data.queries(count, seed)
        .into_iter()
        .map(|vector| {
            let t = &tokens[r.gen_range(0..tokens.len())];
            let floor = 0.3 + r.gen::<f64>() * 0.4;
            HybridQuery {
                vector,
                ranges: Vec::new(),
                regex: Some(t.to_string()),
                similarity_floor: Some((floor * 100.0).round() / 100.0),
                k,
            }
        })
        .collect()
}

/// Production-style queries: conjunctive ranges over several columns plus a
/// large top-k (the paper uses top-1000 on 30M rows; scaled here).
pub fn production_search(data: &Dataset, count: usize, k: usize, seed: u64) -> Vec<HybridQuery> {
    let mut r = derived_rng(data.spec.seed, 0x9180D ^ seed);
    data.queries(count, seed)
        .into_iter()
        .map(|vector| {
            // Two selective ranges: each passes ~35%, joint ~12% — the
            // multi-column filters of the production image-search service.
            let lo1 = r.gen_range(0..650_000usize) as i64;
            let lo2 = r.gen_range(0..650_000usize) as i64;
            HybridQuery {
                vector,
                ranges: vec![
                    ("x".to_string(), lo1, lo1 + 350_000),
                    ("y".to_string(), lo2, lo2 + 350_000),
                ],
                regex: None,
                similarity_floor: None,
                k,
            }
        })
        .collect()
}

/// Exact ground truth for one query over a dataset (`(row, distance)`
/// ascending) with the query's own scalar conditions applied.
pub fn ground_truth(
    data: &Dataset,
    q: &HybridQuery,
    second_attr: Option<&[i64]>,
) -> Vec<(usize, f32)> {
    let mut hits: Vec<(usize, f32)> = (0..data.n())
        .filter(|&row| q.passes(data, row, second_attr))
        .map(|row| (row, bh_vector::distance::l2_sq(&q.vector, data.vector(row))))
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1));
    hits.truncate(q.k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;

    #[test]
    fn filtered_pass_fraction_is_controlled() {
        let d = DatasetSpec::tiny().generate();
        let qs = filtered_search(&d, 20, 5, 0.5, 0);
        for q in &qs {
            let (_, lo, hi) = &q.ranges[0];
            let passing =
                d.rand_int.iter().filter(|&&v| v >= *lo && v <= *hi).count() as f64 / d.n() as f64;
            assert!((passing - 0.5).abs() < 0.15, "pass fraction {passing}");
        }
    }

    #[test]
    fn sql_rendering() {
        let d = DatasetSpec::tiny().generate();
        let q = &filtered_search(&d, 1, 7, 0.1, 0)[0];
        let sql = q.to_sql("t", "emb");
        assert!(sql.contains("WHERE x BETWEEN"));
        assert!(sql.contains("LIMIT 7"));
        assert!(sql.contains("L2Distance(emb, ["));
        // Pure vector query has no WHERE.
        let v = &vector_search(&d, 1, 3, 0)[0];
        assert!(!v.to_sql("t", "emb").contains("WHERE"));
    }

    #[test]
    fn laion_queries_have_regex_and_floor() {
        let d = DatasetSpec::tiny().generate().with_captions();
        let qs = laion_search(&d, 10, 5, 0);
        for q in &qs {
            assert!(q.regex.is_some());
            let f = q.similarity_floor.unwrap();
            assert!((0.3..0.71).contains(&f));
            assert!(q.where_sql().contains("REGEXP"));
        }
    }

    #[test]
    fn ground_truth_respects_filters() {
        let d = DatasetSpec::tiny().generate().with_captions();
        let q = &filtered_search(&d, 1, 10, 0.3, 0)[0];
        let truth = ground_truth(&d, q, None);
        assert!(!truth.is_empty());
        let (_, lo, hi) = &q.ranges[0];
        for &(row, _) in &truth {
            assert!(d.rand_int[row] >= *lo && d.rand_int[row] <= *hi);
        }
        // Ascending distances.
        for w in truth.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn production_queries_filter_two_columns() {
        let d = DatasetSpec::tiny().generate();
        let qs = production_search(&d, 5, 100, 0);
        for q in &qs {
            assert_eq!(q.ranges.len(), 2);
            assert!(q.where_sql().contains("x BETWEEN") && q.where_sql().contains("y BETWEEN"));
        }
    }
}
