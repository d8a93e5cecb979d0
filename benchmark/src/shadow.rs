//! The benchmark's own copy of the live rows: exact ground truth and the
//! per-row correctness rules every returned result is held to. This is the
//! reference the engine is compared against, so it shares no code with it.

use crate::gen::Rows;

/// Live rows by id. Ids are dense from 0, so plain vectors serve as maps.
pub struct Shadow {
    dim: usize,
    /// `Some(x)` while the row is live.
    xs: Vec<Option<i64>>,
    embs: Vec<f32>,
}

/// Exact answer to one top-k statement.
pub struct Truth {
    /// Ids of the `min(k, passing)` nearest passing rows.
    pub ids: Vec<u64>,
    /// Live rows passing the filter.
    pub passing: usize,
}

/// What the engine returned for one SELECT: `(id, x)` rows or the error.
pub type CallResult = Result<Vec<(u64, i64)>, String>;

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn in_range(x: i64, range: Option<(i64, i64)>) -> bool {
    range.is_none_or(|(lo, hi)| lo <= x && x <= hi)
}

impl Shadow {
    pub fn new(dim: usize) -> Shadow {
        Shadow { dim, xs: Vec::new(), embs: Vec::new() }
    }

    /// Add rows `[from, to)`; ids must continue the dense sequence.
    pub fn insert(&mut self, rows: &Rows, from: usize, to: usize) {
        assert_eq!(rows.ids[from] as usize, self.xs.len(), "ids must stay dense");
        self.xs.extend(rows.xs[from..to].iter().map(|&x| Some(x)));
        self.embs.extend_from_slice(&rows.embs[from * self.dim..to * self.dim]);
    }

    /// Delete live rows with `lo <= id <= hi`; returns how many.
    pub fn delete_ids(&mut self, lo: u64, hi: u64) -> usize {
        let mut n = 0;
        for slot in &mut self.xs[lo as usize..=hi as usize] {
            n += usize::from(slot.take().is_some());
        }
        n
    }

    /// Set `x` on live rows with `lo <= id <= hi`; returns how many.
    pub fn update_ids(&mut self, lo: u64, hi: u64, x: i64) -> usize {
        let mut n = 0;
        for slot in self.xs[lo as usize..=hi as usize].iter_mut().filter(|s| s.is_some()) {
            *slot = Some(x);
            n += 1;
        }
        n
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn live(&self) -> usize {
        self.xs.iter().filter(|x| x.is_some()).count()
    }

    /// Raw bytes of the live rows (id + x + embedding).
    pub fn user_bytes(&self) -> u64 {
        (self.live() * (16 + self.dim * 4)) as u64
    }

    /// Exact top-`k` for one query under each filter range; distances are
    /// computed once and shared by the ranges.
    pub fn topk(&self, query: &[f32], k: usize, ranges: &[Option<(i64, i64)>]) -> Vec<Truth> {
        let dist: Vec<f32> =
            self.embs.chunks_exact(self.dim).map(|row| l2_sq(query, row)).collect();
        ranges
            .iter()
            .map(|&range| {
                let mut cand: Vec<(f32, u64)> = self
                    .xs
                    .iter()
                    .enumerate()
                    .filter_map(|(id, x)| match x {
                        Some(x) if in_range(*x, range) => Some((dist[id], id as u64)),
                        _ => None,
                    })
                    .collect();
                let passing = cand.len();
                if passing > k {
                    cand.select_nth_unstable_by(k, |a, b| a.0.total_cmp(&b.0));
                    cand.truncate(k);
                }
                Truth { ids: cand.into_iter().map(|(_, id)| id).collect(), passing }
            })
            .collect()
    }

    /// Why this result is wrong, if it is: an error, a row that is deleted,
    /// stale or outside the filter, a repeated id, or fewer rows than
    /// `min(k, passing)`.
    pub fn fault(
        &self,
        result: &CallResult,
        k: usize,
        range: Option<(i64, i64)>,
        passing: usize,
    ) -> Option<String> {
        let rows = match result {
            Ok(rows) => rows,
            Err(e) => return Some(format!("error: {e}")),
        };
        let want = k.min(passing);
        if rows.len() != want {
            return Some(format!(
                "returned {} rows, expected min(k={k}, passing={passing})",
                rows.len()
            ));
        }
        for (i, &(id, x)) in rows.iter().enumerate() {
            match self.xs.get(id as usize).copied().flatten() {
                None => return Some(format!("id {id} is not a live row")),
                Some(live_x) if live_x != x => {
                    return Some(format!("id {id} returned stale x={x}, live x={live_x}"))
                }
                Some(_) if !in_range(x, range) => {
                    return Some(format!("id {id} has x={x} outside the filter {range:?}"))
                }
                Some(_) => {}
            }
            if rows[..i].iter().any(|&(other, _)| other == id) {
                return Some(format!("id {id} returned twice"));
            }
        }
        None
    }
}

/// Share of the exact ids present in the result (1.0 when nothing passes).
pub fn recall(truth: &Truth, rows: &[(u64, i64)]) -> f64 {
    if truth.ids.is_empty() {
        return 1.0;
    }
    let hit = truth.ids.iter().filter(|id| rows.iter().any(|(r, _)| r == *id)).count();
    hit as f64 / truth.ids.len() as f64
}
