//! Inverted-file indexes: `IVFFLAT`, `IVFPQ`, `IVFPQFS`.
//!
//! Vectors are partitioned into `nlist` cells by a k-means coarse quantizer;
//! a query probes the `nprobe` nearest cells. Payload variants:
//!
//! * `IVFFLAT` — raw vectors per cell, exact in-cell distances.
//! * `IVFPQ` — 8-bit product-quantized **residuals** (vector minus its cell
//!   centroid), scanned with per-cell ADC tables.
//! * `IVFPQFS` — 4-bit PQ residuals stored in the 32-vector *blocked*
//!   fast-scan layout and scanned with in-register shuffle LUTs
//!   ([`crate::quant::fastscan`]): smallest memory and fastest scan of the
//!   three, lowest recall — the trade-off Table V / Table VI / Fig. 13
//!   characterize.
//!
//! PQ variants report approximate distances and set
//! [`VectorIndex::needs_refine`], letting the executor re-rank `σ·k`
//! candidates with exact distances (the refine term in cost Eqs. 2–3).
//!
//! Quantized scans still participate in cross-segment [`SharedBound`]
//! pruning: the index records the worst per-subspace encoding error at build
//! time, which yields a sound *lower bound* on any candidate's exact
//! distance (DESIGN.md §10). Candidates whose lower bound exceeds the shared
//! exact threshold are dropped after the scan; approximate distances are
//! never *published* to the bound.

use crate::codec::{metric_from_u8, metric_to_u8, Reader, Writer};
use crate::distance::scan_distances;
use crate::iterator::{GenericSearchIterator, SearchIterator};
use crate::kmeans::{train_kmeans_on, KMeans, KMeansParams};
use crate::quant::fastscan::FastScanCodes;
use crate::quant::pq::{AdcTable, CodeBits, Pq, PqParams};
use crate::types::{
    build_pool, check_batch, sorted_neighbors, BoundedTopK, IndexBuilder, IndexMeta, IndexSpec,
    Neighbor, SearchParams, VectorIndex,
};
use crate::{distance, IndexKind, Metric};
use bh_common::{BhError, Bitset, FanoutPool, QueryCtx, Result, SharedBound, TopK};
use bytes::Bytes;
use std::borrow::Cow;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BHIV";
/// v2 appends the per-subspace worst-case encoding errors for PQ payloads
/// (the margins behind bound-aware quantized pruning). Nothing writes v1
/// any more, so older headers are rejected.
const VERSION: u16 = 2;

/// PQ code storage. 8-bit codes stay packed per cell; 4-bit codes keep only
/// the blocked fast-scan transpose (same byte count, register-shuffle
/// friendly) and reconstruct packed bytes on demand for serialization.
#[derive(Debug, Clone)]
enum PqStore {
    Bytes(Vec<Vec<u8>>),
    Blocked(Vec<FastScanCodes>),
}

/// Per-cell payload.
#[derive(Debug, Clone)]
enum Cells {
    Flat {
        vectors: Vec<Vec<f32>>,
    },
    Pq {
        pq: Pq,
        store: PqStore,
        /// Per-subspace maximum squared encoding error over every stored
        /// vector (`m` entries). `sqrt(sum)` bounds any stored vector's
        /// reconstruction error — the margin that makes pruning quantized
        /// distances against an exact bound sound.
        margins: Vec<f32>,
    },
}

/// What one search reuses across the PQ cells it probes: the query's
/// residual against the cell centroid, that residual's ADC table and the
/// cell's distances.
#[derive(Default)]
struct PqScanScratch {
    resid: Vec<f32>,
    table: AdcTable,
    dists: Vec<f32>,
}

/// An immutable IVF index.
#[derive(Debug)]
pub struct IvfIndex {
    dim: usize,
    metric: Metric,
    kind: IndexKind,
    coarse: KMeans,
    /// Per-cell row labels.
    ids: Vec<Vec<u64>>,
    cells: Cells,
    len: usize,
}

impl IvfIndex {
    /// Number of coarse cells.
    pub fn nlist(&self) -> usize {
        self.coarse.k
    }

    /// Cosine queries are searched in normalized space; scale L2² on unit
    /// vectors back to cosine distance (`1 - cos = l2²/2`).
    fn post_scale(&self) -> f32 {
        if self.metric == Metric::Cosine {
            0.5
        } else {
            1.0
        }
    }

    fn effective_metric(&self) -> Metric {
        if self.metric == Metric::Cosine {
            Metric::L2
        } else {
            self.metric
        }
    }

    fn prep_query(&self, query: &[f32]) -> Vec<f32> {
        let mut q = query.to_vec();
        if self.metric == Metric::Cosine {
            distance::normalize(&mut q);
        }
        q
    }

    /// Scan one flat cell into `out` through the exact blocked scan: the
    /// whole posting list, or the positions in `passing` the filter keeps.
    /// Posting lists hold raw vectors, so distances are exact (in the
    /// post-scale domain for cosine): rows the shared bound beats are
    /// dropped and the local k-th is published.
    fn scan_flat_cell(
        &self,
        vectors: &[f32],
        cell_ids: &[u64],
        q: &[f32],
        filter: Option<&Bitset>,
        out: &mut BoundedTopK<'_>,
        passing: &mut Vec<u32>,
    ) -> Result<()> {
        let listed = filter.map(|f| {
            passing.clear();
            passing.extend(
                (0..cell_ids.len() as u32).filter(|&i| f.contains(cell_ids[i as usize] as usize)),
            );
            &passing[..]
        });
        let scale = self.post_scale();
        scan_distances(self.effective_metric(), q, vectors, self.dim, listed, |row, d| {
            let d = d * scale;
            out.offer(d, d, cell_ids[row]);
        })
    }

    /// Scan one PQ cell, pushing approximate distances into `tk`. Returns
    /// the quantization error bound of the pushed values (see
    /// [`Self::pq_cell_distances`]).
    #[allow(clippy::too_many_arguments)]
    fn scan_pq_cell(
        &self,
        pq: &Pq,
        store: &PqStore,
        cell: usize,
        q: &[f32],
        filter: Option<&Bitset>,
        tk: &mut TopK<u64>,
        scratch: &mut PqScanScratch,
    ) -> f32 {
        if self.ids[cell].is_empty() {
            return 0.0;
        }
        // Residual ADC table for this cell.
        let centroid = self.coarse.centroid(cell);
        scratch.resid.clear();
        scratch.resid.extend(q.iter().zip(centroid).map(|(a, b)| a - b));
        if pq.adc_table_into(&scratch.resid, &mut scratch.table).is_err() {
            return 0.0;
        }
        let errq = self.pq_cell_distances(pq, store, cell, &scratch.table, &mut scratch.dists);
        let scale = self.post_scale();
        for (i, &id) in self.ids[cell].iter().enumerate() {
            if filter.is_some_and(|f| !f.contains(id as usize)) {
                continue;
            }
            tk.push(scratch.dists[i] * scale, id);
        }
        errq
    }

    /// Fill `out` with the (unscaled) approximate distance of every row in
    /// `cell`. Returns the quantization error bound of the produced values:
    /// positive when the u8 fast-scan kernel ran, zero when the exact f32
    /// ADC table was used.
    fn pq_cell_distances(
        &self,
        pq: &Pq,
        store: &PqStore,
        cell: usize,
        table: &AdcTable,
        out: &mut Vec<f32>,
    ) -> f32 {
        let n = self.ids[cell].len();
        out.clear();
        out.resize(n, 0.0);
        match store {
            PqStore::Bytes(codes) => {
                let cs = pq.code_size();
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = table.distance(&codes[cell][i * cs..(i + 1) * cs]);
                }
                0.0
            }
            PqStore::Blocked(cells) => {
                let codes = &cells[cell];
                if let Some(lut) = table.quantized() {
                    if lut.scan(codes, out).is_ok() {
                        return lut.error_bound();
                    }
                }
                // Unquantizable table: exact f32 ADC over reconstructed
                // per-vector codes.
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = table.distance(&codes.code_bytes(i));
                }
                0.0
            }
        }
    }

    /// Deserialize an index written by [`VectorIndex::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<IvfIndex> {
        let mut r = Reader::new(bytes);
        let version = r.expect_header(MAGIC)?;
        if version < VERSION {
            return Err(BhError::Serde(format!("ivf: blob version {version} is no longer read")));
        }
        let kind = match r.get_u8()? {
            0 => IndexKind::IvfFlat,
            1 => IndexKind::IvfPq,
            2 => IndexKind::IvfPqFs,
            x => return Err(BhError::Serde(format!("ivf: bad kind byte {x}"))),
        };
        let dim = r.get_u64()? as usize;
        let metric = metric_from_u8(r.get_u8()?)?;
        let nlist = r.get_u64()? as usize;
        let centroids = r.get_f32_vec()?;
        if dim == 0 || centroids.len() != nlist * dim {
            return Err(BhError::Serde("ivf: corrupt centroids".into()));
        }
        let coarse = KMeans { dim, k: nlist, centroids };
        let mut ids = Vec::with_capacity(nlist);
        for _ in 0..nlist {
            ids.push(r.get_u64_vec()?);
        }
        let len = ids.iter().map(|v| v.len()).sum();
        let cells = match r.get_u8()? {
            0 => {
                let mut vectors = Vec::with_capacity(nlist);
                for _ in 0..nlist {
                    vectors.push(r.get_f32_vec()?);
                }
                Cells::Flat { vectors }
            }
            1 => {
                let pq = Pq::load(&mut r)?;
                let cs = pq.code_size();
                let mut codes = Vec::with_capacity(nlist);
                for cell_ids in ids.iter().take(nlist) {
                    let cell = r.get_bytes()?;
                    if cell.len() != cell_ids.len() * cs {
                        return Err(BhError::Serde("ivf: pq cell size mismatch".into()));
                    }
                    codes.push(cell);
                }
                let store = match pq.bits() {
                    CodeBits::B8 => PqStore::Bytes(codes),
                    CodeBits::B4 => {
                        // Rebuild the blocked fast-scan transpose from the
                        // on-disk packed layout.
                        let mut blocked = Vec::with_capacity(nlist);
                        for cell in &codes {
                            let mut fc = FastScanCodes::new(cs);
                            for code in cell.chunks_exact(cs) {
                                fc.push(code)?;
                            }
                            blocked.push(fc);
                        }
                        PqStore::Blocked(blocked)
                    }
                };
                let margins = read_margins(&mut r, &pq)?;
                Cells::Pq { pq, store, margins }
            }
            x => return Err(BhError::Serde(format!("ivf: bad payload byte {x}"))),
        };
        Ok(IvfIndex { dim, metric, kind, coarse, ids, cells, len })
    }
}

/// The margin section: a presence flag (always 1 — the flag byte survives
/// from when margins were optional) and the per-subspace errors.
fn write_margins(w: &mut Writer, margins: &[f32]) {
    w.put_u8(1);
    w.put_f32_slice(margins);
}

fn read_margins(r: &mut Reader<'_>, pq: &Pq) -> Result<Vec<f32>> {
    match r.get_u8()? {
        1 => {
            let mg = r.get_f32_vec()?;
            if mg.len() != pq.m() {
                return Err(BhError::Serde("ivf: corrupt margin section".into()));
            }
            Ok(mg)
        }
        x => Err(BhError::Serde(format!("ivf: bad margin flag {x}"))),
    }
}

impl VectorIndex for IvfIndex {
    fn meta(&self) -> IndexMeta {
        IndexMeta { kind: self.kind, dim: self.dim, metric: self.metric, len: self.len }
    }

    fn search_with_bound(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
        bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        if self.len == 0 || k == 0 {
            return Ok(Vec::new());
        }
        let q = self.prep_query(query);
        let nprobe = params.nprobe.clamp(1, self.nlist());
        let probes = self.coarse.nearest_centroids(&q, nprobe)?;
        match &self.cells {
            Cells::Flat { vectors } => {
                let mut passing = Vec::new();
                let mut out = BoundedTopK::new(k, bound, true);
                for (cell, _) in probes {
                    let ids = &self.ids[cell];
                    self.scan_flat_cell(&vectors[cell], ids, &q, filter, &mut out, &mut passing)?;
                }
                Ok(out.finish())
            }
            Cells::Pq { pq, store, margins } => {
                // Every row is pushed at its quantized distance whatever the
                // bound says, so batched and sequential executions collect
                // identical candidates; the bound only trims the result.
                let mut tk = TopK::new(k);
                // Cells may differ in LUT quantization step; the max across
                // probed cells is a uniform (conservative) error bound.
                let mut max_errq = 0.0f32;
                let mut scratch = PqScanScratch::default();
                // A PQ cell's distances are computed for all of its rows.
                let mut scored = 0;
                for (cell, _) in probes {
                    let errq =
                        self.scan_pq_cell(pq, store, cell, &q, filter, &mut tk, &mut scratch);
                    max_errq = max_errq.max(errq);
                    scored += self.ids[cell].len();
                }
                QueryCtx::with(|c| c.tally.rows_scanned.add(scored as u64));
                let mut hits = sorted_neighbors(tk);
                // Margin pruning needs a metric whose approximate scan value
                // bounds the exact distance from below — L2, and Cosine via
                // normalized L2. The residual-IP approximation has no such
                // relation: no pruning there. Approximate distances are
                // never published.
                if let Some(b) = bound.filter(|_| self.metric != Metric::InnerProduct) {
                    let before = hits.len();
                    let (scale, rho) = (self.post_scale(), pq_radius(margins));
                    let beaten =
                        |nb: &Neighbor| pq_lower_bound(nb.distance, scale, max_errq, rho) > b.get();
                    hits.retain(|nb| !beaten(nb));
                    b.record_skips((before - hits.len()) as u64);
                }
                Ok(hits)
            }
        }
    }

    fn search_iterator<'a>(
        &'a self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Box<dyn SearchIterator + 'a>> {
        self.check_query(query)?;
        // IVF has no natural incremental order → generic doubling-k wrapper.
        Ok(Box::new(GenericSearchIterator::new(self, query, params)))
    }

    fn needs_refine(&self) -> bool {
        matches!(self.cells, Cells::Pq { .. })
    }

    fn memory_usage(&self) -> usize {
        let id_bytes: usize = self.ids.iter().map(|v| v.len() * 8 + 24).sum();
        let cell_bytes: usize = match &self.cells {
            Cells::Flat { vectors } => vectors.iter().map(|v| v.len() * 4 + 24).sum(),
            Cells::Pq { pq, store, margins } => {
                let code_bytes: usize = match store {
                    PqStore::Bytes(codes) => codes.iter().map(|c| c.len() + 24).sum(),
                    PqStore::Blocked(cells) => cells.iter().map(|c| c.memory_usage()).sum(),
                };
                pq.memory_usage() + code_bytes + margins.len() * 4 + 24
            }
        };
        self.coarse.centroids.len() * 4 + id_bytes + cell_bytes + std::mem::size_of::<Self>()
    }

    fn save_bytes(&self) -> Result<Bytes> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.put_u8(match self.kind {
            IndexKind::IvfFlat => 0,
            IndexKind::IvfPq => 1,
            IndexKind::IvfPqFs => 2,
            _ => return Err(BhError::Internal("ivf: impossible kind".into())),
        });
        w.put_u64(self.dim as u64);
        w.put_u8(metric_to_u8(self.metric));
        w.put_u64(self.nlist() as u64);
        w.put_f32_slice(&self.coarse.centroids);
        for cell in &self.ids {
            w.put_u64_slice(cell);
        }
        match &self.cells {
            Cells::Flat { vectors } => {
                w.put_u8(0);
                for v in vectors {
                    w.put_f32_slice(v);
                }
            }
            Cells::Pq { pq, store, margins } => {
                w.put_u8(1);
                pq.save(&mut w);
                // Cells keep the v1 packed per-vector byte layout on disk;
                // the blocked transpose is rebuilt at load time.
                match store {
                    PqStore::Bytes(codes) => {
                        for c in codes {
                            w.put_bytes(c);
                        }
                    }
                    PqStore::Blocked(cells) => {
                        let mut buf = Vec::new();
                        for c in cells {
                            buf.clear();
                            for i in 0..c.len() {
                                buf.extend(c.code_bytes(i));
                            }
                            w.put_bytes(&buf);
                        }
                    }
                }
                write_margins(&mut w, margins);
            }
        }
        Ok(w.finish())
    }
}

/// `sqrt(sum of per-subspace worst-case squared errors)`: no stored vector
/// lies further than this from its reconstruction.
fn pq_radius(margins: &[f32]) -> f32 {
    margins.iter().map(|e| e.max(0.0)).sum::<f32>().sqrt()
}

/// A lower bound on the exact distance of a candidate reported at
/// (post-scaled) quantized distance `reported`.
///
/// Unscaled, the exact f32 ADC value is at least `d - err_q`, the distance
/// to the *reconstruction* is at least `sqrt(max(0, d - err_q))`, and by the
/// triangle inequality the distance to the true vector is at least that
/// minus `rho`. Squaring (and post-scaling for cosine) gives the bound.
fn pq_lower_bound(reported: f32, scale: f32, err_q: f32, rho: f32) -> f32 {
    // post_scale is 1.0 or 0.5: the division below is exact.
    let d = reported / scale;
    let base = ((d - err_q).max(0.0).sqrt() - rho).max(0.0);
    base * base * scale
}

/// Builder for the three IVF variants.
pub struct IvfBuilder {
    spec: IndexSpec,
    kind: IndexKind,
    nlist: usize,
    seed: u64,
    coarse: Option<KMeans>,
    pq: Option<Pq>,
    ids: Vec<Vec<u64>>,
    flat: Vec<Vec<f32>>,
    codes: Vec<Vec<u8>>,
    blocked: Vec<FastScanCodes>,
    /// Running per-subspace maximum squared encoding error.
    max_sq_err: Vec<f32>,
    len: usize,
    /// Where PQ sub-quantizers and row tiles fan out.
    pool: Arc<FanoutPool>,
    /// What the residual pass of `train` computed (PQ kinds), until the
    /// first `add_with_ids`.
    trained: Option<TrainedRows>,
    /// Rows assigned to a coarse cell so far: one per row and build when
    /// `add_with_ids` is handed the rows `train` saw.
    assigned: usize,
}

/// The rows `train` was handed (normalized for cosine) and each row's
/// coarse cell. `add_with_ids` reuses the cells when its rows equal these
/// bit for bit, which they do when the table store builds a segment's
/// index: it trains on the segment's column and adds the same column.
struct TrainedRows {
    rows: Vec<f32>,
    cells: Vec<usize>,
}

/// Rows per fan-out task of the residual pass and of `add_with_ids`: small
/// enough that a 512-row insert splits across two threads, large enough
/// that claiming a tile is noise next to assigning and encoding it.
const TILE_ROWS: usize = 128;

/// `task(first_row, rows)` over every tile of `TILE_ROWS` rows of
/// `vectors`, side by side on `pool`; results in tile order.
fn run_tiles<T: Send + Sync>(
    pool: &FanoutPool,
    vectors: &[f32],
    dim: usize,
    task: impl Fn(usize, &[f32]) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let tile = TILE_ROWS * dim;
    pool.run(vectors.len().div_ceil(tile), usize::MAX, |t| {
        task(t * TILE_ROWS, &vectors[t * tile..((t + 1) * tile).min(vectors.len())])
    })
    .into_results()
}

/// Whether two blocks hold the same floats, bit for bit (`-0.0` and
/// `+0.0` differ, a NaN equals itself).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one tile of `add_with_ids` computes before anything is appended.
struct EncodedTile {
    /// Coarse cell of every row.
    cells: Vec<usize>,
    /// PQ codes of every row, `code_size` bytes each (empty for IVFFLAT).
    codes: Vec<u8>,
    /// Per-subspace maximum squared encoding error over the tile.
    max_sq_err: Vec<f32>,
}

impl IvfBuilder {
    /// A builder for one of the IVF variants validated against `spec`,
    /// building on the process-wide [`build_pool`].
    pub fn new(spec: &IndexSpec, kind: IndexKind) -> Result<IvfBuilder> {
        Self::with_pool(spec, kind, build_pool())
    }

    /// [`Self::new`] on a given pool. The index built is the same whatever
    /// the pool's size.
    pub fn with_pool(
        spec: &IndexSpec,
        kind: IndexKind,
        pool: Arc<FanoutPool>,
    ) -> Result<IvfBuilder> {
        spec.validate()?;
        if kind != spec.kind
            || !matches!(kind, IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs)
        {
            return Err(BhError::InvalidArgument(format!(
                "IvfBuilder cannot build {}",
                kind.name()
            )));
        }
        // nlist = 0 means "auto-select at train time" (§III-B Auto index).
        let nlist = spec.param_usize("nlist", 0)?;
        let seed = spec.param_usize("seed", 0)? as u64;
        Ok(IvfBuilder {
            spec: spec.clone(),
            kind,
            nlist,
            seed,
            coarse: None,
            pq: None,
            ids: Vec::new(),
            flat: Vec::new(),
            codes: Vec::new(),
            blocked: Vec::new(),
            max_sq_err: Vec::new(),
            len: 0,
            pool,
            trained: None,
            assigned: 0,
        })
    }

    fn dim(&self) -> usize {
        self.spec.dim
    }

    fn normalize_if_cosine<'a>(&self, vectors: &'a [f32]) -> Cow<'a, [f32]> {
        if self.spec.metric != Metric::Cosine {
            return Cow::Borrowed(vectors);
        }
        let mut out = vectors.to_vec();
        for chunk in out.chunks_mut(self.dim()) {
            distance::normalize(chunk);
        }
        Cow::Owned(out)
    }

    fn pq_m(&self) -> Result<usize> {
        // `IndexSpec::validate` checked that a requested `pq_m` divides dim.
        // Default: subspaces of ~4 dims, clamped to a divisor of dim.
        let requested = self.spec.param_usize("pq_m", 0)?;
        if requested > 0 {
            return Ok(requested);
        }
        let target = (self.dim() / 4).max(1);
        // Largest divisor of dim that is <= target.
        let mut best = 1;
        for m in 1..=target {
            if self.dim().is_multiple_of(m) {
                best = m;
            }
        }
        Ok(best)
    }
}

impl IndexBuilder for IvfBuilder {
    fn train(&mut self, sample: &[f32]) -> Result<()> {
        let dim = self.dim();
        if sample.is_empty() || !sample.len().is_multiple_of(dim) {
            return Err(BhError::InvalidArgument("ivf: bad training sample shape".into()));
        }
        let sample = self.normalize_if_cosine(sample);
        let n = sample.len() / dim;
        let nlist = if self.nlist > 0 {
            self.nlist
        } else {
            crate::autoindex::auto_nlist(n)
        };
        // Sample cap scales with nlist (faiss' max_points_per_centroid idea)
        // so coarse training cost stays proportionate to the codebook size.
        let coarse = train_kmeans_on(
            &self.pool,
            &sample,
            dim,
            &KMeansParams {
                k: nlist,
                max_iters: 6,
                seed: self.seed,
                sample_limit: (nlist * 24).clamp(1_024, 16_384),
            },
        )?;
        let nlist = coarse.k;

        if matches!(self.kind, IndexKind::IvfPq | IndexKind::IvfPqFs) {
            // Train PQ on residuals against the coarse centroids.
            let tiles = run_tiles(&self.pool, &sample, dim, |_, rows| {
                let mut cells = Vec::with_capacity(rows.len() / dim);
                let mut residuals = Vec::with_capacity(rows.len());
                let mut dists = Vec::new();
                for v in rows.chunks_exact(dim) {
                    let cell = coarse.assign_into(v, &mut dists)?;
                    cells.push(cell);
                    residuals.extend(v.iter().zip(coarse.centroid(cell)).map(|(a, b)| a - b));
                }
                Ok((cells, residuals))
            })?;
            self.assigned += n;
            let (cells, residuals): (Vec<_>, Vec<_>) = tiles.into_iter().unzip();
            let residuals = residuals.concat();
            let bits = if self.kind == IndexKind::IvfPqFs { CodeBits::B4 } else { CodeBits::B8 };
            let m = self.pq_m()?;
            let metric = if self.spec.metric == Metric::Cosine { Metric::L2 } else { self.spec.metric };
            let pq = Pq::train_on(
                &self.pool,
                &residuals,
                dim,
                metric,
                &PqParams { m, bits, seed: self.seed, kmeans_iters: 8 },
            )?;
            match bits {
                CodeBits::B4 => self.blocked = vec![FastScanCodes::new(pq.code_size()); nlist],
                CodeBits::B8 => self.codes = vec![Vec::new(); nlist],
            }
            self.max_sq_err = vec![0.0; m];
            self.pq = Some(pq);
            self.trained = Some(TrainedRows { rows: sample.into_owned(), cells: cells.concat() });
        } else {
            self.flat = vec![Vec::new(); nlist];
        }
        self.ids = vec![Vec::new(); nlist];
        self.nlist = nlist;
        self.coarse = Some(coarse);
        Ok(())
    }

    fn add_with_ids(&mut self, vectors: &[f32], ids: &[u64]) -> Result<()> {
        if self.coarse.is_none() {
            // Auto-train on the first batch (faiss-style convenience).
            self.train(vectors)?;
        }
        let dim = self.dim();
        let n = check_batch(dim, vectors, ids)?;
        let vectors = self.normalize_if_cosine(vectors);
        let Some(coarse) = self.coarse.as_ref() else {
            return Err(BhError::Index("ivf: quantizer missing after auto-train".into()));
        };
        let pq = self.pq.as_ref();
        if pq.is_none() && self.flat.is_empty() {
            return Err(BhError::Internal("ivf: untrained payload".into()));
        }
        let cs = pq.map_or(0, Pq::code_size);
        // The rows `train` just assigned: their cells stand.
        let trained = self.trained.take().filter(|t| same_bits(&t.rows, &vectors));
        if trained.is_none() {
            self.assigned += n;
        }

        // Per tile, side by side: the cell of every row and, for PQ
        // payloads, its code and encoding errors, in buffers the tile's
        // rows share.
        let tiles = run_tiles(&self.pool, &vectors, dim, |first, rows| {
            let mut tile = EncodedTile {
                cells: Vec::with_capacity(rows.len() / dim),
                codes: vec![0u8; rows.len() / dim * cs],
                max_sq_err: vec![0.0; self.max_sq_err.len()],
            };
            let mut dists = Vec::new();
            let mut resid = Vec::with_capacity(if pq.is_some() { rows.len() } else { 0 });
            for (r, v) in rows.chunks_exact(dim).enumerate() {
                let cell = match &trained {
                    Some(t) => t.cells[first + r],
                    None => coarse.assign_into(v, &mut dists)?,
                };
                tile.cells.push(cell);
                if pq.is_some() {
                    resid.extend(v.iter().zip(coarse.centroid(cell)).map(|(a, b)| a - b));
                }
            }
            if let Some(pq) = pq {
                pq.encode_into(&resid, &mut tile.codes, &mut tile.max_sq_err)?;
            }
            Ok(tile)
        })?;

        // Then, in row order, the appends.
        let mut rows = ids.iter().zip(vectors.chunks_exact(dim));
        for tile in &tiles {
            for (r, (&cell, (&id, v))) in tile.cells.iter().zip(&mut rows).enumerate() {
                self.ids[cell].push(id);
                let code = &tile.codes[r * cs..(r + 1) * cs];
                match pq.map(Pq::bits) {
                    Some(CodeBits::B4) => self.blocked[cell].push(code)?,
                    Some(CodeBits::B8) => self.codes[cell].extend_from_slice(code),
                    None => self.flat[cell].extend_from_slice(v),
                }
            }
            for (slot, &e) in self.max_sq_err.iter_mut().zip(&tile.max_sq_err) {
                *slot = slot.max(e);
            }
        }
        self.len += n;
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<Arc<dyn VectorIndex>> {
        let coarse = self
            .coarse
            .ok_or_else(|| BhError::Index("ivf: finish before train/add".into()))?;
        let cells = match self.pq {
            Some(pq) => {
                let store = match pq.bits() {
                    CodeBits::B4 => PqStore::Blocked(self.blocked),
                    CodeBits::B8 => PqStore::Bytes(self.codes),
                };
                Cells::Pq { pq, store, margins: self.max_sq_err }
            }
            None => Cells::Flat { vectors: self.flat },
        };
        Ok(Arc::new(IvfIndex {
            dim: self.spec.dim,
            metric: self.spec.metric,
            kind: self.kind,
            coarse,
            ids: self.ids,
            cells,
            len: self.len,
        }))
    }

    fn requires_training(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::KernelTier;
    use crate::recall::{exact_topk, recall_at_k};
    use bh_common::rng::{derive_seed, rng};
    use proptest::prelude::*;
    use rand::Rng;

    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let center = (i % 10) as f32 * 5.0;
            for _ in 0..dim {
                data.push(center + r.gen::<f32>() * 2.0 - 1.0);
            }
        }
        data
    }

    fn build(
        kind: IndexKind,
        n: usize,
        dim: usize,
        nlist: usize,
        metric: Metric,
        seed: u64,
    ) -> (Arc<dyn VectorIndex>, Vec<f32>) {
        let data = clustered(n, dim, seed);
        let ids: Vec<u64> = (0..n as u64).collect();
        let spec = IndexSpec::new(kind, dim, metric).with_param("nlist", nlist);
        let mut b = Box::new(IvfBuilder::new(&spec, kind).unwrap());
        b.train(&data).unwrap();
        b.add_with_ids(&data, &ids).unwrap();
        ((b as Box<dyn IndexBuilder>).finish().unwrap(), data)
    }

    fn mean_recall(
        ivf: &Arc<dyn VectorIndex>,
        data: &[f32],
        dim: usize,
        params: &SearchParams,
        queries: usize,
    ) -> f64 {
        let n = data.len() / dim;
        let mut total = 0.0;
        for q in 0..queries {
            let row = (q * 31) % n;
            let qv = &data[row * dim..(row + 1) * dim];
            let truth = exact_topk(ivf.meta().metric, data, dim, qv, 10, None);
            let got = ivf.search_with_bound(qv, 10, params, None, None).unwrap();
            total += recall_at_k(&truth, &got, 10);
        }
        total / queries as f64
    }

    #[test]
    fn ivfflat_recall_with_full_probe_is_exact() {
        let dim = 8;
        let (ivf, data) = build(IndexKind::IvfFlat, 1000, dim, 16, Metric::L2, 1);
        let params = SearchParams::default().with_nprobe(16); // all cells
        let r = mean_recall(&ivf, &data, dim, &params, 15);
        assert!(r > 0.999, "full-probe IVFFLAT must be exact, recall {r}");
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let dim = 8;
        let (ivf, data) = build(IndexKind::IvfFlat, 2000, dim, 32, Metric::L2, 2);
        let r1 = mean_recall(&ivf, &data, dim, &SearchParams::default().with_nprobe(1), 20);
        let r8 = mean_recall(&ivf, &data, dim, &SearchParams::default().with_nprobe(8), 20);
        let r32 =
            mean_recall(&ivf, &data, dim, &SearchParams::default().with_nprobe(32), 20);
        assert!(r8 >= r1, "recall must not drop with more probes: {r1} -> {r8}");
        assert!(r32 >= r8);
        assert!(r32 > 0.99);
    }

    #[test]
    fn ivfpq_recall_floor_on_clustered_data() {
        let dim = 16;
        let (ivf, data) = build(IndexKind::IvfPq, 2000, dim, 16, Metric::L2, 3);
        assert!(ivf.needs_refine());
        let params = SearchParams::default().with_nprobe(8);
        let r = mean_recall(&ivf, &data, dim, &params, 20);
        assert!(r > 0.6, "IVFPQ recall {r} unreasonably low");
    }

    #[test]
    fn ivfpqfs_smaller_than_ivfpq_smaller_than_flat() {
        let dim = 16;
        let (pqfs, _) = build(IndexKind::IvfPqFs, 1500, dim, 16, Metric::L2, 4);
        let (pq, _) = build(IndexKind::IvfPq, 1500, dim, 16, Metric::L2, 4);
        let (fl, _) = build(IndexKind::IvfFlat, 1500, dim, 16, Metric::L2, 4);
        assert!(pqfs.memory_usage() < pq.memory_usage());
        assert!(pq.memory_usage() < fl.memory_usage());
    }

    #[test]
    fn filter_respected() {
        let dim = 8;
        let (ivf, data) = build(IndexKind::IvfFlat, 500, dim, 8, Metric::L2, 5);
        let allowed = Bitset::from_positions(500, (0..500).filter(|i| i % 3 == 0));
        let got = ivf
            .search_with_bound(
                &data[0..dim],
                10,
                &SearchParams::default().with_nprobe(8),
                Some(&allowed),
                None,
            )
            .unwrap();
        assert!(!got.is_empty());
        for nb in &got {
            assert_eq!(nb.id % 3, 0);
        }
    }

    #[test]
    fn range_search_within_probed_cells() {
        let dim = 4;
        let (ivf, data) = build(IndexKind::IvfFlat, 800, dim, 8, Metric::L2, 6);
        let q = &data[0..dim];
        let params = SearchParams::default().with_nprobe(8);
        let mut truth = exact_topk(Metric::L2, &data, dim, q, 800, None);
        truth.retain(|nb| nb.distance <= 3.0);
        let got = ivf.search_with_range(q, 3.0, &params, None).unwrap();
        assert_eq!(got.len(), truth.len(), "full probe range must be exact");
        for nb in &got {
            assert!(nb.distance <= 3.0);
        }
    }

    #[test]
    fn cosine_metric_normalizes_and_scales() {
        let dim = 8;
        let (ivf, data) = build(IndexKind::IvfFlat, 600, dim, 8, Metric::Cosine, 7);
        let q = &data[dim..2 * dim];
        let params = SearchParams::default().with_nprobe(8);
        let truth = exact_topk(Metric::Cosine, &data, dim, q, 5, None);
        let got = ivf.search_with_bound(q, 5, &params, None, None).unwrap();
        let t_ids: Vec<u64> = truth.iter().map(|x| x.id).collect();
        let g_ids: Vec<u64> = got.iter().map(|x| x.id).collect();
        assert_eq!(t_ids, g_ids);
        // Distances must match cosine distance values.
        for (t, g) in truth.iter().zip(&got) {
            assert!((t.distance - g.distance).abs() < 1e-3, "{} vs {}", t.distance, g.distance);
        }
    }

    #[test]
    fn auto_train_on_first_add() {
        let dim = 8;
        let data = clustered(300, dim, 8);
        let ids: Vec<u64> = (0..300).collect();
        let spec = IndexSpec::new(IndexKind::IvfFlat, dim, Metric::L2);
        let mut b = Box::new(IvfBuilder::new(&spec, IndexKind::IvfFlat).unwrap());
        b.add_with_ids(&data, &ids).unwrap(); // no explicit train
        let idx = (b as Box<dyn IndexBuilder>).finish().unwrap();
        assert_eq!(idx.meta().len, 300);
    }

    #[test]
    fn finish_without_data_fails() {
        let spec = IndexSpec::new(IndexKind::IvfFlat, 4, Metric::L2);
        let b = Box::new(IvfBuilder::new(&spec, IndexKind::IvfFlat).unwrap());
        assert!((b as Box<dyn IndexBuilder>).finish().is_err());
    }

    #[test]
    fn save_load_roundtrip_all_variants() {
        for kind in [IndexKind::IvfFlat, IndexKind::IvfPq, IndexKind::IvfPqFs] {
            let dim = 8;
            let (ivf, data) = build(kind, 400, dim, 8, Metric::L2, 9);
            let blob = ivf.save_bytes().unwrap();
            let loaded = IvfIndex::load_bytes(&blob).unwrap();
            assert_eq!(loaded.meta().kind, kind);
            let q = &data[0..dim];
            let params = SearchParams::default().with_nprobe(4);
            assert_eq!(
                ivf.search_with_bound(q, 5, &params, None, None).unwrap(),
                loaded.search_with_bound(q, 5, &params, None, None).unwrap(),
                "{kind:?} roundtrip mismatch"
            );
        }
    }

    #[test]
    fn corrupt_blob_rejected() {
        let (ivf, _) = build(IndexKind::IvfFlat, 100, 4, 4, Metric::L2, 10);
        let blob = ivf.save_bytes().unwrap();
        assert!(IvfIndex::load_bytes(&blob[..16]).is_err());
    }

    #[test]
    fn pq_bound_prunes_and_records_skips() {
        // Small clusters force the 80-deep candidate list to span clusters:
        // far-cluster candidates sit ~sqrt(dim)*5 away, far outside the
        // margin-adjusted lower bound, so a kth-exact bound must skip them.
        let dim = 16;
        let (ivf, data) = build(IndexKind::IvfPqFs, 300, dim, 8, Metric::L2, 20);
        let params = SearchParams::default().with_nprobe(8);
        let q = &data[0..dim];
        let truth = exact_topk(Metric::L2, &data, dim, q, 10, None);
        let b = SharedBound::new();
        b.update(truth[9].distance);
        let got = ivf.search_with_bound(q, 80, &params, None, Some(&b)).unwrap();
        assert!(!got.is_empty());
        // Clustered data: candidates from far clusters have exact lower
        // bounds far above the exact kth distance and must be skipped.
        assert!(b.skips() > 0, "tight bound produced no skips");
        // The surviving list is the unbounded list minus skipped tail
        // entries only (post-scan filter preserves order and values).
        let unbounded = ivf.search_with_bound(q, 80, &params, None, None).unwrap();
        let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        let sub: Vec<u64> =
            unbounded.iter().map(|n| n.id).filter(|id| got_ids.contains(id)).collect();
        assert_eq!(got_ids, sub, "bound filter must preserve scan order");
    }

    #[test]
    fn blob_without_margins_is_rejected() {
        let (ivf, _) = build(IndexKind::IvfPqFs, 400, 8, 8, Metric::L2, 21);
        let blob = ivf.save_bytes().unwrap().to_vec();
        assert!(IvfIndex::load_bytes(&blob).is_ok());
        // A header version below 2 (bytes [4,6), little-endian).
        let mut v1 = blob.clone();
        v1[4] = 1;
        assert!(matches!(IvfIndex::load_bytes(&v1), Err(BhError::Serde(_))));
        // A cleared margin flag: the tail is flag byte + u64 len + m f32s,
        // with m = 2 for dim 8 (largest divisor of 8 that is <= dim/4).
        let mut unflagged = blob.clone();
        let flag = blob.len() - (1 + 8 + 4 * 2);
        assert_eq!(unflagged[flag], 1);
        unflagged[flag] = 0;
        assert!(matches!(IvfIndex::load_bytes(&unflagged), Err(BhError::Serde(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Satellite 4: bound-aware quantized pruning never drops a result
        /// whose exact distance is within the published exact threshold —
        /// for both PQ code widths (B8 scalar ADC and B4 fast-scan).
        #[test]
        fn prop_quantized_pruning_never_drops_true_topk(
            seed in 0u64..8,
            kindsel in 0usize..2,
            qrow in 0usize..40,
        ) {
            let dim = 8;
            let kind = [IndexKind::IvfPq, IndexKind::IvfPqFs][kindsel];
            let (ivf, data) = build(kind, 800, dim, 8, Metric::L2, 100 + seed);
            let params = SearchParams::default().with_nprobe(8);
            let q = &data[qrow * dim..(qrow + 1) * dim];
            let truth = exact_topk(Metric::L2, &data, dim, q, 10, None);
            let bound_val = truth[truth.len() - 1].distance;
            let b = SharedBound::new();
            b.update(bound_val);
            let unbounded = ivf.search_with_bound(q, 30, &params, None, None).unwrap();
            let got = ivf.search_with_bound(q, 30, &params, None, Some(&b)).unwrap();
            let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            for cand in &unbounded {
                let row = &data[cand.id as usize * dim..(cand.id as usize + 1) * dim];
                let exact = Metric::L2.distance(q, row);
                if exact <= bound_val {
                    prop_assert!(
                        got_ids.contains(&cand.id),
                        "candidate {} (exact {} <= bound {}) was pruned",
                        cand.id, exact, bound_val
                    );
                }
            }
        }
    }

    /// `rand`-free fixture (same reasoning as `hnsw::tests::clustered`):
    /// eight clusters with SplitMix64-drawn centres in `[-4, 4)^dim` and
    /// unit-width noise, so the bytes below are the same under the registry
    /// `rand` and under the offline shims.
    fn clustered_det(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let unit = |s: u64, j: usize| (derive_seed(s, j as u64) >> 40) as f32 / (1u64 << 24) as f32;
        (0..n * dim)
            .map(|j| {
                let (row, d) = (j / dim, j % dim);
                let center = 8.0 * unit(seed ^ 0x5eed, (row % 8) * dim + d) - 4.0;
                center + 2.0 * unit(seed, j) - 1.0
            })
            .collect()
    }

    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Pins the bytes the IVF build path produces — coarse k-means, residual
    /// pass, PQ training, encoding, margins, serialization — so that a
    /// faster build shows up as an unchanged constant. One FNV-1a per build
    /// over `save_bytes()`. The constants were produced by this same test
    /// at the commit before the head + body container went (CHANGES.md,
    /// PR 19), once per kernel tier (the coarse quantizer's dim-64 distances
    /// follow the tier's summation order; NEON's were never produced).
    #[test]
    #[cfg_attr(miri, ignore = "twenty IVF builds, up to 4,096 rows x 256 centroids: hours")]
    fn golden_build_blob_identity() {
        let tier = match KernelTier::current() {
            KernelTier::Avx2 => 0,
            KernelTier::Scalar => 1,
            KernelTier::Neon => return,
        };
        let dim = 64;
        let mut changed = Vec::new();
        for &(kind, metric, rows, pq_m, want) in GOLDEN_BUILDS {
            let data = clustered_det(rows, dim, 1_000 + rows as u64);
            let ids: Vec<u64> = (0..rows as u64).collect();
            // `nlist` is left to the builder's auto rule, as the table store
            // leaves it; `pq_m` 0 is the default (`dsub` = 4).
            let mut spec = IndexSpec::new(kind, dim, metric).with_param("seed", 17);
            if pq_m > 0 {
                spec = spec.with_param("pq_m", pq_m);
            }
            let mut b = Box::new(IvfBuilder::new(&spec, kind).unwrap());
            b.train(&data).unwrap();
            b.add_with_ids(&data, &ids).unwrap();
            let idx = (b as Box<dyn IndexBuilder>).finish().unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            fnv1a(&mut h, &idx.save_bytes().unwrap());
            if h != want[tier] {
                changed.push(format!("{kind:?} {metric:?} rows {rows} pq_m {pq_m}: {h:#018x}"));
            }
        }
        assert!(changed.is_empty(), "build bytes changed:\n{}", changed.join("\n"));
    }

    #[test]
    fn build_does_not_depend_on_the_pool() {
        // 700 rows in two batches: neither is a whole number of tiles.
        let (dim, rows, split) = (16, 700, 300);
        let data = clustered_det(rows, dim, 3);
        let ids: Vec<u64> = (0..rows as u64).collect();
        for (kind, metric) in [
            (IndexKind::IvfFlat, Metric::Cosine),
            (IndexKind::IvfPq, Metric::L2),
            (IndexKind::IvfPqFs, Metric::Cosine),
        ] {
            let spec = IndexSpec::new(kind, dim, metric).with_param("seed", 9);
            let blobs: Vec<_> = [0, 1, 3]
                .into_iter()
                .map(|helpers| {
                    let pool = Arc::new(FanoutPool::new(helpers));
                    let mut b = Box::new(IvfBuilder::with_pool(&spec, kind, pool).unwrap());
                    b.train(&data).unwrap();
                    b.add_with_ids(&data[..split * dim], &ids[..split]).unwrap();
                    b.add_with_ids(&data[split * dim..], &ids[split..]).unwrap();
                    let idx = (b as Box<dyn IndexBuilder>).finish().unwrap();
                    assert_eq!(idx.meta().len, rows);
                    idx.save_bytes().unwrap()
                })
                .collect();
            assert!(blobs.windows(2).all(|w| w[0] == w[1]), "{kind:?}: bytes depend on the pool");
        }
    }

    /// `add_with_ids` handed the rows `train` saw (equal by content: here a
    /// copy at another address) reuses their coarse cells, so a PQ
    /// build assigns each row once instead of twice, and the blob is the one
    /// the fresh path builds when the same rows arrive in two batches.
    #[test]
    fn add_reuses_the_training_assignment_byte_for_byte() {
        let (dim, rows, split) = (16, 700, 300);
        let data = clustered_det(rows, dim, 5);
        let copy = data.clone();
        let ids: Vec<u64> = (0..rows as u64).collect();
        for kind in [IndexKind::IvfFlat, IndexKind::IvfPq, IndexKind::IvfPqFs] {
            for metric in [Metric::L2, Metric::Cosine] {
                let spec = IndexSpec::new(kind, dim, metric).with_param("seed", 4);
                let mut reused = Box::new(IvfBuilder::new(&spec, kind).unwrap());
                reused.train(&data).unwrap();
                reused.add_with_ids(&copy, &ids).unwrap();
                let mut fresh = Box::new(IvfBuilder::new(&spec, kind).unwrap());
                fresh.train(&data).unwrap();
                fresh.add_with_ids(&copy[..split * dim], &ids[..split]).unwrap();
                fresh.add_with_ids(&copy[split * dim..], &ids[split..]).unwrap();
                // IVFFLAT's `train` has no residual pass and assigns nothing.
                let fresh_assigned = if kind == IndexKind::IvfFlat { rows } else { 2 * rows };
                assert_eq!((reused.assigned, fresh.assigned), (rows, fresh_assigned), "{kind:?}");
                let blob = |b: Box<IvfBuilder>| {
                    (b as Box<dyn IndexBuilder>).finish().unwrap().save_bytes().unwrap()
                };
                assert_eq!(blob(reused), blob(fresh), "{kind:?} {metric:?}");
            }
        }
    }

    /// `(kind, metric, rows, pq_m, [avx2, scalar])`; the `pq_m` = 8 rows have
    /// `dsub` = 8, the width the batched per-row kernels keep serving.
    #[rustfmt::skip]
    const GOLDEN_BUILDS: &[(IndexKind, Metric, usize, usize, [u64; 2])] = &[
        (IndexKind::IvfFlat, Metric::L2, 32, 0, [0x7fde_7461_4e38_9805, 0x7fde_7461_4e38_9805]),
        (IndexKind::IvfFlat, Metric::L2, 512, 0, [0x229a_9411_fccf_4812, 0x229a_9411_fccf_4812]),
        (IndexKind::IvfFlat, Metric::L2, 4096, 0, [0x8b1a_5fe3_eb6a_a17d, 0x8b1a_5fe3_eb6a_a17d]),
        (IndexKind::IvfFlat, Metric::Cosine, 32, 0, [0x8d93_4718_1406_3a8e, 0xa242_c942_9dd2_6988]),
        (IndexKind::IvfFlat, Metric::Cosine, 512, 0, [0x2392_5e7a_57a6_99be, 0x9d4c_a1a0_54ad_0b0e]),
        (IndexKind::IvfFlat, Metric::Cosine, 4096, 0, [0xb66f_6006_794b_24cf, 0xcc48_85a1_2149_bb29]),
        (IndexKind::IvfPq, Metric::L2, 32, 0, [0xe4bb_6afa_9bb4_2ecf, 0xe4bb_6afa_9bb4_2ecf]),
        (IndexKind::IvfPq, Metric::L2, 512, 0, [0x75da_10b9_b649_d3a8, 0x75da_10b9_b649_d3a8]),
        (IndexKind::IvfPq, Metric::L2, 4096, 0, [0xfdac_52aa_9c36_ede6, 0xfdac_52aa_9c36_ede6]),
        (IndexKind::IvfPq, Metric::Cosine, 32, 0, [0x6b5a_c9a7_9360_b29a, 0x67d9_8e47_35f9_185d]),
        (IndexKind::IvfPq, Metric::Cosine, 512, 0, [0xd885_26c1_fd25_af9d, 0x6c4a_f098_0152_2d76]),
        (IndexKind::IvfPq, Metric::Cosine, 4096, 0, [0x94ce_e928_c18b_641b, 0xb41a_3477_2916_22fc]),
        (IndexKind::IvfPqFs, Metric::L2, 32, 0, [0xe7f3_9f7e_4e3e_f24f, 0xe7f3_9f7e_4e3e_f24f]),
        (IndexKind::IvfPqFs, Metric::L2, 512, 0, [0xca9f_c762_3b0e_3f3a, 0xca9f_c762_3b0e_3f3a]),
        (IndexKind::IvfPqFs, Metric::L2, 4096, 0, [0x5f12_247a_f51e_7286, 0x5f12_247a_f51e_7286]),
        (IndexKind::IvfPqFs, Metric::Cosine, 32, 0, [0x01bf_5405_96ad_0760, 0x5708_f547_1b75_4a06]),
        (IndexKind::IvfPqFs, Metric::Cosine, 512, 0, [0x7ffc_9e61_b9f5_e9c0, 0xb916_afd8_00ab_5f17]),
        (IndexKind::IvfPqFs, Metric::Cosine, 4096, 0, [0x71d1_2572_d287_8c63, 0xda64_a2d8_16da_ed62]),
        (IndexKind::IvfPq, Metric::L2, 512, 8, [0x3a50_f959_9cb4_42c5, 0xf6ad_7a4d_22e7_2bec]),
        (IndexKind::IvfPqFs, Metric::Cosine, 512, 8, [0x4946_dc2d_ce54_f929, 0x7dc9_f69f_35d4_a46d]),
    ];

    #[test]
    fn pq_m_must_divide_dim() {
        let spec = IndexSpec::new(IndexKind::IvfPq, 10, Metric::L2).with_param("pq_m", 3);
        assert!(IvfBuilder::new(&spec, IndexKind::IvfPq).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (ivf, _) = build(IndexKind::IvfFlat, 50, 8, 4, Metric::L2, 12);
        assert!(ivf.search_with_bound(&[0.0; 7], 3, &SearchParams::default(), None, None).is_err());
    }
}
