//! IVF/PQ build path (DESIGN.md §10.5): the point-slab nearest-centroid
//! kernel against the per-row dispatch it replaced, and what it and the
//! subspace / row-tile fan-out make of a whole index build.
//!
//! Five tables, bottom row of the write path's cost first:
//!
//! 1. ns per (point, codebook) for "nearest of `k` centroids at `dim`" —
//!    `distance_batch` + a first-lowest scan per point (the shape k-means,
//!    `Pq::encode` and `Pq::adc_table` once had) vs one
//!    `Codebook::nearest_in` call over all points, at (k, dim) = (16, 4),
//!    (256, 4), (16, 2). Index and distance bits are asserted equal before
//!    anything is timed.
//! 2. ns per ADC table (one probed cell of an IVFPQ / IVFPQFS search).
//! 3. `train` / `add_with_ids` ns per row for IVFFLAT / IVFPQ / IVFPQFS at
//!    512 / 4,096 / 16,384 rows × dim 64, on a pool without helpers and on
//!    one sized to the machine. The two blobs are asserted byte-identical,
//!    and on the AVX2 tier the IVFPQFS blobs' FNV-1a against constants.
//!    The same for HNSW's `add_with_ids` (batch-synchronous insertion,
//!    DESIGN.md §10.6) at 1,000 and 8,000 rows × dim 64: µs per row, the
//!    distances the build computed (`dist_evals`) and the blob's FNV-1a,
//!    all asserted equal across runs and pools, the hash against constants
//!    on AVX2.
//! 4. The stages of an IVFPQFS `train` — coarse k-means, residual pass, PQ
//!    training — timed through the same public functions with the builder's
//!    parameters, plus `add_with_ids`, at 512 and 16,128 rows (the insert
//!    and the last compaction of the `ingest_mixed` benchmark workload).
//!
//! 5. One write pass through `Database` — 32 INSERTs of 512 rows into an
//!    IVFPQFS table with a compaction after every 8th, the write schedule
//!    of `ingest_mixed` — and the share of its wall time the
//!    `table.index_*_ns` / `table.compact_ns` histograms put in each stage.
//!    `store_fnv` hashes every `(key, blob)` the pass left in the store;
//!    it is asserted equal across the three passes and, on the AVX2 tier,
//!    to a constant, and `bench-diff` compares it with the committed one
//!    exactly. The same pass is then replayed once per ingest mode on a
//!    virtual clock whose store charges a fixed cost per operation:
//!    `pipelined_sim_ns` and `staged_sim_ns` are what the write step cost on
//!    that clock. They count operations and the uploads that overlapped, so
//!    they repeat on every kernel tier, are asserted against constants and
//!    are exact in `bench-diff`. Both replays must leave the first pass's
//!    store bytes. The file is written before any of these asserts runs.
//!
//! Every build, stage and write-pass row also carries the exact k-means
//! work behind it (`bh_vector::kmeans::work_done`): Lloyd iterations,
//! seeding rounds and point–centroid distance evaluations. They follow from
//! the data, the parameters and the distance bits, are asserted equal
//! across the repeats and pool sizes of a row, and a change that moves them
//! changed the algorithm, not its speed.
//!
//! Besides the printed tables, results are written to
//! `target/bench-fresh/BENCH_build.json` in the schema of the committed
//! `BENCH_build.json`, so `cargo run -p xtask -- bench-diff` can compare.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{median, print_table, write_fresh_json, Timer};
use bh_common::{DeploymentLatencies, FanoutPool, LatencyModel};
use bh_storage::table::IngestMode;
use bh_vector::autoindex::auto_nlist;
use bh_vector::distance::{distance_batch, Codebook, KernelTier};
use bh_vector::hnsw::HnswBuilder;
use bh_vector::ivf::IvfBuilder;
use bh_vector::kmeans::{train_kmeans_on, work_done, KMeansParams, KMeansWork};
use bh_vector::quant::pq::{AdcTable, CodeBits, Pq, PqParams};
use bh_vector::{IndexBuilder, IndexKind, IndexSpec, Metric};
use blendhouse::{Database, DatabaseConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 64;
const REPS: usize = 9;

/// Deterministic values in `[-1, 1)`.
fn values(n: usize, seed: u64) -> Vec<f32> {
    (0..n as u64)
        .map(|j| (bh_common::rng::derive_seed(seed, j) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

/// FNV-1a of the IVFPQFS blobs at 512 / 4,096 / 16,384 rows on the AVX2
/// tier: the bytes `golden_build_blob_identity` pins, at bench scale.
const IVFPQFS_BLOB_FNV: [(usize, u64); 3] = [
    (512, 0x7668_134b_feb9_6694),
    (4_096, 0x0630_f3d9_7071_f545),
    (16_384, 0x1885_6f9d_759b_eaf1),
];

/// FNV-1a of the HNSW blobs at 1,000 / 8,000 rows on the AVX2 tier.
const HNSW_BLOB_FNV: [(usize, u64); 2] =
    [(1_000, 0x9c3f_aed5_d387_ad4f), (8_000, 0x8f89_4cc5_496f_39f4)];

/// FNV-1a of what a write pass leaves in the store on the AVX2 tier,
/// derived before the write path took typed columns: column blocks, metas
/// and index blobs have not moved a byte since.
const WRITE_PASS_STORE_FNV: u64 = 0xd4ee_db53_a75e_829a;

/// What every store operation of the timed write passes costs on their
/// virtual clock, whatever its size.
const WRITE_OP_NS: u64 = 100_000;

/// Virtual-clock nanos of the write pass under `Pipelined` and under
/// `Staged` ingest, at `WRITE_OP_NS` per store operation.
/// `Staged` waits out each of the pass's 510 operations; `Pipelined` waits
/// out each statement's block uploads as one, 108 waits fewer.
const WRITE_PASS_SIM_NS: [(IngestMode, u64); 2] =
    [(IngestMode::Pipelined, 40_200_000), (IngestMode::Staged, 51_000_000)];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `h` (`FNV_OFFSET` to start).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a over every `(key, blob)` the database's store holds, in key
/// order: each key, a 0xff byte, then the blob.
fn store_fnv(db: &Database) -> u64 {
    let store = db.remote_store();
    let mut keys = store.list("");
    keys.sort();
    keys.iter().fold(FNV_OFFSET, |h, key| {
        let h = fnv1a(fnv1a(h, key.as_bytes()), &[0xff]);
        fnv1a(h, &store.get(key).expect("listed key"))
    })
}

/// The JSON fields of a row's exact k-means work.
fn work_json(w: KMeansWork) -> String {
    format!(
        "\"lloyd_iters\": {}, \"seed_rounds\": {}, \"point_centroid_evals\": {}",
        w.lloyd_iters, w.seed_rounds, w.evals
    )
}

/// `(per_row_ns, kernel_ns)` per (point, codebook) at one shape.
fn time_nearest(k: usize, dim: usize) -> (f64, f64) {
    let points = 8_192;
    let rows = values(k * dim, 1);
    let data = values(points * dim, 2);
    let book = Codebook::new(&rows, dim).unwrap();
    let slab = Codebook::new(&data, dim).unwrap();
    let mut near = vec![(0u32, 0.0f32); points];
    let mut dists = vec![0.0f32; k];
    let per_row = |p: &[f32], dists: &mut Vec<f32>| {
        distance_batch(Metric::L2, p, &rows, dim, dists).unwrap();
        let mut best = 0;
        for c in 1..k {
            if dists[c] < dists[best] {
                best = c;
            }
        }
        (best, dists[best])
    };
    slab.nearest_in(&book, 0, &mut near).unwrap();
    for (p, &(c, d)) in data.chunks_exact(dim).zip(&near) {
        let a = per_row(p, &mut dists);
        assert_eq!(
            (a.0, a.1.to_bits()),
            (c as usize, d.to_bits()),
            "k {k} dim {dim}"
        );
    }
    let (mut old, mut new) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Timer::start();
        let mut acc = 0usize;
        for p in data.chunks_exact(dim) {
            acc += per_row(p, &mut dists).0;
        }
        black_box(acc);
        old.push(t.secs() * 1e9 / points as f64);

        let t = Timer::start();
        slab.nearest_in(&book, 0, &mut near).unwrap();
        black_box(&near);
        new.push(t.secs() * 1e9 / points as f64);
    }
    (median(old), median(new))
}

/// ns per `adc_table_into` of a dim-64, `dsub` = 4 quantizer.
fn time_adc_table(bits: CodeBits, data: &[f32]) -> f64 {
    let pq = Pq::train(
        &data[..2_048 * DIM],
        DIM,
        Metric::L2,
        &PqParams::new(DIM / 4, bits),
    )
    .unwrap();
    let mut table = AdcTable::default();
    let calls = 4_096;
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let t = Timer::start();
        for q in data.chunks_exact(DIM).take(calls) {
            pq.adc_table_into(q, &mut table).unwrap();
            black_box(&table);
        }
        samples.push(t.secs() * 1e9 / calls as f64);
    }
    median(samples)
}

struct BuildTimes {
    train_ns_per_row: f64,
    add_ns_per_row: f64,
    blob: Vec<u8>,
    work: KMeansWork,
}

/// One IVF build on `pool`, the way the table store drives it.
fn build(kind: IndexKind, data: &[f32], pool: &Arc<FanoutPool>) -> BuildTimes {
    let rows = data.len() / DIM;
    let spec = IndexSpec::new(kind, DIM, Metric::L2).with_param("nlist", auto_nlist(rows));
    let ids: Vec<u64> = (0..rows as u64).collect();
    let mut b = Box::new(IvfBuilder::with_pool(&spec, kind, Arc::clone(pool)).unwrap());
    let before = work_done();
    let t = Timer::start();
    b.train(data).unwrap();
    let train_ns_per_row = t.secs() * 1e9 / rows as f64;
    let t = Timer::start();
    b.add_with_ids(data, &ids).unwrap();
    let add_ns_per_row = t.secs() * 1e9 / rows as f64;
    let work = work_done() - before;
    let blob = (b as Box<dyn IndexBuilder>)
        .finish()
        .unwrap()
        .save_bytes()
        .unwrap()
        .to_vec();
    BuildTimes {
        train_ns_per_row,
        add_ns_per_row,
        blob,
        work,
    }
}

/// What every run of one build must reproduce: the blob and the k-means
/// work behind it.
type Built = Option<(Vec<u8>, KMeansWork)>;

/// Median-of-three build times on one pool; every blob and work count must
/// be `want`'s.
fn time_build(
    kind: IndexKind,
    data: &[f32],
    pool: &Arc<FanoutPool>,
    want: &mut Built,
) -> (f64, f64) {
    let (mut train, mut add) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let times = build(kind, data, pool);
        let want = want.get_or_insert_with(|| (times.blob.clone(), times.work));
        assert!(
            want.0 == times.blob,
            "{kind:?}: blob depends on the pool or the run"
        );
        assert_eq!(
            want.1, times.work,
            "{kind:?}: k-means work depends on the pool or the run"
        );
        train.push(times.train_ns_per_row);
        add.push(times.add_ns_per_row);
    }
    (median(train), median(add))
}

/// Median-of-three HNSW `add_with_ids` on `pool`, µs per row; every run's
/// blob and distance count must be `want`'s.
fn time_hnsw(data: &[f32], pool: &Arc<FanoutPool>, want: &mut Option<(Vec<u8>, u64)>) -> f64 {
    let rows = data.len() / DIM;
    let ids: Vec<u64> = (0..rows as u64).collect();
    let spec = IndexSpec::new(IndexKind::Hnsw, DIM, Metric::L2);
    let mut us = Vec::new();
    for _ in 0..3 {
        let mut b =
            Box::new(HnswBuilder::with_pool(&spec, IndexKind::Hnsw, Arc::clone(pool)).unwrap());
        let t = Timer::start();
        b.add_with_ids(data, &ids).unwrap();
        us.push(t.secs() * 1e6 / rows as f64);
        let evals = b.dist_evals();
        let blob = (b as Box<dyn IndexBuilder>)
            .finish()
            .unwrap()
            .save_bytes()
            .unwrap()
            .to_vec();
        let want = want.get_or_insert_with(|| (blob.clone(), evals));
        assert!(want.0 == blob, "HNSW blob depends on the pool or the run");
        assert_eq!(want.1, evals, "HNSW distance count depends on the pool or the run");
    }
    median(us)
}

/// The stages of an IVFPQFS `train` on `pool`, ns per row: coarse k-means,
/// residual pass, PQ training — the builder's own parameters — and the
/// k-means work of the two trainings, asserted equal across the repeats.
fn time_stages(data: &[f32], pool: &FanoutPool) -> ([f64; 3], KMeansWork) {
    let rows = data.len() / DIM;
    let nlist = auto_nlist(rows);
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    let mut work = None;
    for _ in 0..3 {
        let before = work_done();
        let t = Timer::start();
        let coarse = train_kmeans_on(
            pool,
            data,
            DIM,
            &KMeansParams {
                k: nlist,
                max_iters: 6,
                seed: 0,
                sample_limit: (nlist * 24).clamp(1_024, 16_384),
            },
        )
        .unwrap();
        samples[0].push(t.secs() * 1e9 / rows as f64);

        let t = Timer::start();
        let mut residuals = Vec::with_capacity(data.len());
        let mut dists = Vec::new();
        for v in data.chunks_exact(DIM) {
            let c = coarse.centroid(coarse.assign_into(v, &mut dists).unwrap());
            residuals.extend(v.iter().zip(c).map(|(a, b)| a - b));
        }
        samples[1].push(t.secs() * 1e9 / rows as f64);

        let t = Timer::start();
        let params = PqParams {
            m: DIM / 4,
            bits: CodeBits::B4,
            seed: 0,
            kmeans_iters: 8,
        };
        black_box(Pq::train_on(pool, &residuals, DIM, Metric::L2, &params).unwrap());
        samples[2].push(t.secs() * 1e9 / rows as f64);
        let done = work_done() - before;
        assert_eq!(
            *work.get_or_insert(done),
            done,
            "stage work depends on the run"
        );
    }
    (samples.map(median), work.expect("three repeats"))
}

/// What one write pass measured: `[wall, train, add, serialize, compact]`
/// in ms, the k-means work, the FNV-1a of the store and the nanos the
/// database clock moved.
type WritePass = ([f64; 5], KMeansWork, u64, u64);

/// One write pass through a database of `cfg`; `[wall, train, add,
/// serialize, compact]` in ms, the last four from the table store's own
/// histograms (index builds inside a compaction count in both), the
/// k-means work of the pass, the FNV-1a of what it left in the store and
/// how far the pass moved the database's clock.
fn write_pass(data: &[f32], cfg: DatabaseConfig) -> WritePass {
    let (inserts, batch) = (32, 512);
    let sqls: Vec<String> = (0..inserts)
        .map(|b| {
            let mut sql = String::from("INSERT INTO t VALUES ");
            for i in b * batch..(b + 1) * batch {
                let sep = if i % batch == 0 { "" } else { ", " };
                write!(sql, "{sep}({i}, {:?})", &data[i * DIM..(i + 1) * DIM])
                    .expect("string write");
            }
            sql
        })
        .collect();
    let db = Database::new(cfg);
    db.execute(&format!(
        "CREATE TABLE t (id UInt64, emb Array(Float32), INDEX ann emb TYPE IVFPQFS('DIM={DIM}')) ORDER BY id"
    ))
    .unwrap();
    let before = work_done();
    let clock_before = db.clock().now_nanos();
    let t = Timer::start();
    for (b, sql) in sqls.iter().enumerate() {
        db.execute(sql).unwrap();
        if b % 8 == 7 {
            db.compact("t").unwrap();
        }
    }
    let wall = t.secs() * 1e3;
    let sim_ns = db.clock().now_nanos() - clock_before;
    let work = work_done() - before;
    let ms = |name: &str| db.metrics().histogram(name).snapshot().sum.as_secs_f64() * 1e3;
    (
        [
            wall,
            ms("table.index_train_ns"),
            ms("table.index_add_ns"),
            ms("table.index_serialize_ns"),
            ms("table.compact_ns"),
        ],
        work,
        store_fnv(&db),
        sim_ns,
    )
}

/// [`write_pass`] on a virtual clock whose store charges `WRITE_OP_NS` per
/// operation, under `mode`.
fn timed_write_pass(data: &[f32], mode: IngestMode) -> WritePass {
    let mut cfg = DatabaseConfig {
        latencies: DeploymentLatencies {
            remote_store: LatencyModel::fixed(std::time::Duration::from_nanos(WRITE_OP_NS)),
            rpc: LatencyModel::ZERO,
        },
        ..Default::default()
    };
    cfg.table.ingest_mode = mode;
    write_pass(data, cfg)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let solo = Arc::new(FanoutPool::new(0));
    let machine = Arc::new(FanoutPool::for_machine());
    let dataset = DatasetSpec {
        name: "index-build",
        n: 16_384,
        dim: DIM,
        clusters: 64,
        seed: 17,
    }
    .generate();
    let data = &dataset.vectors;

    // 1. The kernel.
    let mut rows = Vec::new();
    let mut nearest_json = Vec::new();
    let mut speedup_16_4 = 0.0;
    for (k, dim) in [(16usize, 4usize), (256, 4), (16, 2)] {
        let (old, new) = time_nearest(k, dim);
        if (k, dim) == (16, 4) {
            speedup_16_4 = old / new;
        }
        rows.push(vec![
            format!("{k}"),
            format!("{dim}"),
            format!("{old:.1}"),
            format!("{new:.1}"),
            format!("{:.2}", old / new),
        ]);
        nearest_json.push(format!(
            "    {{ \"k\": {k}, \"dim\": {dim}, \"per_row_ns\": {old:.1}, \"kernel_ns\": {new:.1}, \
             \"speedup\": {:.2} }}",
            old / new
        ));
    }
    print_table(
        "nearest centroid, ns per (point, codebook)",
        &["k", "dim", "per-row", "kernel", "speedup"],
        &rows,
    );

    // 2. One probed cell's lookup table.
    let mut adc_json = Vec::new();
    let mut rows = Vec::new();
    for (bits, name) in [(CodeBits::B4, 4), (CodeBits::B8, 8)] {
        let ns = time_adc_table(bits, data);
        rows.push(vec![format!("{name}"), format!("{ns:.0}")]);
        adc_json.push(format!(
            "    {{ \"bits\": {name}, \"m\": {}, \"dsub\": 4, \"table_ns\": {ns:.0} }}",
            DIM / 4
        ));
    }
    print_table(
        "ADC table build, dim 64 / dsub 4 (ns per probed cell)",
        &["bits", "ns"],
        &rows,
    );

    // 3. Whole builds, without and with helpers. Exact values off their
    // constants are asserted once the file is written.
    let mut moved = Vec::new();
    let mut rows = Vec::new();
    let mut build_json = Vec::new();
    for kind in [IndexKind::IvfFlat, IndexKind::IvfPq, IndexKind::IvfPqFs] {
        for n in [512usize, 4_096, 16_384] {
            let mut built = None;
            for (pool, helpers) in [(&solo, 0), (&machine, cores - 1)] {
                let (train, add) = time_build(kind, &data[..n * DIM], pool, &mut built);
                let (blob, work) = built.as_ref().expect("built");
                let fnv = fnv1a(FNV_OFFSET, blob);
                if kind == IndexKind::IvfPqFs && KernelTier::current() == KernelTier::Avx2 {
                    let want = IVFPQFS_BLOB_FNV
                        .iter()
                        .find(|&&(rows, _)| rows == n)
                        .expect("a constant per size")
                        .1;
                    if fnv != want {
                        moved.push(format!("IVFPQFS blob at {n} rows: {fnv:#018x}"));
                    }
                }
                rows.push(vec![
                    kind.name().to_string(),
                    format!("{n}"),
                    format!("{helpers}"),
                    format!("{:.2}", train / 1e3),
                    format!("{:.2}", add / 1e3),
                ]);
                build_json.push(format!(
                    "    {{ \"kind\": \"{}\", \"rows\": {n}, \"pool_helpers\": {helpers}, \
                     \"train_ns_per_row\": {train:.0}, \"add_ns_per_row\": {add:.0}, {}, \
                     \"blob_fnv\": \"{fnv:#018x}\" }}",
                    kind.name(),
                    work_json(*work)
                ));
            }
        }
    }
    print_table(
        "IVF build, dim 64 (us per row; blobs byte-identical across pools)",
        &["kind", "rows", "helpers", "train", "add_with_ids"],
        &rows,
    );
    let mut rows = Vec::new();
    let mut hnsw_json = Vec::new();
    for (n, want_fnv) in HNSW_BLOB_FNV {
        let mut built = None;
        for (pool, helpers) in [(&solo, 0), (&machine, cores - 1)] {
            let us = time_hnsw(&data[..n * DIM], pool, &mut built);
            let (blob, evals) = built.as_ref().expect("built");
            let fnv = fnv1a(FNV_OFFSET, blob);
            if KernelTier::current() == KernelTier::Avx2 && fnv != want_fnv {
                moved.push(format!("HNSW blob at {n} rows: {fnv:#018x}"));
            }
            rows.push(vec![
                format!("{n}"),
                format!("{helpers}"),
                format!("{us:.1}"),
                format!("{:.0}", *evals as f64 / n as f64),
            ]);
            hnsw_json.push(format!(
                "    {{ \"kind\": \"HNSW\", \"rows\": {n}, \"pool_helpers\": {helpers}, \
                 \"build_us_per_row\": {us:.1}, \"dist_evals\": {evals}, \"blob_fnv\": \"{fnv:#018x}\" }}"
            ));
        }
    }
    print_table(
        "HNSW build, dim 64 (add_with_ids; blobs and distance counts identical across pools)",
        &["rows", "helpers", "us per row", "distances per row"],
        &rows,
    );

    // 4. Where an IVFPQFS build's time goes.
    let mut rows = Vec::new();
    let mut stage_json = Vec::new();
    for n in [512usize, 16_128] {
        for (pool, helpers) in [(&solo, 0), (&machine, cores - 1)] {
            let ([coarse, resid, pq], work) = time_stages(&data[..n * DIM], pool);
            let (_, add) = time_build(IndexKind::IvfPqFs, &data[..n * DIM], pool, &mut None);
            let ms = |ns_per_row: f64| format!("{:.2}", ns_per_row * n as f64 / 1e6);
            rows.push(vec![
                format!("{n}"),
                format!("{helpers}"),
                ms(coarse),
                ms(resid),
                ms(pq),
                ms(add),
            ]);
            stage_json.push(format!(
                "    {{ \"rows\": {n}, \"pool_helpers\": {helpers}, \"coarse_kmeans_ns_per_row\": {coarse:.0}, \
                 \"residual_pass_ns_per_row\": {resid:.0}, \"pq_train_ns_per_row\": {pq:.0}, \
                 \"add_ns_per_row\": {add:.0}, {} }}",
                work_json(work)
            ));
        }
    }
    print_table(
        "IVFPQFS build stages, dim 64 (ms per build)",
        &[
            "rows",
            "helpers",
            "coarse k-means",
            "residual pass",
            "PQ train",
            "add_with_ids",
        ],
        &rows,
    );

    // 5. A write pass through the facade, by the table store's histograms,
    // then once per ingest mode on the virtual clock.
    let mut passes: Vec<WritePass> =
        (0..3).map(|_| write_pass(data, DatabaseConfig::default())).collect();
    let (pass_work, pass_fnv) = (passes[0].1, passes[0].2);
    if passes.iter().any(|p| p.1 != pass_work) {
        moved.push("write-pass work depends on the run".into());
    }
    if passes.iter().any(|p| p.2 != pass_fnv) {
        moved.push("write-pass store bytes depend on the run".into());
    }
    if KernelTier::current() == KernelTier::Avx2 && pass_fnv != WRITE_PASS_STORE_FNV {
        moved.push(format!("write-pass store bytes: {pass_fnv:#018x}"));
    }
    let sim_ns = WRITE_PASS_SIM_NS.map(|(mode, want)| {
        let (_, _, fnv, got) = timed_write_pass(data, mode);
        if fnv != pass_fnv {
            moved.push(format!("{mode:?} write pass stores other bytes: {fnv:#018x}"));
        }
        if got != want {
            moved.push(format!("{mode:?} write pass sim_ns: {got}"));
        }
        got
    });
    let [pipelined_sim_ns, staged_sim_ns] = sim_ns;
    println!(
        "[index_build] write pass on the virtual clock ({WRITE_OP_NS} ns per store operation): \
         pipelined {pipelined_sim_ns} ns, staged {staged_sim_ns} ns"
    );
    passes.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
    let [wall, train, add, serialize, compact] = passes[1].0;
    let share = |ms: f64| format!("{:.1} %", 100.0 * ms / wall);
    print_table(
        "write pass through Database: 32 x 512-row INSERT, compaction every 8th (median of 3)",
        &[
            "wall ms",
            "index train",
            "index add",
            "index serialize",
            "compaction (incl. its builds)",
        ],
        &[vec![
            format!("{wall:.0}"),
            share(train),
            share(add),
            share(serialize),
            share(compact),
        ]],
    );
    let pass_json = format!(
        "{{ \"inserts\": 32, \"rows_per_insert\": 512, \"compact_every\": 8, \"wall_ms\": {wall:.1}, \
         \"index_train_ms\": {train:.1}, \"index_add_ms\": {add:.1}, \"index_serialize_ms\": {serialize:.1}, \
         \"compact_ms\": {compact:.1}, \"train_share\": {:.3}, {}, \"store_fnv\": \"{pass_fnv:#018x}\", \
         \"store_op_sim_ns\": {WRITE_OP_NS}, \"pipelined_sim_ns\": {pipelined_sim_ns}, \"staged_sim_ns\": {staged_sim_ns} }}",
        train / wall,
        work_json(pass_work)
    );

    let verdict = if speedup_16_4 >= 4.0 {
        "met"
    } else {
        "NOT met"
    };
    println!("[index_build] kernel vs per-row at (16, 4): {speedup_16_4:.2}x (acceptance >= 4x: {verdict})");
    let json = format!(
        "{{\n  \"benchmark\": \"IVF/PQ build path: dimension-major nearest-centroid kernel and build fan-out\",\n  \
         \"machine\": {{ \"arch\": \"{}\", \"kernel_tier_detected\": \"{}\", \"cores\": {cores} }},\n  \
         \"method\": \"crates/bench/benches/index_build.rs (plain-main harness). nearest_centroid: median of {REPS} passes over 8192 points, ns per (point, codebook); per_row is distance_batch + first-lowest scan per point, kernel is one Codebook::nearest_in over all points (points in lanes), index and distance bits asserted equal first. adc_table: median ns per Pq::adc_table_into at dim 64 / dsub 4. build: median of 3 IvfBuilder train / add_with_ids at dim 64 on a 64-cluster Gaussian mixture, nlist by the auto rule, on a pool with 0 helpers and on FanoutPool::for_machine(); the blobs of all runs asserted byte-identical, IVFPQFS blob FNV-1a asserted against constants on AVX2. hnsw_build: median of 3 HnswBuilder add_with_ids (M 16, ef_construction 128) at dim 64 on the same rows and pools, build_us_per_row wall time; dist_evals (HnswBuilder::dist_evals, the distances one build computed) and blob_fnv asserted equal across runs and pools, blob_fnv against constants on AVX2. stages: the three parts of an IVFPQFS train timed through train_kmeans_on / assign_into / Pq::train_on with the builder's parameters on the row's pool. Exact fields (lloyd_iters, seed_rounds, point_centroid_evals: bh_vector::kmeans::work_done deltas; dist_evals; blob_fnv) are asserted equal across repeats and pools. write_pass: median-wall of 3 passes of 32 SQL INSERTs of 512 rows with Database::compact after every 8th, stage times read from the table.index_*_ns and table.compact_ns histograms; store_fnv is FNV-1a over every (key, 0xff, blob) in the store after a pass, in key order, asserted equal across the passes and, on AVX2, to a constant; pipelined_sim_ns / staged_sim_ns: the same pass replayed once per ingest mode on a virtual clock whose store charges store_op_sim_ns per operation, the clock's movement over the pass, asserted against constants on every tier and the store bytes asserted equal to the first pass's. The constants (blob_fnv, store_fnv, the two sim_ns) and the write passes' repeats are checked after this file is written.\",\n  \
         \"acceptance\": \"kernel >= 4x per-row at (16, 4) ({verdict}: {speedup_16_4:.2}x); byte-identical blobs across pool sizes (asserted)\",\n  \
         \"nearest_centroid\": [\n{}\n  ],\n  \"adc_table\": [\n{}\n  ],\n  \"build\": [\n{}\n  ],\n  \"hnsw_build\": [\n{}\n  ],\n  \"stages\": [\n{}\n  ],\n  \
         \"write_pass\": {pass_json}\n}}\n",
        std::env::consts::ARCH,
        KernelTier::current().name(),
        nearest_json.join(",\n"),
        adc_json.join(",\n"),
        build_json.join(",\n"),
        hnsw_json.join(",\n"),
        stage_json.join(",\n"),
    );
    write_fresh_json("BENCH_build.json", &json);
    assert!(moved.is_empty(), "exact values moved:\n{}", moved.join("\n"));
    assert!(pipelined_sim_ns < staged_sim_ns, "pipelined uploads overlap nothing");
}
