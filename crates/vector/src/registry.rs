//! The index libraries behind the virtual index (§III-A).
//!
//! BlendHouse instantiates and loads vector indexes only through
//! [`IndexRegistry`]: `CreateIndex` is [`IndexRegistry::create_builder`] and
//! `LoadIndex` is [`IndexRegistry::load`]. Each is one `match` on the
//! [`IndexKind`], so plugging in a library is one arm in each plus a
//! [`VectorIndex`] / [`IndexBuilder`] impl. The built-in arms stand in for
//! the paper's libraries: hnswlib (`HNSW`, `HNSWSQ`) and faiss (`IVFFLAT`,
//! `IVFPQ`, `IVFPQFS`). `FLAT` has no library: a FLAT table builds and
//! loads nothing, and its segments are searched by the exact column scan.

use crate::hnsw::{HnswBuilder, HnswIndex};
use crate::ivf::{IvfBuilder, IvfIndex};
use crate::types::{IndexBuilder, IndexKind, IndexSpec, VectorIndex};
use bh_common::{BhError, Result};
use bytes::Bytes;
use std::sync::Arc;

/// Kind → implementation, for builds and loads.
#[derive(Debug)]
pub struct IndexRegistry;

impl IndexRegistry {
    /// `CreateIndex` entry point: a builder for `spec`, which the builder
    /// validates. FLAT declares no index, so it has no builder.
    pub fn create_builder(&self, spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>> {
        Ok(match spec.kind {
            IndexKind::Flat => return Err(no_flat_index()),
            IndexKind::Hnsw | IndexKind::HnswSq => Box::new(HnswBuilder::new(spec, spec.kind)?),
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => {
                Box::new(IvfBuilder::new(spec, spec.kind)?)
            }
        })
    }

    /// `LoadIndex` entry point: decode `blob` with `kind`'s reader. A raw
    /// `HNSW` blob holds the graph alone and takes `vectors`, its rows in
    /// node order — the segment's vector column, moved in; every other
    /// kind's blob carries its own payload and takes none. A blob of another
    /// format (or a truncated one) is an error of that reader. No FLAT blob
    /// exists to load.
    pub fn load(
        &self,
        kind: IndexKind,
        blob: &Bytes,
        vectors: Vec<f32>,
    ) -> Result<Arc<dyn VectorIndex>> {
        if !kind.loads_column() && !vectors.is_empty() {
            return Err(BhError::InvalidArgument(format!(
                "a {} blob carries its own vectors",
                kind.name()
            )));
        }
        Ok(match kind {
            IndexKind::Flat => return Err(no_flat_index()),
            IndexKind::Hnsw | IndexKind::HnswSq => Arc::new(HnswIndex::load(blob, vectors)?),
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => {
                Arc::new(IvfIndex::load_bytes(blob)?)
            }
        })
    }

    /// The table column a graph-only blob ([`IndexKind::loads_column`]) was
    /// built over, which its header names: what to load it with.
    pub fn indexed_column(&self, blob: &[u8]) -> Result<String> {
        HnswIndex::column_of(blob)
    }

    /// [`IndexRegistry::load`] with no vector rows: the decode alone. A raw
    /// `HNSW` graph loaded this way answers every search with
    /// `BhError::Index`.
    pub fn load_blob(&self, kind: IndexKind, blob: &Bytes) -> Result<Arc<dyn VectorIndex>> {
        self.load(kind, blob, Vec::new())
    }
}

fn no_flat_index() -> BhError {
    BhError::InvalidArgument(
        "FLAT has no index structure: its segments are searched by the exact column scan".into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Neighbor, SearchParams};
    use crate::{search_with_range, Metric};
    use bh_common::Bitset;
    use proptest::prelude::*;

    #[test]
    fn build_save_load_via_registry_for_every_kind() {
        let dim = 8;
        let n = 200;
        let data: Vec<f32> = (0..n * dim).map(|i| ((i * 37) % 100) as f32 / 10.0).collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        for kind in IndexKind::ALL {
            let spec = IndexSpec::new(kind, dim, Metric::L2).with_param("nlist", 8);
            if kind == IndexKind::Flat {
                assert!(matches!(
                    IndexRegistry.create_builder(&spec),
                    Err(BhError::InvalidArgument(_))
                ));
                let blob = Bytes::from_static(b"BHFL");
                assert!(matches!(
                    IndexRegistry.load_blob(kind, &blob),
                    Err(BhError::InvalidArgument(_))
                ));
                continue;
            }
            let mut b = IndexRegistry.create_builder(&spec).unwrap();
            if b.requires_training() {
                b.train(&data).unwrap();
            }
            b.add_with_ids(&data, &ids).unwrap();
            let idx = b.finish().unwrap();
            assert_eq!(idx.meta().len, n, "{kind:?}");
            let blob = idx.save_bytes().unwrap();
            let column = if kind.loads_column() { data.clone() } else { Vec::new() };
            let loaded = IndexRegistry.load(kind, &blob, column).unwrap();
            assert_eq!(loaded.meta().kind, kind);
            let search = |idx: &dyn VectorIndex| {
                idx.search_with_bound(&data[0..dim], 3, &SearchParams::default(), None, None)
            };
            assert!(!search(&*loaded).unwrap().is_empty(), "{kind:?} returned nothing");
            // The decode alone: a raw graph without its column refuses to
            // search, and a blob with its own payload takes no column.
            let decoded = IndexRegistry.load_blob(kind, &blob).unwrap();
            assert_eq!(search(&*decoded).is_err(), kind.loads_column(), "{kind:?}");
            if !kind.loads_column() {
                assert!(IndexRegistry.load(kind, &blob, data.clone()).is_err(), "{kind:?}");
            }

            // Bytes of another format and a cut-off blob are errors of the
            // kind's reader. `BHT3` is the retired head + body container.
            let mut framed = b"BHT3".to_vec();
            framed.extend_from_slice(&blob);
            assert!(
                matches!(
                    IndexRegistry.load_blob(kind, &Bytes::from(framed)),
                    Err(BhError::Serde(_))
                ),
                "{kind:?}"
            );
            assert!(
                IndexRegistry.load_blob(kind, &blob.slice(..blob.len() - 3)).is_err(),
                "{kind:?}"
            );
        }
    }

    /// Ids and distance bits of every way the executor drives a graph:
    /// the plain beam, Plan B's widened beam, Plan D's traversal, the
    /// iterator pulled to exhaustion, and a range pull out to `radius`.
    fn every_answer(
        idx: &dyn VectorIndex,
        q: &[f32],
        allow: &Bitset,
        radius: f32,
    ) -> Vec<Vec<(u64, u32)>> {
        let bits =
            |hits: Vec<Neighbor>| hits.iter().map(|nb| (nb.id, nb.distance.to_bits())).collect();
        let plain = SearchParams::default().with_ef(32);
        let widened = plain.with_selectivity(0.34);
        let walk = widened.with_filter_traversal(true);
        let mut out: Vec<Vec<(u64, u32)>> =
            [(&plain, None), (&widened, Some(allow)), (&walk, Some(allow))]
                .into_iter()
                .map(|(p, f)| bits(idx.search_with_bound(q, 10, p, f, None).unwrap()))
                .collect();
        let mut it = idx.search_iterator(q, &plain).unwrap();
        let mut pulled = Vec::new();
        loop {
            let batch = it.next_batch(16).unwrap();
            if batch.is_empty() {
                break;
            }
            pulled.extend(batch);
        }
        out.push(bits(pulled));
        let mut it = idx.search_iterator(q, &plain).unwrap();
        out.push(bits(search_with_range(&mut *it, Some(radius), 16, usize::MAX, 16, Ok).unwrap()));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
        /// An HNSW or HNSWSQ index saved, then loaded with its column (raw
        /// HNSW) or alone (HNSWSQ), answers exactly as the builder's own
        /// index does, under L2, inner product and cosine.
        #[test]
        fn prop_a_round_trip_is_bit_identical(
            sq in any::<bool>(),
            metric in 0usize..3,
            n in 1usize..300,
            seed in any::<u64>(),
        ) {
            let kind = if sq { IndexKind::HnswSq } else { IndexKind::Hnsw };
            let metric = [Metric::L2, Metric::InnerProduct, Metric::Cosine][metric];
            let dim = 8;
            let data: Vec<f32> = (0..n * dim)
                .map(|j| (bh_common::rng::derive_seed(seed, j as u64) >> 40) as f32 / (1u64 << 20) as f32 - 8.0)
                .collect();
            let ids: Vec<u64> = (0..n as u64).collect();
            let spec = IndexSpec::new(kind, dim, metric).with_param("ef_construction", 40).on_column("emb");
            let mut builder = IndexRegistry.create_builder(&spec).unwrap();
            if builder.requires_training() {
                builder.train(&data).unwrap();
            }
            builder.add_with_ids(&data, &ids).unwrap();
            let built = builder.finish().unwrap();
            let column = if kind.loads_column() { data.clone() } else { Vec::new() };
            let loaded = IndexRegistry.load(kind, &built.save_bytes().unwrap(), column).unwrap();
            let q: Vec<f32> = data[..dim].iter().map(|x| x + 0.25).collect();
            let allow = Bitset::from_positions(n, (0..n).filter(|i| i % 3 == 0));
            let mut it = built.search_iterator(&q, &SearchParams::default()).unwrap();
            let near = it.next_batch(n / 3 + 1).unwrap();
            let radius = near.last().map_or(0.0, |nb| nb.distance);
            prop_assert_eq!(
                every_answer(&*built, &q, &allow, radius),
                every_answer(&*loaded, &q, &allow, radius)
            );
        }
    }
}
