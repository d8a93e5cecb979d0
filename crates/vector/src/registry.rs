//! The index libraries behind the virtual index (§III-A).
//!
//! BlendHouse instantiates and loads vector indexes only through
//! [`IndexRegistry`]: `CreateIndex` is [`IndexRegistry::create_builder`] and
//! `LoadIndex` is [`IndexRegistry::load_blob`]. Each is one `match` on the
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

    /// `LoadIndex` entry point: decode `blob` with `kind`'s reader. A blob
    /// of another format (or a truncated one) is an error of that reader.
    /// No FLAT blob exists to load.
    pub fn load_blob(&self, kind: IndexKind, blob: &Bytes) -> Result<Arc<dyn VectorIndex>> {
        Ok(match kind {
            IndexKind::Flat => return Err(no_flat_index()),
            IndexKind::Hnsw | IndexKind::HnswSq => Arc::new(HnswIndex::load_bytes(blob)?),
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => {
                Arc::new(IvfIndex::load_bytes(blob)?)
            }
        })
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
    use crate::types::SearchParams;
    use crate::Metric;

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
            let loaded = IndexRegistry.load_blob(kind, &blob).unwrap();
            assert_eq!(loaded.meta().kind, kind);
            let got = loaded
                .search_with_bound(&data[0..dim], 3, &SearchParams::default(), None, None)
                .unwrap();
            assert!(!got.is_empty(), "{kind:?} returned nothing");

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
}
