//! Pluggable index-library registry (§III-A).
//!
//! BlendHouse instantiates and loads vector indexes exclusively through an
//! [`IndexRegistry`]. Each index "library" contributes an [`IndexFactory`];
//! the registry routes an [`IndexSpec`] to the factory registered for its
//! [`IndexKind`]. Registering a factory for an already-claimed kind replaces
//! the previous provider — that is the pluggability mechanism: swapping the
//! HNSW implementation is one `register` call, no engine changes.
//!
//! Three built-in factories mirror the paper's three integrated libraries:
//!
//! * `bh-hnswlib` — `HNSW`, `HNSWSQ` (with the iterative-search extension),
//! * `bh-faiss` — `FLAT`, `IVFFLAT`, `IVFPQ`, `IVFPQFS`,
//! * `bh-diskann` — `DISKANN`.

use crate::flat::{FlatBuilder, FlatIndex};
use crate::hnsw::{HnswBuilder, HnswIndex};
use crate::ivf::{IvfBuilder, IvfIndex};
use crate::types::{IndexBuilder, IndexKind, IndexSpec, VectorIndex};
use crate::vamana::{DiskAnnBuilder, DiskAnnIndex};
use bh_common::{BhError, Result};
use bytes::Bytes;
use bh_common::sync::{classes, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// A provider of one or more index implementations.
pub trait IndexFactory: Send + Sync {
    /// Human-readable library name (shows up in `EXPLAIN` and catalogs).
    fn library(&self) -> &'static str;

    /// The kinds this factory can build and load.
    fn supported(&self) -> Vec<IndexKind>;

    /// `CreateIndex`: start a builder for `spec`.
    fn create_builder(&self, spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>>;

    /// `LoadIndex`: deserialize a previously saved index of `kind`.
    fn load(&self, kind: IndexKind, bytes: &[u8]) -> Result<Arc<dyn VectorIndex>>;
}

/// Built-in factory standing in for hnswlib.
#[derive(Debug, Default)]
pub struct HnswlibFactory;

impl IndexFactory for HnswlibFactory {
    fn library(&self) -> &'static str {
        "bh-hnswlib"
    }

    fn supported(&self) -> Vec<IndexKind> {
        vec![IndexKind::Hnsw, IndexKind::HnswSq]
    }

    fn create_builder(&self, spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>> {
        Ok(Box::new(HnswBuilder::new(spec, spec.kind)?))
    }

    fn load(&self, _kind: IndexKind, bytes: &[u8]) -> Result<Arc<dyn VectorIndex>> {
        Ok(Arc::new(HnswIndex::load_bytes(bytes)?))
    }
}

/// Built-in factory standing in for faiss.
#[derive(Debug, Default)]
pub struct FaissFactory;

impl IndexFactory for FaissFactory {
    fn library(&self) -> &'static str {
        "bh-faiss"
    }

    fn supported(&self) -> Vec<IndexKind> {
        vec![IndexKind::Flat, IndexKind::IvfFlat, IndexKind::IvfPq, IndexKind::IvfPqFs]
    }

    fn create_builder(&self, spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>> {
        match spec.kind {
            IndexKind::Flat => Ok(Box::new(FlatBuilder::new(spec)?)),
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => {
                Ok(Box::new(IvfBuilder::new(spec, spec.kind)?))
            }
            other => Err(BhError::InvalidArgument(format!(
                "{} does not provide {}",
                self.library(),
                other.name()
            ))),
        }
    }

    fn load(&self, kind: IndexKind, bytes: &[u8]) -> Result<Arc<dyn VectorIndex>> {
        match kind {
            IndexKind::Flat => Ok(Arc::new(FlatIndex::load_bytes(bytes)?)),
            _ => Ok(Arc::new(IvfIndex::load_bytes(bytes)?)),
        }
    }
}

/// Built-in factory standing in for diskann.
#[derive(Debug, Default)]
pub struct DiskannFactory;

impl IndexFactory for DiskannFactory {
    fn library(&self) -> &'static str {
        "bh-diskann"
    }

    fn supported(&self) -> Vec<IndexKind> {
        vec![IndexKind::DiskAnn]
    }

    fn create_builder(&self, spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>> {
        Ok(Box::new(DiskAnnBuilder::new(spec)?))
    }

    fn load(&self, _kind: IndexKind, bytes: &[u8]) -> Result<Arc<dyn VectorIndex>> {
        Ok(Arc::new(DiskAnnIndex::load_bytes(bytes)?))
    }
}

/// The registry: kind → providing factory.
pub struct IndexRegistry {
    factories: RwLock<HashMap<IndexKind, Arc<dyn IndexFactory>>>,
}

impl IndexRegistry {
    /// An empty registry (no kinds available).
    pub fn empty() -> Self {
        Self { factories: RwLock::new(&classes::REGISTRY_FACTORIES, HashMap::new()) }
    }

    /// A registry pre-populated with the three built-in libraries.
    pub fn with_builtins() -> Self {
        let reg = Self::empty();
        reg.register(Arc::new(HnswlibFactory));
        reg.register(Arc::new(FaissFactory));
        reg.register(Arc::new(DiskannFactory));
        reg
    }

    /// Register a factory for every kind it supports, replacing previous
    /// providers of those kinds.
    pub fn register(&self, factory: Arc<dyn IndexFactory>) {
        let mut map = self.factories.write();
        for kind in factory.supported() {
            map.insert(kind, factory.clone());
        }
    }

    fn factory_for(&self, kind: IndexKind) -> Result<Arc<dyn IndexFactory>> {
        self.factories
            .read()
            .get(&kind)
            .cloned()
            .ok_or_else(|| BhError::NotFound(format!("no index library provides {}", kind.name())))
    }

    /// The library name that will serve `kind`.
    pub fn provider(&self, kind: IndexKind) -> Option<&'static str> {
        self.factories.read().get(&kind).map(|f| f.library())
    }

    /// All kinds currently available, sorted by name.
    pub fn supported_kinds(&self) -> Vec<IndexKind> {
        let mut kinds: Vec<IndexKind> = self.factories.read().keys().copied().collect();
        kinds.sort_by_key(|k| k.name());
        kinds
    }

    /// `CreateIndex` entry point.
    pub fn create_builder(&self, spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>> {
        spec.validate()?;
        self.factory_for(spec.kind)?.create_builder(spec)
    }

    /// `LoadIndex` entry point: hand `blob` to the factory registered for
    /// `kind`. A blob of another format (or a truncated one) is an error of
    /// the kind's own reader.
    pub fn load_blob(&self, kind: IndexKind, blob: &Bytes) -> Result<Arc<dyn VectorIndex>> {
        self.factory_for(kind)?.load(kind, blob)
    }
}

impl Default for IndexRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Neighbor, SearchParams};
    use crate::Metric;
    use bh_common::Bitset;

    #[test]
    fn builtins_cover_all_seven_kinds() {
        let reg = IndexRegistry::with_builtins();
        assert_eq!(reg.supported_kinds().len(), 7);
        assert_eq!(reg.provider(IndexKind::Hnsw), Some("bh-hnswlib"));
        assert_eq!(reg.provider(IndexKind::IvfPqFs), Some("bh-faiss"));
        assert_eq!(reg.provider(IndexKind::DiskAnn), Some("bh-diskann"));
    }

    #[test]
    fn empty_registry_rejects_everything() {
        let reg = IndexRegistry::empty();
        let spec = IndexSpec::new(IndexKind::Flat, 4, Metric::L2);
        assert!(reg.create_builder(&spec).is_err());
        assert!(reg.load_blob(IndexKind::Flat, &Bytes::new()).is_err());
    }

    #[test]
    fn build_save_load_via_registry_for_every_kind() {
        let reg = IndexRegistry::with_builtins();
        let dim = 8;
        let n = 200;
        let data: Vec<f32> = (0..n * dim).map(|i| ((i * 37) % 100) as f32 / 10.0).collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        for kind in reg.supported_kinds() {
            let spec = IndexSpec::new(kind, dim, Metric::L2).with_param("nlist", 8);
            let mut b = reg.create_builder(&spec).unwrap();
            if b.requires_training() {
                b.train(&data).unwrap();
            }
            b.add_with_ids(&data, &ids).unwrap();
            let idx = b.finish().unwrap();
            assert_eq!(idx.meta().len, n, "{kind:?}");
            let blob = idx.save_bytes().unwrap();
            let loaded = reg.load_blob(kind, &blob).unwrap();
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
                matches!(reg.load_blob(kind, &Bytes::from(framed)), Err(BhError::Serde(_))),
                "{kind:?}"
            );
            assert!(reg.load_blob(kind, &blob.slice(..blob.len() - 3)).is_err(), "{kind:?}");
        }
    }

    /// A custom single-kind factory demonstrating third-party pluggability.
    struct ConstantFactory;

    struct ConstantIndex(usize);

    impl VectorIndex for ConstantIndex {
        fn meta(&self) -> crate::types::IndexMeta {
            crate::types::IndexMeta {
                kind: IndexKind::Flat,
                dim: self.0,
                metric: Metric::L2,
                len: 1,
            }
        }

        fn search_with_bound(
            &self,
            _q: &[f32],
            _k: usize,
            _p: &SearchParams,
            _f: Option<&Bitset>,
            _b: Option<&bh_common::SharedBound>,
        ) -> Result<Vec<Neighbor>> {
            Ok(vec![Neighbor::new(99, 0.0)])
        }

        fn search_iterator<'a>(
            &'a self,
            q: &[f32],
            p: &SearchParams,
        ) -> Result<Box<dyn crate::iterator::SearchIterator + 'a>> {
            Ok(Box::new(crate::iterator::GenericSearchIterator::new(self, q, p)))
        }

        fn memory_usage(&self) -> usize {
            0
        }

        fn save_bytes(&self) -> Result<bytes::Bytes> {
            Ok(bytes::Bytes::new())
        }
    }

    impl IndexFactory for ConstantFactory {
        fn library(&self) -> &'static str {
            "third-party"
        }

        fn supported(&self) -> Vec<IndexKind> {
            vec![IndexKind::Flat]
        }

        fn create_builder(&self, _spec: &IndexSpec) -> Result<Box<dyn IndexBuilder>> {
            Err(BhError::InvalidArgument("load-only factory".into()))
        }

        fn load(&self, _kind: IndexKind, _bytes: &[u8]) -> Result<Arc<dyn VectorIndex>> {
            Ok(Arc::new(ConstantIndex(4)))
        }
    }

    #[test]
    fn registering_replaces_provider() {
        let reg = IndexRegistry::with_builtins();
        assert_eq!(reg.provider(IndexKind::Flat), Some("bh-faiss"));
        reg.register(Arc::new(ConstantFactory));
        assert_eq!(reg.provider(IndexKind::Flat), Some("third-party"));
        // Other kinds untouched.
        assert_eq!(reg.provider(IndexKind::Hnsw), Some("bh-hnswlib"));
        // And the new provider actually serves loads.
        let idx = reg.load_blob(IndexKind::Flat, &Bytes::new()).unwrap();
        let got = idx.search_with_bound(&[0.0; 4], 1, &SearchParams::default(), None, None).unwrap();
        assert_eq!(got[0].id, 99);
    }
}
