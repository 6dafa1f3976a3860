//! Shared immutable model registry for multi-tenant serving.
//!
//! A production SR server runs thousands of concurrent sessions of a small
//! number of *content items* (videos). The expensive per-content state —
//! the distilled LUT and the refinement network it was distilled from — is
//! identical for every session of one item and is never mutated at serving
//! time, so cloning it per session (what the single-session constructors
//! encourage) multiplies a megabyte-scale table by the session count for
//! zero benefit.
//!
//! This module is the sharing layer:
//!
//! * [`SharedLut`] — a read-only [`Lut`] view over an `Arc`'d table. Every
//!   probe delegates to the shared table (whose `get`/`get_batch` paths
//!   take `&self` and are lock-free), while [`Lut::set`] is refused with a
//!   typed error: tables are built *before* they are published and are
//!   immutable afterwards. One allocation serves every session.
//! * [`ContentModel`] — one content item's immutable artifacts (SR config,
//!   LUT, optional refinement MLP) behind `Arc`s, with
//!   the per-session pipeline constructor [`ContentModel::pipeline`], which
//!   probes the shared table (bytes/session ≈ scratch only). What a
//!   per-session copy would cost is `bytes_per_session +`
//!   [`ContentModel::shared_bytes`] — arithmetic, not a second code path.
//! * [`ModelRegistry`] — the name → [`ContentModel`] table a server maps
//!   read-only into every session at admission.
//!
//! Sharing never changes results: the LUT serves the same offsets through
//! the `Arc` as through a private copy (pinned by the parity test below),
//! and all shared state is immutable so sessions cannot observe each other.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::config::SrConfig;
use crate::encoding::{KeyScheme, PositionEncoder};
use crate::lut::dense::DenseLut;
use crate::lut::{Lut, Offset};
use crate::nn::mlp::Mlp;
use crate::pipeline::SrPipeline;
use crate::refine::{IdentityRefiner, LutRefiner};
use crate::{Error, Result};

/// Read-only [`Lut`] adapter over a shared table.
///
/// Probes (`get`, `get_batch`) delegate straight to the shared table;
/// mutation is refused — registries publish finished tables. The
/// adapter is what lets one `Arc`'d allocation back the `Box<dyn Lut>`
/// slot of every session's [`LutRefiner`].
pub struct SharedLut {
    inner: Arc<dyn Lut>,
}

impl SharedLut {
    /// Wraps a shared table in a read-only view.
    pub fn new(inner: Arc<dyn Lut>) -> Self {
        Self { inner }
    }

    /// The shared table.
    pub fn inner(&self) -> &Arc<dyn Lut> {
        &self.inner
    }
}

impl std::fmt::Debug for SharedLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLut")
            .field("populated", &self.inner.populated())
            .field("refs", &Arc::strong_count(&self.inner))
            .finish()
    }
}

impl Lut for SharedLut {
    fn get(&self, key: u128) -> Option<Offset> {
        self.inner.get(key)
    }

    fn get_batch(&self, keys: &[u128], out: &mut [Option<Offset>]) {
        self.inner.get_batch(keys, out);
    }

    fn set(&mut self, _key: u128, _offset: Offset) -> Result<()> {
        Err(Error::InvalidConfig(
            "shared LUT is read-only: build and populate the table before publishing it to the \
             registry"
                .into(),
        ))
    }

    fn populated(&self) -> usize {
        self.inner.populated()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// One content item's immutable serving artifacts, shared by every session
/// streaming that item.
#[derive(Debug, Clone)]
pub struct ContentModel {
    name: String,
    config: SrConfig,
    table: Arc<DenseLut>,
    network: Option<Arc<Mlp>>,
}

impl ContentModel {
    /// Publishes a content model around a populated LUT; the [`KeyScheme`]
    /// is ignored. Only the keys `config`'s encoder can emit are ever
    /// probed, so the published table keeps the entries in
    /// [`PositionEncoder::reachable_keys`] and `lut`'s storage is freed: a
    /// table over the whole key space shrinks `b`-fold.
    pub fn from_dense(
        name: impl Into<String>,
        config: SrConfig,
        _scheme: KeyScheme,
        lut: DenseLut,
        network: Option<Mlp>,
    ) -> Self {
        // An invalid configuration keeps the table as given: `pipeline`
        // refuses it anyway.
        let table = match PositionEncoder::new(&config, KeyScheme::Compact) {
            Ok(encoder) => lut.narrowed(encoder.reachable_keys()),
            Err(_) => lut,
        };
        Self {
            name: name.into(),
            config,
            table: Arc::new(table),
            network: network.map(Arc::new),
        }
    }

    /// The content item's name (registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The SR configuration every session of this item runs.
    pub fn config(&self) -> &SrConfig {
        &self.config
    }

    /// The shared refinement network, when one was published.
    pub fn network(&self) -> Option<&Arc<Mlp>> {
        self.network.as_ref()
    }

    /// Bytes held **once** for all sessions of this item: the table plus
    /// the optional network weights. This is the quantity a per-session
    /// clone would multiply by the session count.
    pub fn shared_bytes(&self) -> usize {
        self.table.memory_bytes()
            + self
                .network
                .as_ref()
                .map_or(0, |mlp| mlp.parameter_count() * 4)
    }

    /// A per-session SR pipeline whose refiner probes the **shared** table
    /// through a [`SharedLut`] — constructing one allocates scratch-scale
    /// state only, never a table copy.
    ///
    /// # Errors
    /// Returns an error when the stored configuration is invalid (never for
    /// registry-built models).
    pub fn pipeline(&self) -> Result<SrPipeline> {
        let refiner = LutRefiner::from_config(
            &self.config,
            KeyScheme::Compact,
            Box::new(SharedLut::new(Arc::clone(&self.table) as Arc<dyn Lut>)),
        )?;
        Ok(SrPipeline::new(self.config, Box::new(refiner)))
    }

    /// A pipeline with no refinement stage at this item's configuration —
    /// the degraded-path companion (skip-refinement / interpolate-only
    /// rungs) a serving session swaps to under deadline pressure.
    pub fn identity_pipeline(&self) -> SrPipeline {
        SrPipeline::new(self.config, Box::new(IdentityRefiner))
    }
}

/// Name → [`ContentModel`] table, mapped read-only by every session of a
/// server. Lookup hands out `Arc` clones: admission is one pointer bump,
/// not a table copy.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: BTreeMap<String, Arc<ContentModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a model under its content name, replacing any previous
    /// model of the same name (sessions already holding the old `Arc` keep
    /// serving from it unchanged — immutability makes replacement safe).
    pub fn publish(&mut self, model: ContentModel) -> Arc<ContentModel> {
        let arc = Arc::new(model);
        self.entries
            .insert(arc.name().to_string(), Arc::clone(&arc));
        arc
    }

    /// Looks a content item up by name.
    pub fn get(&self, name: &str) -> Option<Arc<ContentModel>> {
        self.entries.get(name).cloned()
    }

    /// Number of published content items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes held once across all published models.
    pub fn shared_bytes(&self) -> usize {
        self.entries.values().map(|m| m.shared_bytes()).sum()
    }

    /// Iterates over the published models in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ContentModel>> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::synthetic;

    /// A small content model and a private copy of its table.
    fn toy_model_and_table() -> (ContentModel, DenseLut) {
        let config = SrConfig {
            bins: 16,
            ..SrConfig::default()
        };
        let encoder = crate::encoding::PositionEncoder::new(&config, KeyScheme::Compact).unwrap();
        let mut lut = DenseLut::new(encoder.key_space()).unwrap();
        // Populate keys that real spheres actually hit, so the parity test
        // exercises the hit path, not just misses.
        let cloud = synthetic::sphere(300, 1.0, 7);
        let positions = cloud.positions();
        for i in 0..positions.len() - 4 {
            let neighbors = &positions[i + 1..i + 4];
            if let Ok(encoded) = encoder.encode(positions[i], neighbors) {
                let _ = lut.set(encoded.key, [0.05, -0.02, 0.01]);
            }
        }
        let model = ContentModel::from_dense("toy", config, KeyScheme::Compact, lut.clone(), None);
        (model, lut)
    }

    fn toy_model() -> ContentModel {
        toy_model_and_table().0
    }

    /// The registry's shared pipeline against the single-session
    /// construction over a private table: same bits.
    #[test]
    fn shared_pipeline_matches_private_table_pipeline_bitwise() {
        let (model, table) = toy_model_and_table();
        let shared = model.pipeline().unwrap();
        let refiner =
            LutRefiner::from_config(model.config(), KeyScheme::Compact, Box::new(table)).unwrap();
        let private = SrPipeline::new(*model.config(), Box::new(refiner));
        let low = synthetic::sphere(400, 1.0, 3);
        let a = shared.upsample(&low, 2.0).unwrap();
        let b = private.upsample(&low, 2.0).unwrap();
        assert_eq!(a.cloud, b.cloud, "sharing must be bit-transparent");
        // Some probes actually hit so the parity covers the offset path.
        let stats = a.lookup_stats;
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn shared_sessions_do_not_copy_the_table() {
        let model = toy_model();
        let table_bytes = model.shared_bytes();
        assert!(table_bytes > 0);
        // N shared pipelines report the same table bytes (one allocation),
        // and the refiner's memory_bytes sees through the Arc.
        let pipes: Vec<_> = (0..8).map(|_| model.pipeline().unwrap()).collect();
        for p in &pipes {
            assert_eq!(p.refiner_memory_bytes(), table_bytes);
        }
    }

    #[test]
    fn shared_lut_refuses_mutation() {
        let model = toy_model();
        let mut shared = SharedLut::new(Arc::clone(&model.table) as Arc<dyn Lut>);
        let before = shared.populated();
        assert!(shared.set(42, [0.0, 0.0, 0.0]).is_err());
        assert_eq!(shared.populated(), before);
    }

    #[test]
    fn registry_publish_and_lookup() {
        let mut registry = ModelRegistry::new();
        assert!(registry.is_empty());
        registry.publish(toy_model());
        // 8 bins: a table over all 8⁴ keys publishes its 8³ reachable ones.
        let dense = DenseLut::new(1 << 12).unwrap();
        let config = SrConfig {
            bins: 8,
            ..SrConfig::default()
        };
        let network = Mlp::new(&[12, 16, 3], 9);
        let network_bytes = network.parameter_count() * 4;
        registry.publish(ContentModel::from_dense(
            "dense-item",
            config,
            KeyScheme::Compact,
            dense,
            Some(network),
        ));
        assert_eq!(registry.len(), 2);
        let toy = registry.get("toy").unwrap();
        assert_eq!(toy.name(), "toy");
        assert!(registry.get("missing").is_none());
        // Shared bytes sum both tables plus the network weights.
        let dense_model = registry.get("dense-item").unwrap();
        assert_eq!(
            dense_model.shared_bytes(),
            (1 << 9) * 6 + (1 << 9) / 8 + network_bytes
        );
        assert_eq!(
            registry.shared_bytes(),
            toy.shared_bytes() + dense_model.shared_bytes()
        );
        // Admission is an Arc clone of the same allocation.
        let again = registry.get("toy").unwrap();
        assert!(Arc::ptr_eq(&toy, &again));
    }

    /// Publishing keeps `get` equal on every reachable key and answers
    /// `None` on every other, for tables that cover the reachable range,
    /// cross either end of it, or miss it, at a start on a 64-key word
    /// boundary (8 bins) and off one (2 bins).
    #[test]
    fn publishing_keeps_exactly_the_reachable_keys() {
        for bins in [8, 2] {
            let config = SrConfig {
                bins,
                ..SrConfig::default()
            };
            let encoder = PositionEncoder::new(&config, KeyScheme::Compact).unwrap();
            let (space, reachable) = (encoder.key_space(), encoder.reachable_keys());
            let half = (reachable.end - reachable.start) / 2;
            for own in [
                0..space,
                reachable.start - 1..reachable.start + half,
                reachable.start + 1..space,
                0..reachable.start,
            ] {
                let mut lut = DenseLut::over(own.clone()).unwrap();
                for key in own.clone().step_by(3) {
                    lut.set(key, [key as f32 * 1e-4, 0.5, -0.5]).unwrap();
                }
                let model =
                    ContentModel::from_dense("t", config, KeyScheme::Compact, lut.clone(), None);
                let at = format!("b {bins} table {own:?}");
                for key in 0..space + 70 {
                    let want = lut.get(key).filter(|_| reachable.contains(&key));
                    assert_eq!(model.table.get(key), want, "{at} key {key}");
                }
                let kept = lut.iter().filter(|(key, _)| reachable.contains(key));
                assert_eq!(model.table.populated(), kept.count(), "{at}");
                let lo = reachable.start.clamp(own.start, own.end);
                assert_eq!(
                    model.table.keys(),
                    lo..reachable.end.clamp(lo, own.end),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn identity_pipeline_shares_config() {
        let model = toy_model();
        let p = model.identity_pipeline();
        assert_eq!(p.config(), model.config());
        assert_eq!(p.refiner_memory_bytes(), 0);
    }
}
