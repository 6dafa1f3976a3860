//! Stage two of the VoLUT pipeline: refinement.
//!
//! A [`Refiner`] moves interpolated points onto (an estimate of) the true
//! surface. The trait is **batch-first**: the primary entry point
//! [`Refiner::refine_batch`] processes a whole slice of generated points
//! against a flat CSR [`NeighborhoodsView`], so implementations gather
//! neighbor positions into reusable buffers instead of allocating a
//! `Vec<Point3>` per point, and statistics are accumulated once per batch
//! instead of behind a per-point lock.
//!
//! Three implementations are provided:
//! * [`LutRefiner`] — VoLUT's contribution: a table lookup keyed by the
//!   quantized neighborhood (§4.2). Per block of 64 rows: the lane-wise
//!   [`PositionEncoder::encode_keys_block`], one [`Lut::get_batch`], then
//!   the offsets applied — in fixed stack arrays, so nothing is allocated;
//! * [`NnRefiner`] — runs the refinement network directly (the GradPU-style
//!   path the LUT replaces);
//! * [`IdentityRefiner`] — no refinement; isolates the interpolation stage
//!   in ablations.
//!
//! [`refine_in_place`] is the shared driver used by [`crate::SrPipeline`]
//! and both baselines: it splits the generated tail of a cloud into chunks,
//! fans the chunks out across the worker pool, and runs `refine_batch` on
//! zero-copy row windows.

use crate::encoding::{KeyScheme, PositionEncoder};
use crate::lut::{LookupStats, Lut};
use crate::nn::mlp::Mlp;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use volut_pointcloud::{runtime, Neighborhoods, NeighborhoodsView, Point3, PointCloud};

/// A refinement function over batches of generated points.
pub trait Refiner: Send + Sync {
    /// Short human-readable name used in reports.
    fn name(&self) -> &str;

    /// Refines `centers[i]` given neighborhood row `i` (indices into
    /// `source`, closest first) and writes the result to `out[i]`. Rows may
    /// be empty, in which case the center passes through unchanged.
    ///
    /// Implementations must not allocate per point: gather and feature
    /// buffers are amortized per batch call, which is what makes the
    /// pipeline's refinement stage allocation-free per generated point.
    ///
    /// # Panics
    /// Implementations may panic when `centers`, `neighborhoods` and `out`
    /// disagree in length.
    fn refine_batch(
        &self,
        centers: &[Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
        out: &mut [Point3],
    );

    /// Resident memory required by the refiner (model weights or LUT), in
    /// bytes. This is the quantity compared in Figure 15.
    fn memory_bytes(&self) -> usize;

    /// Lookup statistics, when the refiner is table-based.
    fn lookup_stats(&self) -> Option<LookupStats> {
        None
    }
}

/// Refines the generated tail of `cloud` (points `original_len..`) in place
/// using `refiner`, reading neighbor positions from `source`.
///
/// `centers_scratch` receives a copy of the pre-refinement tail so the
/// batch kernel can read stable centers while writing results; reusing the
/// same buffer across frames (the pipeline passes its frame arena's, see
/// `interpolate::FrameArena`) means steady-state refinement performs no
/// per-frame allocation either. Chunks of the tail are refined in parallel
/// on the current pool.
///
/// # Panics
/// Panics when `neighborhoods.len()` differs from the generated tail length.
pub fn refine_in_place(
    refiner: &dyn Refiner,
    cloud: &mut PointCloud,
    original_len: usize,
    neighborhoods: &Neighborhoods,
    source: &[Point3],
    centers_scratch: &mut Vec<Point3>,
) {
    let positions = cloud.positions_mut();
    let tail = &mut positions[original_len..];
    assert_eq!(
        neighborhoods.len(),
        tail.len(),
        "one neighborhood row per generated point"
    );
    if tail.is_empty() {
        return;
    }
    centers_scratch.clear();
    centers_scratch.extend_from_slice(tail);
    let centers: &[Point3] = centers_scratch;
    let view = neighborhoods.view();

    let workers = runtime::workers_for(tail.len(), 4_096);
    let chunk = tail.len().div_ceil(workers).max(1);
    runtime::for_each_chunk_mut(tail, chunk, |_, start, out_chunk| {
        let end = start + out_chunk.len();
        refiner.refine_batch(
            &centers[start..end],
            view.slice_rows(start, end),
            source,
            out_chunk,
        );
    });
}

/// [`refine_in_place`] restricted to a subset of generated-point ordinals.
///
/// Only tail points `original_len + ordinals[i]` are refined — every other
/// tail position is left untouched (the temporal layer has already copied
/// those forward from the previous frame's refined output). The subset is
/// compacted into `subset_hoods` / `centers_scratch`, refined as one dense
/// batch, and scattered back, so a frame's refinement cost is proportional
/// to its churn rather than its size. Because every refiner's batch kernel
/// is row-independent (and batching is bit-identical to the per-point
/// path), the refined subset matches what a full [`refine_in_place`] pass
/// would have produced for those rows, bit for bit.
///
/// All three scratch buffers are caller-owned and reused across frames
/// (the pipeline passes its frame arena's), keeping the steady state
/// allocation-free.
///
/// # Panics
/// Panics when `neighborhoods.len()` differs from the generated tail length
/// or an ordinal is out of range.
#[allow(clippy::too_many_arguments)]
pub fn refine_rows_in_place(
    refiner: &dyn Refiner,
    cloud: &mut PointCloud,
    original_len: usize,
    neighborhoods: &Neighborhoods,
    source: &[Point3],
    ordinals: &[u32],
    centers_scratch: &mut Vec<Point3>,
    subset_hoods: &mut Neighborhoods,
    subset_out: &mut Vec<Point3>,
) {
    let positions = cloud.positions_mut();
    let tail = &mut positions[original_len..];
    assert_eq!(
        neighborhoods.len(),
        tail.len(),
        "one neighborhood row per generated point"
    );
    if ordinals.is_empty() {
        return;
    }
    centers_scratch.clear();
    centers_scratch.reserve(ordinals.len());
    subset_hoods.clear();
    subset_hoods.reserve_rows(ordinals.len(), 0);
    for &ord in ordinals {
        let i = ord as usize;
        centers_scratch.push(tail[i]);
        subset_hoods.push_row_u32(neighborhoods.row(i));
    }
    let centers: &[Point3] = centers_scratch;
    let view = subset_hoods.view();
    subset_out.clear();
    subset_out.resize(ordinals.len(), Point3::ZERO);

    let workers = runtime::workers_for(ordinals.len(), 4_096);
    let chunk = ordinals.len().div_ceil(workers).max(1);
    runtime::for_each_chunk_mut(subset_out.as_mut_slice(), chunk, |_, start, out_chunk| {
        let end = start + out_chunk.len();
        refiner.refine_batch(
            &centers[start..end],
            view.slice_rows(start, end),
            source,
            out_chunk,
        );
    });
    for (slot, &ord) in ordinals.iter().enumerate() {
        tail[ord as usize] = subset_out[slot];
    }
}

/// No-op refiner: returns the interpolated position unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityRefiner;

impl Refiner for IdentityRefiner {
    fn name(&self) -> &str {
        "identity"
    }

    fn refine_batch(
        &self,
        centers: &[Point3],
        _neighborhoods: NeighborhoodsView<'_>,
        _source: &[Point3],
        out: &mut [Point3],
    ) {
        out.copy_from_slice(centers);
    }

    fn memory_bytes(&self) -> usize {
        0
    }
}

/// Lock-free hit/miss counters shared across refinement workers.
#[derive(Debug, Default)]
struct AtomicLookupStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AtomicLookupStats {
    fn add(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> LookupStats {
        LookupStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// LUT-based refiner (the paper's contribution).
pub struct LutRefiner {
    encoder: PositionEncoder,
    lut: Box<dyn Lut>,
    stats: AtomicLookupStats,
}

impl std::fmt::Debug for LutRefiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LutRefiner")
            .field("encoder", &self.encoder)
            .field("populated", &self.lut.populated())
            .field("backend", &self.lut.backend_name())
            .finish()
    }
}

impl LutRefiner {
    /// Creates a refiner from a position encoder and a populated LUT.
    pub fn new(encoder: PositionEncoder, lut: Box<dyn Lut>) -> Self {
        Self {
            encoder,
            lut,
            stats: AtomicLookupStats::default(),
        }
    }

    /// Convenience constructor from an [`crate::SrConfig`], key scheme and LUT.
    ///
    /// # Errors
    /// Returns an error when the configuration is invalid.
    pub fn from_config(
        config: &crate::SrConfig,
        scheme: KeyScheme,
        lut: Box<dyn Lut>,
    ) -> Result<Self> {
        Ok(Self::new(PositionEncoder::new(config, scheme)?, lut))
    }

    /// The underlying LUT.
    pub fn lut(&self) -> &dyn Lut {
        self.lut.as_ref()
    }
}

impl Refiner for LutRefiner {
    fn name(&self) -> &str {
        "volut-lut"
    }

    fn refine_batch(
        &self,
        centers: &[Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
        out: &mut [Point3],
    ) {
        debug_assert_eq!(centers.len(), neighborhoods.len());
        debug_assert_eq!(centers.len(), out.len());
        // Block-structured: the lane-wise encoder turns a block of CSR rows
        // into keys and radii (gather → normalize → quantize over whole slot
        // lanes), one `get_batch` resolves the block, and the offsets are
        // applied. Every buffer, the encoder's lanes included, is a fixed
        // array on this stack.
        const BLOCK: usize = 64;
        let mut keys = [0u128; BLOCK];
        // radius < 0 marks rows that skip refinement (empty / unencodable).
        let mut radii = [-1.0f32; BLOCK];
        let mut results: [Option<crate::lut::Offset>; BLOCK] = [None; BLOCK];
        let mut encode_scratch = crate::encoding::EncodeScratch::default();
        let (mut hits, mut misses) = (0u64, 0u64);
        for block_start in (0..centers.len()).step_by(BLOCK) {
            let block_len = BLOCK.min(centers.len() - block_start);
            self.encoder.encode_keys_block(
                &centers[block_start..block_start + block_len],
                neighborhoods,
                block_start,
                source,
                &mut keys[..block_len],
                &mut radii[..block_len],
                &mut encode_scratch,
            );
            self.lut
                .get_batch(&keys[..block_len], &mut results[..block_len]);
            for b in 0..block_len {
                let i = block_start + b;
                out[i] = centers[i];
                match results[b] {
                    _ if radii[b] < 0.0 => {}
                    Some([x, y, z]) => {
                        hits += 1;
                        out[i] = centers[i] + Point3::new(x, y, z) * radii[b];
                    }
                    None => misses += 1,
                }
            }
        }
        self.stats.add(hits, misses);
    }

    fn memory_bytes(&self) -> usize {
        self.lut.memory_bytes()
    }

    fn lookup_stats(&self) -> Option<LookupStats> {
        Some(self.stats.snapshot())
    }
}

/// Neural refiner: runs the refinement MLP directly for every point.
#[derive(Debug, Clone)]
pub struct NnRefiner {
    encoder: PositionEncoder,
    mlp: Mlp,
}

impl NnRefiner {
    /// Creates a refiner that evaluates `mlp` per point.
    pub fn new(encoder: PositionEncoder, mlp: Mlp) -> Self {
        Self { encoder, mlp }
    }

    /// Convenience constructor from an [`crate::SrConfig`] and key scheme.
    ///
    /// # Errors
    /// Returns an error when the configuration is invalid.
    pub fn from_config(config: &crate::SrConfig, scheme: KeyScheme, mlp: Mlp) -> Result<Self> {
        Ok(Self::new(PositionEncoder::new(config, scheme)?, mlp))
    }

    /// The wrapped network.
    pub fn network(&self) -> &Mlp {
        &self.mlp
    }
}

impl Refiner for NnRefiner {
    fn name(&self) -> &str {
        "nn-refiner"
    }

    fn refine_batch(
        &self,
        centers: &[Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
        out: &mut [Point3],
    ) {
        debug_assert_eq!(centers.len(), neighborhoods.len());
        debug_assert_eq!(centers.len(), out.len());
        // Feature rows are packed per block and pushed through the GEMM-style
        // micro-batched forward; `forward_batch_into` is bit-identical to the
        // per-point pass, so batching is invisible in the output.
        const BLOCK: usize = 4 * crate::nn::mlp::MICRO_BATCH;
        let out_dim = self.mlp.output_dim();
        let mut gather: Vec<Point3> = Vec::new();
        let mut feature_row: Vec<f32> = Vec::new();
        let mut features: Vec<f32> = Vec::new();
        let mut packed: Vec<(usize, f32)> = Vec::new();
        let mut outputs: Vec<f32> = Vec::new();
        let mut scratch = crate::nn::mlp::BatchScratch::default();
        for block_start in (0..centers.len()).step_by(BLOCK) {
            let block_len = BLOCK.min(centers.len() - block_start);
            features.clear();
            packed.clear();
            for i in block_start..block_start + block_len {
                let center = centers[i];
                let row = neighborhoods.row(i);
                if row.is_empty() {
                    out[i] = center;
                    continue;
                }
                gather.clear();
                gather.extend(row.iter().map(|&j| source[j as usize]));
                match self
                    .encoder
                    .encode_features_into(center, &gather, &mut feature_row)
                {
                    Ok(radius) => {
                        features.extend_from_slice(&feature_row);
                        packed.push((i, radius));
                    }
                    Err(_) => out[i] = center,
                }
            }
            if packed.is_empty() {
                continue;
            }
            self.mlp
                .forward_batch_into(&features, packed.len(), &mut outputs, &mut scratch);
            for (slot, &(i, radius)) in packed.iter().enumerate() {
                let o = &outputs[slot * out_dim..(slot + 1) * out_dim];
                out[i] = centers[i] + Point3::new(o[0], o[1], o[2]) * radius;
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        // f32 weights resident in memory.
        self.mlp.parameter_count() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::sparse::SparseLut;
    use crate::SrConfig;

    fn encoder() -> PositionEncoder {
        PositionEncoder::new(&SrConfig::default(), KeyScheme::Full).unwrap()
    }

    /// Refines one center whose neighborhood is given directly as
    /// positions: a one-row [`Refiner::refine_batch`].
    fn refine_one(refiner: &dyn Refiner, center: Point3, neighbors: &[Point3]) -> Point3 {
        let indices: Vec<u32> = (0..neighbors.len() as u32).collect();
        let offsets = [0u32, neighbors.len() as u32];
        let view = NeighborhoodsView::from_raw(&indices, &offsets);
        let mut out = [center];
        refiner.refine_batch(&[center], view, neighbors, &mut out);
        out[0]
    }

    fn neighborhood() -> (Point3, Vec<Point3>) {
        (
            Point3::new(0.0, 0.0, 0.0),
            vec![
                Point3::new(0.2, 0.0, 0.0),
                Point3::new(0.0, 0.2, 0.0),
                Point3::new(0.0, 0.0, 0.2),
            ],
        )
    }

    #[test]
    fn identity_refiner_is_a_noop() {
        let (c, n) = neighborhood();
        assert_eq!(refine_one(&IdentityRefiner, c, &n), c);
        assert_eq!(IdentityRefiner.memory_bytes(), 0);
        assert!(IdentityRefiner.lookup_stats().is_none());
    }

    #[test]
    fn lut_refiner_applies_stored_offset() {
        let (c, n) = neighborhood();
        let enc = encoder();
        let key = enc.encode(c, &n).unwrap().key;
        let radius = enc.encode(c, &n).unwrap().radius;
        let mut lut = SparseLut::new();
        lut.set(key, [0.5, 0.0, 0.0]).unwrap();
        let refiner = LutRefiner::new(enc, Box::new(lut));
        let refined = refine_one(&refiner, c, &n);
        assert!((refined.x - 0.5 * radius).abs() < 1e-3);
        let stats = refiner.lookup_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn lut_refiner_miss_returns_center_and_counts() {
        let (c, n) = neighborhood();
        let refiner = LutRefiner::new(encoder(), Box::new(SparseLut::new()));
        assert_eq!(refine_one(&refiner, c, &n), c);
        assert_eq!(refine_one(&refiner, c, &[]), c);
        let stats = refiner.lookup_stats().unwrap();
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn nn_refiner_moves_points() {
        let (c, n) = neighborhood();
        let mlp = Mlp::new(&[12, 16, 3], 5);
        let refiner = NnRefiner::new(encoder(), mlp);
        let refined = refine_one(&refiner, c, &n);
        // A randomly initialized network almost surely produces a non-zero offset.
        assert_ne!(refined, c);
        assert_eq!(refine_one(&refiner, c, &[]), c);
        assert!(refiner.memory_bytes() > 0);
    }

    #[test]
    fn refiners_are_object_safe_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Refiner>();
        let boxed: Vec<Box<dyn Refiner>> = vec![
            Box::new(IdentityRefiner),
            Box::new(LutRefiner::new(encoder(), Box::new(SparseLut::new()))),
        ];
        assert_eq!(boxed.len(), 2);
    }

    /// A batch call over N points must agree bit-for-bit with N one-row
    /// calls (the parity contract of the batched trait redesign).
    fn batch_matches_per_point(refiner: &dyn Refiner) {
        // Source cloud: points on a jittered grid.
        let source: Vec<Point3> = (0..64)
            .map(|i| {
                let f = i as f32;
                Point3::new(f.sin(), (f * 0.7).cos(), f * 0.01)
            })
            .collect();
        // Centers with varying-size (including empty) neighborhoods.
        let centers: Vec<Point3> = (0..40)
            .map(|i| source[i] + Point3::new(0.01, -0.02, 0.005))
            .collect();
        let mut hoods = Neighborhoods::new();
        for i in 0..centers.len() {
            let len = i % 5; // 0..=4 neighbors, row 0 empty
            hoods.push_row((0..len).map(|k| (i + k + 1) % source.len()));
        }
        let mut batch_out = vec![Point3::ZERO; centers.len()];
        refiner.refine_batch(&centers, hoods.view(), &source, &mut batch_out);
        for (i, &expected) in batch_out.iter().enumerate() {
            let neighbors: Vec<Point3> = hoods.row(i).iter().map(|&j| source[j as usize]).collect();
            let single = refine_one(refiner, centers[i], &neighbors);
            assert_eq!(single, expected, "row {i} diverged");
        }
    }

    #[test]
    fn identity_batch_parity() {
        batch_matches_per_point(&IdentityRefiner);
    }

    #[test]
    fn lut_batch_parity() {
        let enc = encoder();
        let mut lut = SparseLut::new();
        // Populate a handful of keys so both hit and miss paths are exercised.
        let source = Point3::new(0.3, 0.1, -0.2);
        let key = enc.encode(Point3::ZERO, &[source]).unwrap().key;
        lut.set(key, [0.1, -0.2, 0.3]).unwrap();
        let refiner = LutRefiner::new(enc, Box::new(lut));
        batch_matches_per_point(&refiner);
        let stats = refiner.lookup_stats().unwrap();
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn nn_batch_parity() {
        let refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 32, 32, 3], 9));
        batch_matches_per_point(&refiner);
    }

    #[test]
    fn subset_refinement_matches_full_pass() {
        // A jittered-grid cloud with a generated tail of 50 points.
        let source: Vec<Point3> = (0..64)
            .map(|i| {
                let f = i as f32;
                Point3::new(f.sin(), (f * 0.7).cos(), f * 0.01)
            })
            .collect();
        let original_len = source.len();
        let mut cloud = PointCloud::from_positions(source.clone());
        let mut hoods = Neighborhoods::new();
        for i in 0..50 {
            cloud.push(source[i] + Point3::new(0.01, -0.02, 0.005), None);
            let len = i % 5; // 0..=4 neighbors, some rows empty
            hoods.push_row((0..len).map(|k| (i + k + 1) % source.len()));
        }
        let refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 16, 3], 11));

        let mut full = cloud.clone();
        let mut scratch = Vec::new();
        refine_in_place(
            &refiner,
            &mut full,
            original_len,
            &hoods,
            &source,
            &mut scratch,
        );

        // Refine a strict subset: the chosen rows must match the full pass
        // bit for bit, the rest must remain at their pre-refinement values.
        let ordinals: Vec<u32> = (0..50u32).filter(|o| o % 3 != 1).collect();
        let mut partial = cloud.clone();
        let mut subset_hoods = Neighborhoods::new();
        let mut subset_out = Vec::new();
        refine_rows_in_place(
            &refiner,
            &mut partial,
            original_len,
            &hoods,
            &source,
            &ordinals,
            &mut scratch,
            &mut subset_hoods,
            &mut subset_out,
        );
        let in_subset = |o: u32| o % 3 != 1;
        for o in 0..50u32 {
            let i = original_len + o as usize;
            if in_subset(o) {
                assert_eq!(partial.position(i), full.position(i), "ordinal {o}");
            } else {
                assert_eq!(partial.position(i), cloud.position(i), "ordinal {o}");
            }
        }
        // Over the complete ordinal list the subset pass IS the full pass.
        let mut all = cloud.clone();
        let every: Vec<u32> = (0..50u32).collect();
        refine_rows_in_place(
            &refiner,
            &mut all,
            original_len,
            &hoods,
            &source,
            &every,
            &mut scratch,
            &mut subset_hoods,
            &mut subset_out,
        );
        assert_eq!(all, full);
    }

    #[test]
    fn refine_in_place_refines_only_the_tail() {
        let source: Vec<Point3> = (0..10).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let mut cloud = PointCloud::from_positions(source.clone());
        cloud.push(Point3::new(0.4, 0.5, 0.0), None);
        cloud.push(Point3::new(1.6, -0.5, 0.0), None);
        let mut hoods = Neighborhoods::new();
        hoods.push_row([0usize, 1]);
        hoods.push_row([1usize, 2]);
        let before_head = cloud.positions()[..10].to_vec();
        let mut scratch = Vec::new();
        let refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 8, 3], 3));
        refine_in_place(&refiner, &mut cloud, 10, &hoods, &source, &mut scratch);
        assert_eq!(&cloud.positions()[..10], &before_head[..]);
        assert_ne!(cloud.position(10), Point3::new(0.4, 0.5, 0.0));
    }
}
