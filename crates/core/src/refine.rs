//! Stage two of the VoLUT pipeline: refinement.
//!
//! A [`Refiner`] moves interpolated points onto (an estimate of) the true
//! surface. The trait is **batch-first, in place and stateless**: the one
//! entry point [`Refiner::refine_batch`] takes a slice of generated points
//! and their rows of a flat fixed-width [`NeighborhoodsView`], reads each
//! point as the center of its row, overwrites it with the refined position
//! and returns the batch's [`LookupStats`]. A refiner reads row `i`'s center
//! before it writes row `i` (the rows are independent), so no copy of the
//! centers exists on the pipeline path; gather buffers are reused per batch
//! instead of allocated per point. A refiner keeps no counters: the caller
//! sums what its batches return. Batching never shows in the output: a
//! batch over N points equals N one-row calls, bit for bit, which is what
//! lets the pipeline refine any run of rows it has just generated.
//!
//! Three implementations are provided:
//! * [`LutRefiner`] — VoLUT's contribution: a table lookup keyed by the
//!   quantized neighborhood (§4.2). Per block of 64 rows: the lane-wise
//!   [`PositionEncoder::encode_keys_block`], one [`Lut::get_batch`], then
//!   the offsets applied — in a per-thread set of encoder lanes and block
//!   buffers, so nothing is allocated or zero-filled per call;
//! * [`NnRefiner`] — runs the refinement network directly, one batched
//!   forward pass per block of rows. It is the one neural refiner: direct
//!   inference (the path the LUT replaces), and, with the crate-private
//!   iteration count and offset clamp, the refinement stage of the GradPU
//!   and Yuzu baselines ([`crate::baselines`]);
//! * [`IdentityRefiner`] — no refinement; isolates the interpolation stage
//!   in ablations.
//!
//! [`crate::SrPipeline`] calls `refine_batch` from inside its one frame pass,
//! on the runs of rows it generated fresh (see `interpolate::dilated`).
//! [`refine_in_place`] is the stand-alone driver the baselines use on a
//! finished interpolation: it fans the generated tail of a cloud out across
//! the worker pool in chunks.

use crate::encoding::{EncodeScratch, KeyScheme, PositionEncoder};
use crate::lut::{LookupStats, Lut, Offset};
use crate::nn::mlp::{BatchScratch, Mlp, MICRO_BATCH};
use crate::Result;
use std::cell::RefCell;
use volut_pointcloud::{runtime, Neighborhoods, NeighborhoodsView, Point3, PointCloud};

/// A refinement function over batches of generated points.
pub trait Refiner: Send + Sync {
    /// Short human-readable name used in reports.
    fn name(&self) -> &str;

    /// Refines every `points[i]` in place: the point is the center of
    /// neighborhood row `i` (indices into `source`, closest first) and is
    /// overwritten with its refined position. Row `i`'s center is read
    /// before row `i` is written. Rows may be empty, in which case the point
    /// stays where it is. Returns the batch's table lookups — hits and
    /// misses — which are zero for a refiner without a table.
    ///
    /// Implementations must not allocate per point: gather and feature
    /// buffers are amortized per batch call, which is what makes the
    /// pipeline's refinement stage allocation-free per generated point.
    ///
    /// # Panics
    /// Implementations may panic when `points` and `neighborhoods` disagree
    /// in length.
    fn refine_batch(
        &self,
        points: &mut [Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
    ) -> LookupStats;

    /// Resident memory required by the refiner (model weights or LUT), in
    /// bytes. This is the quantity compared in Figure 15.
    fn memory_bytes(&self) -> usize;
}

/// Refines the generated tail of `cloud` (points `original_len..`) in place
/// using `refiner`, reading neighbor positions from `source`.
///
/// `centers_scratch` receives a copy of the pre-refinement tail, for callers
/// that read the centers the refiner encoded after the call; reusing the
/// same buffer across frames keeps steady-state refinement free of
/// per-frame allocation. Chunks of the tail are refined in parallel on the
/// current pool.
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
    let tail = &mut cloud.positions_mut()[original_len..];
    assert_eq!(
        neighborhoods.len(),
        tail.len(),
        "one neighborhood row per generated point"
    );
    centers_scratch.clear();
    centers_scratch.extend_from_slice(tail);
    let view = neighborhoods.view();
    let chunk = tail
        .len()
        .div_ceil(runtime::workers_for(tail.len(), 4_096))
        .max(1);
    runtime::for_each_chunk_mut(tail, chunk, |_, start, points| {
        refiner.refine_batch(points, view.slice_rows(start, start + points.len()), source);
    });
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
        _points: &mut [Point3],
        _neighborhoods: NeighborhoodsView<'_>,
        _source: &[Point3],
    ) -> LookupStats {
        LookupStats::default()
    }

    fn memory_bytes(&self) -> usize {
        0
    }
}

/// Rows per block of [`LutRefiner::refine_batch`].
const LUT_BLOCK: usize = 64;

/// The LUT refiner's per-thread buffers: the encoder's lanes and one
/// block's keys, radii and probe results. The pipeline calls
/// [`LutRefiner::refine_batch`] once per run of freshly generated points —
/// a few points each on a delta frame, about 900 runs on a 50k-point frame
/// at 10 % churn, about 19 in a 512-point fleet frame — and zero-filling
/// 14 KB of lanes per call cost about 2 % of a cache-cold fleet frame (2048
/// sessions of 512 points, one worker, 2-vCPU host); the 2.3 KB of block
/// buffers live here for the same reason. The encoder writes every lane,
/// key and radius it reads and [`Lut::get_batch`] every result, so one set
/// serves any call; a call never re-enters another on the same thread.
struct LutScratch {
    lanes: EncodeScratch,
    keys: [u128; LUT_BLOCK],
    /// `radius < 0` marks rows that skip refinement (empty rows).
    radii: [f32; LUT_BLOCK],
    results: [Option<Offset>; LUT_BLOCK],
}

thread_local! {
    static LUT_SCRATCH: RefCell<LutScratch> = RefCell::new(LutScratch {
        lanes: EncodeScratch::default(),
        keys: [0; LUT_BLOCK],
        radii: [-1.0; LUT_BLOCK],
        results: [None; LUT_BLOCK],
    });
}

/// LUT-based refiner (the paper's contribution).
pub struct LutRefiner {
    encoder: PositionEncoder,
    lut: Box<dyn Lut>,
}

impl std::fmt::Debug for LutRefiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LutRefiner")
            .field("encoder", &self.encoder)
            .field("populated", &self.lut.populated())
            .finish()
    }
}

impl LutRefiner {
    /// Creates a refiner from a position encoder and a populated LUT.
    pub fn new(encoder: PositionEncoder, lut: Box<dyn Lut>) -> Self {
        Self { encoder, lut }
    }

    /// Convenience constructor from an [`crate::SrConfig`] and a LUT; the
    /// [`KeyScheme`] is ignored.
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
        points: &mut [Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
    ) -> LookupStats {
        debug_assert_eq!(points.len(), neighborhoods.len());
        // Block-structured: the lane-wise encoder turns a block of rows
        // into keys and radii (gather → normalize → quantize over whole slot
        // lanes), one `get_batch` resolves the block, and the offsets are
        // applied, all in this thread's buffers (see [`LutScratch`]).
        let mut stats = LookupStats::default();
        LUT_SCRATCH.with_borrow_mut(|scratch| {
            let LutScratch {
                lanes,
                keys,
                radii,
                results,
            } = scratch;
            for block_start in (0..points.len()).step_by(LUT_BLOCK) {
                let block_len = LUT_BLOCK.min(points.len() - block_start);
                let block = &mut points[block_start..block_start + block_len];
                self.encoder.encode_keys_block(
                    block,
                    neighborhoods,
                    block_start,
                    source,
                    &mut keys[..block_len],
                    &mut radii[..block_len],
                    lanes,
                );
                self.lut
                    .get_batch(&keys[..block_len], &mut results[..block_len]);
                for (b, point) in block.iter_mut().enumerate() {
                    match results[b] {
                        _ if radii[b] < 0.0 => {}
                        Some([x, y, z]) => {
                            stats.hits += 1;
                            *point += Point3::new(x, y, z) * radii[b];
                        }
                        None => stats.misses += 1,
                    }
                }
            }
        });
        stats
    }

    fn memory_bytes(&self) -> usize {
        self.lut.memory_bytes()
    }
}

/// Neural refiner: runs the refinement MLP directly for every point.
///
/// Each point takes `iterations` damped steps: its row is encoded against
/// the point's current position, the network predicts an offset, each
/// component is clamped to `±offset_clamp` and the point moves by the offset
/// times `radius / iterations`. The defaults — one step, no clamp — are
/// direct inference; GradPU's iterative refinement and Yuzu's clamped pass
/// ([`crate::baselines`]) set the two crate-private fields.
#[derive(Debug, Clone)]
pub struct NnRefiner {
    encoder: PositionEncoder,
    mlp: Mlp,
    /// Network passes per point, at least 1.
    pub(crate) iterations: usize,
    /// Bound on each offset component, in neighborhood radii; infinite
    /// (the default) leaves every offset as the network predicts it.
    pub(crate) offset_clamp: f32,
}

impl NnRefiner {
    /// Creates a refiner that evaluates `mlp` per point.
    pub fn new(encoder: PositionEncoder, mlp: Mlp) -> Self {
        Self {
            encoder,
            mlp,
            iterations: 1,
            offset_clamp: f32::INFINITY,
        }
    }

    /// Convenience constructor from an [`crate::SrConfig`].
    ///
    /// # Errors
    /// Returns an error when the configuration is invalid.
    pub fn from_config(config: &crate::SrConfig, mlp: Mlp) -> Result<Self> {
        Ok(Self::new(
            PositionEncoder::new(config, KeyScheme::Compact)?,
            mlp,
        ))
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
        points: &mut [Point3],
        neighborhoods: NeighborhoodsView<'_>,
        source: &[Point3],
    ) -> LookupStats {
        debug_assert_eq!(points.len(), neighborhoods.len());
        // Rows share one width; empty rows leave their points in place.
        let width = neighborhoods.iter().next().map_or(0, <[u32]>::len);
        if width == 0 {
            return LookupStats::default();
        }
        // Blocked: a block's neighbors are gathered once, then every step
        // packs the block's feature rows and runs one GEMM-style
        // micro-batched forward over them. `forward_batch_into` is
        // bit-identical to the per-point pass, so batching is invisible in
        // the output, while each weight row streams once per block instead
        // of once per point. At one step `radius * 1.0 == radius`, and an
        // infinite clamp returns every `f32` unchanged.
        const BLOCK: usize = 4 * MICRO_BATCH;
        let out_dim = self.mlp.output_dim();
        let step = 1.0 / self.iterations as f32;
        let bound = self.offset_clamp;
        let mut gather: Vec<Point3> = Vec::new();
        let mut feature_row: Vec<f32> = Vec::new();
        let mut features: Vec<f32> = Vec::new();
        let mut radii: Vec<f32> = Vec::new();
        let mut outputs: Vec<f32> = Vec::new();
        let mut scratch = BatchScratch::default();
        for (b, block) in points.chunks_mut(BLOCK).enumerate() {
            let rows = neighborhoods.slice_rows(b * BLOCK, b * BLOCK + block.len());
            gather.clear();
            gather.extend(rows.iter().flatten().map(|&j| source[j as usize]));
            for _ in 0..self.iterations {
                features.clear();
                radii.clear();
                for (&center, hood) in block.iter().zip(gather.chunks_exact(width)) {
                    let radius = self
                        .encoder
                        .encode_features_into(center, hood, &mut feature_row)
                        .expect("a non-empty row encodes");
                    features.extend_from_slice(&feature_row);
                    radii.push(radius);
                }
                self.mlp
                    .forward_batch_into(&features, block.len(), &mut outputs, &mut scratch);
                let offsets = outputs.chunks_exact(out_dim);
                for ((point, o), &radius) in block.iter_mut().zip(offsets).zip(&radii) {
                    let offset = Point3::new(
                        o[0].clamp(-bound, bound),
                        o[1].clamp(-bound, bound),
                        o[2].clamp(-bound, bound),
                    );
                    *point += offset * (radius * step);
                }
            }
        }
        LookupStats::default()
    }

    fn memory_bytes(&self) -> usize {
        // f32 weights resident in memory.
        self.mlp.parameter_count() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::DenseLut;
    use crate::SrConfig;

    /// An encoder at 16 bins: its table has 16⁴ keys.
    fn encoder() -> PositionEncoder {
        let config = SrConfig {
            bins: 16,
            ..SrConfig::default()
        };
        PositionEncoder::new(&config, KeyScheme::Compact).unwrap()
    }

    fn empty_table() -> DenseLut {
        DenseLut::new(encoder().key_space()).unwrap()
    }

    /// Refines one center whose neighborhood is given directly as
    /// positions: a one-row [`Refiner::refine_batch`].
    fn refine_one(refiner: &dyn Refiner, center: Point3, neighbors: &[Point3]) -> Point3 {
        refine_one_counted(refiner, center, neighbors).0
    }

    /// [`refine_one`] with the call's table lookups.
    fn refine_one_counted(
        refiner: &dyn Refiner,
        center: Point3,
        neighbors: &[Point3],
    ) -> (Point3, LookupStats) {
        let indices: Vec<u32> = (0..neighbors.len() as u32).collect();
        let view = NeighborhoodsView::from_raw(&indices, 1);
        let mut point = [center];
        let stats = refiner.refine_batch(&mut point, view, neighbors);
        (point[0], stats)
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
        let (refined, stats) = refine_one_counted(&IdentityRefiner, c, &n);
        assert_eq!(refined, c);
        assert_eq!(stats, LookupStats::default());
        assert_eq!(IdentityRefiner.memory_bytes(), 0);
    }

    #[test]
    fn lut_refiner_applies_stored_offset() {
        let (c, n) = neighborhood();
        let enc = encoder();
        let key = enc.encode(c, &n).unwrap().key;
        let radius = enc.encode(c, &n).unwrap().radius;
        let mut lut = empty_table();
        lut.set(key, [0.5, 0.0, 0.0]).unwrap();
        let refiner = LutRefiner::new(enc, Box::new(lut));
        let (refined, stats) = refine_one_counted(&refiner, c, &n);
        assert!((refined.x - 0.5 * radius).abs() < 1e-3);
        assert_eq!(stats, LookupStats { hits: 1, misses: 0 });
    }

    #[test]
    fn lut_refiner_miss_returns_center_and_counts() {
        let (c, n) = neighborhood();
        let refiner = LutRefiner::new(encoder(), Box::new(empty_table()));
        let (refined, stats) = refine_one_counted(&refiner, c, &n);
        assert_eq!(refined, c);
        assert_eq!(stats, LookupStats { hits: 0, misses: 1 });
        // An empty row is not a lookup.
        let (refined, stats) = refine_one_counted(&refiner, c, &[]);
        assert_eq!(refined, c);
        assert_eq!(stats, LookupStats::default());
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
            Box::new(LutRefiner::new(encoder(), Box::new(empty_table()))),
        ];
        assert_eq!(boxed.len(), 2);
    }

    /// A batch call over N points must agree bit-for-bit with N one-row
    /// calls (the parity contract of the batched trait redesign), and its
    /// table lookups with theirs summed. Returns the lookups of all batches.
    fn batch_matches_per_point(refiner: &dyn Refiner) -> LookupStats {
        // Source cloud: points on a jittered grid.
        let source: Vec<Point3> = (0..64)
            .map(|i| {
                let f = i as f32;
                Point3::new(f.sin(), (f * 0.7).cos(), f * 0.01)
            })
            .collect();
        let centers: Vec<Point3> = (0..40)
            .map(|i| source[i] + Point3::new(0.01, -0.02, 0.005))
            .collect();
        let mut total = LookupStats::default();
        // One batch per neighborhood width, empty rows included.
        for width in 0..=4 {
            let mut hoods = Neighborhoods::new();
            let slab = hoods.push_rows(centers.len(), width);
            for (s, slot) in slab.iter_mut().enumerate() {
                *slot = ((s / width.max(1) + s % width.max(1) + 1) % source.len()) as u32;
            }
            let mut batch_out = centers.clone();
            let batch_stats = refiner.refine_batch(&mut batch_out, hoods.view(), &source);
            let mut summed = LookupStats::default();
            for (i, &expected) in batch_out.iter().enumerate() {
                let neighbors: Vec<Point3> =
                    hoods.row(i).iter().map(|&j| source[j as usize]).collect();
                let (single, stats) = refine_one_counted(refiner, centers[i], &neighbors);
                assert_eq!(single, expected, "width {width} row {i} diverged");
                summed.hits += stats.hits;
                summed.misses += stats.misses;
            }
            assert_eq!(batch_stats, summed, "width {width}");
            total.hits += summed.hits;
            total.misses += summed.misses;
        }
        total
    }

    #[test]
    fn identity_batch_parity() {
        batch_matches_per_point(&IdentityRefiner);
    }

    #[test]
    fn lut_batch_parity() {
        let enc = encoder();
        let mut lut = empty_table();
        // Populate a handful of keys so both hit and miss paths are exercised.
        let source = Point3::new(0.3, 0.1, -0.2);
        let key = enc.encode(Point3::ZERO, &[source]).unwrap().key;
        lut.set(key, [0.1, -0.2, 0.3]).unwrap();
        let refiner = LutRefiner::new(enc, Box::new(lut));
        let stats = batch_matches_per_point(&refiner);
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn nn_batch_parity() {
        let refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 32, 32, 3], 9));
        batch_matches_per_point(&refiner);
    }

    #[test]
    fn iterative_nn_batch_parity() {
        // GradPU's damped steps: every step re-encodes the moving center.
        let mut refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 32, 32, 3], 9));
        refiner.iterations = 3;
        batch_matches_per_point(&refiner);
    }

    #[test]
    fn clamped_nn_batch_parity() {
        // Yuzu's clamp, tight enough that most offset components hit it.
        let mut refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 32, 32, 3], 9));
        refiner.offset_clamp = 0.01;
        batch_matches_per_point(&refiner);
    }

    #[test]
    fn refine_in_place_refines_only_the_tail() {
        let source: Vec<Point3> = (0..10).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let mut cloud = PointCloud::from_positions(source.clone());
        cloud.push(Point3::new(0.4, 0.5, 0.0), None);
        cloud.push(Point3::new(1.6, -0.5, 0.0), None);
        let mut hoods = Neighborhoods::new();
        hoods.push_rows(2, 2).copy_from_slice(&[0, 1, 1, 2]);
        let before_head = cloud.positions()[..10].to_vec();
        let mut scratch = Vec::new();
        let refiner = NnRefiner::new(encoder(), Mlp::new(&[12, 8, 3], 3));
        refine_in_place(&refiner, &mut cloud, 10, &hoods, &source, &mut scratch);
        assert_eq!(&cloud.positions()[..10], &before_head[..]);
        assert_ne!(cloud.position(10), Point3::new(0.4, 0.5, 0.0));
    }
}
