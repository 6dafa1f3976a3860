//! Hashed voxel-grid neighbor search.
//!
//! A uniform hash grid keyed by integer voxel coordinates. For clouds with
//! roughly uniform density it answers kNN queries by growing a ring search
//! outward from the query voxel, which makes it a good backend for the
//! colorization stage where queries are near-surface and k is tiny.

use crate::kernels;
use crate::knn::{batch_queries, finalize_candidates, BestK, Neighbor, NeighborSearch};
use crate::neighborhoods::Neighborhoods;
use crate::point::Point3;
use crate::soa::SoaPositions;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Integer voxel coordinate.
type VoxelKey = (i32, i32, i32);

/// Multiply-fold hasher for voxel keys. The ring search probes dozens of
/// cells per query, and SipHash (the `HashMap` default, keyed to resist
/// adversarial collisions) costs more than the probe it guards — voxel
/// coordinates are trusted local data, so a two-instruction mix suffices.
#[derive(Default)]
struct VoxelKeyHasher(u64);

impl Hasher for VoxelKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_i32(i as i32);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.0 = (self.0.rotate_left(21) ^ (i as u32 as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(21) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Cell map keyed by voxel coordinate with the cheap hasher above; the value
/// is the cell's slot in the slab-range table, not a per-cell `Vec` — point
/// storage lives in one shared SoA slab (see [`VoxelGrid`]).
type CellMap = HashMap<VoxelKey, u32, BuildHasherDefault<VoxelKeyHasher>>;

/// Hashed uniform voxel grid over a fixed point set.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{voxelgrid::VoxelGrid, knn::NeighborSearch, Point3};
/// let pts: Vec<Point3> = (0..64).map(|i| Point3::new((i % 4) as f32, ((i / 4) % 4) as f32, (i / 16) as f32)).collect();
/// let grid = VoxelGrid::build(&pts, 1.0);
/// assert_eq!(grid.knn(Point3::new(0.2, 0.2, 0.2), 1)[0].index, 0);
/// ```
#[derive(Debug, Clone)]
pub struct VoxelGrid {
    points: Vec<Point3>,
    voxel_size: f32,
    /// Voxel coordinate → cell slot.
    cells: CellMap,
    /// Per-cell slab ranges: slot `c` owns `ids[starts[c]..starts[c + 1]]`
    /// (one trailing sentinel entry).
    starts: Vec<u32>,
    /// Slab position → original point index, grouped by cell.
    ids: Vec<u32>,
    /// Positions in slab order: each cell is a contiguous SoA run, so the
    /// ring search scans cells with the shared 8-wide distance kernel.
    soa: SoaPositions,
    /// Build scratch: per-cell counts, then the scatter cursor.
    cursor: Vec<u32>,
    /// Build scratch: per-point cell slot from the counting pass.
    slot_of: Vec<u32>,
}

impl VoxelGrid {
    /// Builds a voxel grid with the given voxel edge length.
    ///
    /// # Panics
    /// Panics if `voxel_size` is not strictly positive or not finite.
    pub fn build(points: &[Point3], voxel_size: f32) -> Self {
        let mut grid = Self {
            points: Vec::new(),
            voxel_size: 1.0,
            cells: CellMap::default(),
            starts: Vec::new(),
            ids: Vec::new(),
            soa: SoaPositions::default(),
            cursor: Vec::new(),
            slot_of: Vec::new(),
        };
        grid.build_in(points, voxel_size);
        grid
    }

    /// Rebuilds this grid over `points` with the given voxel edge length,
    /// reusing the point storage and cell-map allocation already owned by
    /// `self` (scratch-resident rebuilds for streaming sessions).
    ///
    /// # Panics
    /// Panics if `voxel_size` is not strictly positive or not finite.
    pub fn build_in(&mut self, points: &[Point3], voxel_size: f32) {
        assert!(
            voxel_size > 0.0 && voxel_size.is_finite(),
            "voxel_size must be positive and finite"
        );
        self.points.clear();
        self.points.extend_from_slice(points);
        self.voxel_size = voxel_size;
        self.cells.clear();
        // Counting-sort build of the per-cell SoA slabs: assign slots and
        // count (pass 1), prefix-sum the ranges, scatter ids in point order
        // so each cell's slab keeps ascending original indices (pass 2).
        self.cursor.clear();
        self.slot_of.clear();
        for &p in points {
            let next = self.cursor.len() as u32;
            let slot = *self
                .cells
                .entry(Self::key_of(p, voxel_size))
                .or_insert(next);
            if slot == next {
                self.cursor.push(0);
            }
            self.cursor[slot as usize] += 1;
            self.slot_of.push(slot);
        }
        self.starts.clear();
        self.starts.push(0);
        let mut acc = 0u32;
        for &count in &self.cursor {
            acc += count;
            self.starts.push(acc);
        }
        let slots = self.cursor.len();
        self.cursor.copy_from_slice(&self.starts[..slots]);
        self.ids.clear();
        self.ids.resize(points.len(), 0);
        for (i, &slot) in self.slot_of.iter().enumerate() {
            let pos = &mut self.cursor[slot as usize];
            self.ids[*pos as usize] = i as u32;
            *pos += 1;
        }
        self.soa.fill_permuted(points, &self.ids);
    }

    /// Builds a grid whose voxel size is chosen automatically so that an
    /// average voxel holds roughly `target_per_voxel` points (assuming the
    /// cloud is surface-like). Falls back to edge length 1.0 for empty clouds.
    pub fn build_auto(points: &[Point3], target_per_voxel: usize) -> Self {
        let bounds = crate::aabb::Aabb::from_points(points.iter().copied());
        let voxel = match bounds {
            Some(b) if !points.is_empty() => {
                let area_proxy = b.longest_edge().max(1e-6);
                // Surface-like clouds fill O(L^2 / s^2) voxels of size s.
                let per_axis =
                    ((points.len() as f32 / target_per_voxel.max(1) as f32).sqrt()).max(1.0);
                (area_proxy / per_axis).max(1e-6)
            }
            _ => 1.0,
        };
        Self::build(points, voxel)
    }

    /// The voxel edge length.
    pub fn voxel_size(&self) -> f32 {
        self.voxel_size
    }

    /// Number of occupied voxels.
    pub fn occupied_voxels(&self) -> usize {
        self.cells.len()
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    fn key_of(p: Point3, s: f32) -> VoxelKey {
        (
            (p.x / s).floor() as i32,
            (p.y / s).floor() as i32,
            (p.z / s).floor() as i32,
        )
    }

    /// Visits every occupied cell exactly `ring` voxels (Chebyshev distance)
    /// away from the query's voxel, yielding its slab range.
    fn for_each_cell_in_ring(&self, center: VoxelKey, ring: i32, mut f: impl FnMut(usize, usize)) {
        for dx in -ring..=ring {
            for dy in -ring..=ring {
                for dz in -ring..=ring {
                    // Only the shell of the ring: inner voxels were already collected.
                    if dx.abs().max(dy.abs()).max(dz.abs()) != ring {
                        continue;
                    }
                    if let Some(&slot) =
                        self.cells
                            .get(&(center.0 + dx, center.1 + dy, center.2 + dz))
                    {
                        f(
                            self.starts[slot as usize] as usize,
                            self.starts[slot as usize + 1] as usize,
                        );
                    }
                }
            }
        }
    }

    /// Allocation-free exact kNN: results land in `best` (cleared first,
    /// sorted by `(distance, index)`). The ring search maintains the bounded
    /// best-`k` list incrementally instead of re-sorting the full candidate
    /// set on every ring, and one batch call shares the buffer across all
    /// its queries, which also warm-starts each query's ring-termination
    /// bound from the previous one's result (see [`BestK::begin_warm`];
    /// results are unaffected, a fresh accumulator simply starts cold).
    pub(crate) fn knn_into(&self, query: Point3, k: usize, best: &mut BestK) {
        best.begin_warm(k, query, &self.points);
        if k == 0 || self.points.is_empty() {
            return;
        }
        let center = Self::key_of(query, self.voxel_size);
        let mut seen = 0usize;
        let mut ring = 0i32;
        // Expand rings until we have k candidates AND the next ring can no
        // longer contain a closer point than the current k-th best.
        loop {
            self.for_each_cell_in_ring(center, ring, |start, end| {
                seen += end - start;
                kernels::scan_ids(&self.soa, &self.ids, start, end, query, best);
            });
            // Any point in ring r+1 is at least r * voxel_size away from the
            // query (conservative lower bound). The `is_full` guard matters
            // under a warm-start cap: before k candidates exist, `worst_d2`
            // is the cap — a bound on the final answer, not proof the
            // remaining entries were scanned — and floating-point rounding
            // could place a tying point just beyond the scanned rings.
            let safe_radius = ring as f32 * self.voxel_size;
            if best.is_full() && best.worst_d2() <= safe_radius * safe_radius {
                return;
            }
            ring += 1;
            // Bail out when the search has covered the whole cloud extent.
            if ring > 1 + (self.points.len() as f32).cbrt() as i32 + 64 {
                if seen >= self.points.len() {
                    return;
                }
                // Fall back to scanning everything (correctness over speed).
                best.begin(k);
                kernels::scan_ids(&self.soa, &self.ids, 0, self.ids.len(), query, best);
                return;
            }
        }
    }
}

impl NeighborSearch for VoxelGrid {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn knn(&self, query: Point3, k: usize) -> Vec<Neighbor> {
        let mut best = BestK::default();
        self.knn_into(query, k, &mut best);
        best.sorted()
    }

    fn radius(&self, query: Point3, radius: f32) -> Vec<Neighbor> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let r2 = radius * radius;
        let center = Self::key_of(query, self.voxel_size);
        let rings = (radius / self.voxel_size).ceil() as i32 + 1;
        let mut out: Vec<Neighbor> = Vec::new();
        for ring in 0..=rings {
            self.for_each_cell_in_ring(center, ring, |start, end| {
                kernels::scan_radius_ids(&self.soa, &self.ids, start, end, query, r2, &mut out);
            });
        }
        let len = out.len();
        finalize_candidates(out, len)
    }

    fn knn_batch(&self, queries: &[Point3], k: usize, out: &mut Neighborhoods) {
        let stride = k.min(self.points.len());
        out.reserve_rows(queries.len(), queries.len() * stride);
        if k == 0 || self.points.is_empty() {
            for _ in queries {
                out.push_row(std::iter::empty());
            }
            return;
        }
        // Morton order keeps consecutive queries in the same voxel
        // neighborhood, so the ring search touches hash cells that are
        // already cache-resident.
        batch_queries(queries, stride, out, |q, best| {
            self.knn_into(q, k, best);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::BruteForce;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random_range(-3.0..3.0),
                    rng.random_range(-3.0..3.0),
                    rng.random_range(-3.0..3.0),
                )
            })
            .collect()
    }

    #[test]
    fn agrees_with_brute_force() {
        let pts = random_points(600, 31);
        let grid = VoxelGrid::build(&pts, 0.75);
        let bf = BruteForce::new(&pts);
        for q in random_points(20, 37) {
            let a = grid.knn(q, 5);
            let b = bf.knn(q, 5);
            assert_eq!(
                a.iter().map(|n| n.index).collect::<Vec<_>>(),
                b.iter().map(|n| n.index).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn radius_agrees_with_brute_force() {
        let pts = random_points(400, 41);
        let grid = VoxelGrid::build(&pts, 0.5);
        let bf = BruteForce::new(&pts);
        for q in random_points(10, 43) {
            let a = grid.radius(q, 1.2);
            let b = bf.radius(q, 1.2);
            assert_eq!(
                a.iter().map(|n| n.index).collect::<Vec<_>>(),
                b.iter().map(|n| n.index).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn far_away_query_still_finds_neighbors() {
        let pts = random_points(100, 47);
        let grid = VoxelGrid::build(&pts, 0.5);
        let bf = BruteForce::new(&pts);
        let q = Point3::new(100.0, 100.0, 100.0);
        let a = grid.knn(q, 3);
        let b = bf.knn(q, 3);
        assert_eq!(
            a.iter().map(|n| n.index).collect::<Vec<_>>(),
            b.iter().map(|n| n.index).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn empty_and_zero_k() {
        let grid = VoxelGrid::build(&[], 1.0);
        assert!(grid.is_empty());
        assert!(grid.knn(Point3::ZERO, 2).is_empty());
        let grid = VoxelGrid::build(&[Point3::ZERO], 1.0);
        assert!(grid.knn(Point3::ZERO, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "voxel_size must be positive")]
    fn zero_voxel_size_panics() {
        let _ = VoxelGrid::build(&[Point3::ZERO], 0.0);
    }

    #[test]
    fn knn_batch_matches_per_query_loop() {
        let pts = random_points(500, 61);
        let grid = VoxelGrid::build(&pts, 0.6);
        let queries = random_points(40, 67);
        for k in [0usize, 1, 5, 600] {
            let mut batch = crate::Neighborhoods::new();
            grid.knn_batch(&queries, k, &mut batch);
            for (i, &q) in queries.iter().enumerate() {
                let expected: Vec<u32> = grid.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(batch.row(i), expected.as_slice(), "k {k} query {i}");
            }
        }
    }

    #[test]
    fn build_in_matches_fresh_build() {
        let mut grid = VoxelGrid::build(&[], 1.0);
        for seed in [71, 72] {
            let pts = random_points(300, seed);
            grid.build_in(&pts, 0.5);
            let fresh = VoxelGrid::build(&pts, 0.5);
            assert_eq!(grid.occupied_voxels(), fresh.occupied_voxels());
            for q in random_points(10, seed + 5) {
                assert_eq!(
                    grid.knn(q, 4).iter().map(|n| n.index).collect::<Vec<_>>(),
                    fresh.knn(q, 4).iter().map(|n| n.index).collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    fn auto_sizing_produces_reasonable_grid() {
        let pts = random_points(1000, 53);
        let grid = VoxelGrid::build_auto(&pts, 8);
        assert!(grid.voxel_size() > 0.0);
        assert!(grid.occupied_voxels() > 1);
    }
}
