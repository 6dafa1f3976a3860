//! The two-layer octree used by VoLUT's hierarchical kNN (paper §4.1).
//!
//! The paper's insight is that a *shallow* hierarchy — eight major regions,
//! each subdivided into eight sub-regions (64 leaf cells total) — balances
//! spatial pruning against traversal overhead, and that leaf cells tend to be
//! self-contained for neighbor queries. This module implements exactly that
//! structure plus an optional "self-contained leaf" fast path used by the
//! dilated-interpolation stage.

use crate::aabb::Aabb;
use crate::kernels;
use crate::knn::{batch_queries, finalize_candidates, BestK, Neighbor, NeighborSearch};
use crate::neighborhoods::Neighborhoods;
use crate::point::Point3;
use crate::soa::SoaPositions;

/// Number of top-level regions per axis split (2 => 8 octants).
const TOP_CHILDREN: usize = 8;
/// Total leaf cells: 8 regions × 8 sub-regions.
const LEAF_CELLS: usize = TOP_CHILDREN * 8;

/// Two-layer octree over a fixed point set.
///
/// Leaf cells store point indices; queries visit cells in order of their
/// distance lower bound to the query point and prune cells that cannot
/// contain a closer neighbor than the current k-th best.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{octree::TwoLayerOctree, knn::NeighborSearch, Point3};
/// let pts: Vec<Point3> = (0..1000)
///     .map(|i| Point3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
///     .collect();
/// let oct = TwoLayerOctree::build(&pts);
/// let nn = oct.knn(Point3::new(5.1, 5.1, 5.1), 4);
/// assert_eq!(nn.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct TwoLayerOctree {
    points: Vec<Point3>,
    bounds: Aabb,
    /// Top-level octant bounds, cached so queries do not recompute them.
    top_bounds: [Aabb; 8],
    /// Leaf cell bounding boxes (64 of them once built on a non-empty cloud).
    cell_bounds: Vec<Aabb>,
    /// Per-cell slab ranges: cell `c` owns `ids[cell_starts[c]..cell_starts
    /// [c + 1]]` ([`LEAF_CELLS`] + 1 entries, one trailing sentinel).
    cell_starts: Vec<u32>,
    /// Slab position → original point index, grouped by cell.
    ids: Vec<u32>,
    /// Positions in slab order: each leaf cell is a contiguous SoA run
    /// scanned with the shared 8-wide distance kernel.
    soa: SoaPositions,
    /// Leaf cell id for each point.
    point_cell: Vec<usize>,
}

impl Default for TwoLayerOctree {
    /// An empty octree; [`TwoLayerOctree::build_in`] turns it into a live
    /// index without fresh allocations on rebuild.
    fn default() -> Self {
        Self::build(&[])
    }
}

impl TwoLayerOctree {
    /// Builds the two-layer octree over the given points (copied).
    pub fn build(points: &[Point3]) -> Self {
        let mut oct = Self {
            points: Vec::new(),
            bounds: Aabb::new(Point3::ZERO, Point3::ONE),
            top_bounds: [Aabb::new(Point3::ZERO, Point3::ONE); 8],
            cell_bounds: Vec::new(),
            cell_starts: Vec::new(),
            ids: Vec::new(),
            soa: SoaPositions::default(),
            point_cell: Vec::new(),
        };
        oct.build_in(points);
        oct
    }

    /// Rebuilds this octree over `points`, reusing the point storage and the
    /// 64 per-cell index lists already owned by `self`.
    pub fn build_in(&mut self, points: &[Point3]) {
        let bounds = Aabb::from_points(points.iter().copied())
            .unwrap_or(Aabb::new(Point3::ZERO, Point3::ONE))
            // A tiny inflation avoids points sitting exactly on the max face
            // falling outside every cell due to floating-point rounding.
            .inflated(1e-4);
        let top = bounds.octants();
        self.cell_bounds.clear();
        self.cell_bounds.reserve(LEAF_CELLS);
        for region in &top {
            for sub in region.octants() {
                self.cell_bounds.push(sub);
            }
        }
        // Counting-sort the points into per-cell SoA slabs (64 cells): count,
        // prefix-sum, scatter in point order so each slab keeps ascending
        // original indices.
        self.point_cell.clear();
        self.point_cell.resize(points.len(), 0);
        let mut counts = [0u32; LEAF_CELLS];
        for (i, &p) in points.iter().enumerate() {
            let region = bounds.octant_of(p);
            let sub = top[region].octant_of(p);
            let cell = region * 8 + sub;
            counts[cell] += 1;
            self.point_cell[i] = cell;
        }
        self.cell_starts.clear();
        self.cell_starts.push(0);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            self.cell_starts.push(acc);
        }
        let mut cursor: [u32; LEAF_CELLS] = self.cell_starts[..LEAF_CELLS]
            .try_into()
            .expect("cell_starts holds LEAF_CELLS + 1 entries");
        self.ids.clear();
        self.ids.resize(points.len(), 0);
        for (i, &cell) in self.point_cell.iter().enumerate() {
            let pos = &mut cursor[cell];
            self.ids[*pos as usize] = i as u32;
            *pos += 1;
        }
        self.soa.fill_permuted(points, &self.ids);
        self.points.clear();
        self.points.extend_from_slice(points);
        self.bounds = bounds;
        self.top_bounds = top;
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// The overall bounding box of the indexed points.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Id of the leaf cell containing point `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn cell_of(&self, i: usize) -> usize {
        self.point_cell[i]
    }

    /// Number of points stored in leaf cell `cell`.
    pub fn cell_len(&self, cell: usize) -> usize {
        if cell + 1 < self.cell_starts.len() {
            (self.cell_starts[cell + 1] - self.cell_starts[cell]) as usize
        } else {
            0
        }
    }

    /// Slab range of leaf cell `cell` in `ids`/`soa`.
    #[inline]
    fn cell_range(&self, cell: usize) -> (usize, usize) {
        (
            self.cell_starts[cell] as usize,
            self.cell_starts[cell + 1] as usize,
        )
    }

    /// Returns the k nearest neighbors of `query` looking only inside the
    /// leaf cell that contains `query`. This is the paper's "self-contained
    /// leaf" fast path: when the cell holds at least `k` points whose k-th
    /// distance is smaller than the distance from `query` to the cell
    /// boundary, the result is exact; otherwise the caller should fall back
    /// to [`NeighborSearch::knn`]. The second tuple element reports whether
    /// the result is guaranteed exact.
    pub fn knn_within_cell(&self, query: Point3, k: usize) -> (Vec<Neighbor>, bool) {
        if self.points.is_empty() || k == 0 {
            return (Vec::new(), true);
        }
        let region = self.bounds.octant_of(query);
        let cell = region * 8 + self.top_bounds[region].octant_of(query);
        // A sparse leaf cannot answer the query exactly anyway; skip straight
        // to the caller's fallback instead of doing the work twice.
        if self.cell_len(cell) < k {
            return (Vec::new(), false);
        }
        let (start, end) = self.cell_range(cell);
        let mut best = BestK::default();
        best.begin(k);
        kernels::scan_ids(&self.soa, &self.ids, start, end, query, &mut best);
        let result = best.sorted();
        let exact = if result.len() < k {
            false
        } else {
            // Distance from query to the cell boundary: if the k-th neighbor
            // is closer than the boundary, no outside point can beat it.
            let cb = &self.cell_bounds[cell];
            let to_boundary = [
                query.x - cb.min.x,
                cb.max.x - query.x,
                query.y - cb.min.y,
                cb.max.y - query.y,
                query.z - cb.min.z,
                cb.max.z - query.z,
            ]
            .into_iter()
            .fold(f32::INFINITY, f32::min)
            .max(0.0);
            result[result.len() - 1].distance_squared <= to_boundary * to_boundary
        };
        (result, exact)
    }

    /// Allocation-free exact kNN: results land in `best` (cleared first,
    /// sorted by `(distance, index)`); `order` is the reused cell-visitation
    /// scratch (cells sorted by their distance lower bound to the query).
    /// One batch call shares both buffers across all its queries, which also
    /// warm-starts each query's pruning bound from the previous one's result
    /// (see [`BestK::begin_warm`]; results are unaffected, a fresh
    /// accumulator simply starts cold).
    pub(crate) fn knn_into(
        &self,
        query: Point3,
        k: usize,
        best: &mut BestK,
        order: &mut Vec<(f32, usize)>,
    ) {
        best.begin_warm(k, query, &self.points);
        if k == 0 || self.points.is_empty() {
            return;
        }
        // Visit cells in order of their lower-bound distance to the query.
        order.clear();
        order.extend(
            self.cell_bounds
                .iter()
                .enumerate()
                .filter(|(c, _)| self.cell_len(*c) > 0)
                .map(|(c, b)| (b.distance_squared_to(query), c)),
        );
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(lower_bound, cell) in order.iter() {
            if lower_bound > best.worst_d2() {
                break;
            }
            let (start, end) = self.cell_range(cell);
            kernels::scan_ids(&self.soa, &self.ids, start, end, query, best);
        }
    }
}

impl NeighborSearch for TwoLayerOctree {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn knn(&self, query: Point3, k: usize) -> Vec<Neighbor> {
        let mut best = BestK::default();
        let mut order = Vec::new();
        self.knn_into(query, k, &mut best, &mut order);
        best.sorted()
    }

    fn radius(&self, query: Point3, radius: f32) -> Vec<Neighbor> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let r2 = radius * radius;
        let mut out = Vec::new();
        for (cell, b) in self.cell_bounds.iter().enumerate() {
            if self.cell_len(cell) == 0 || b.distance_squared_to(query) > r2 {
                continue;
            }
            let (start, end) = self.cell_range(cell);
            kernels::scan_radius_ids(&self.soa, &self.ids, start, end, query, r2, &mut out);
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
        // Morton order groups queries by leaf cell, so each cell's point
        // list is scanned while still cache-hot from the previous query.
        let mut order: Vec<(f32, usize)> = Vec::with_capacity(LEAF_CELLS);
        batch_queries(queries, stride, out, |q, best| {
            self.knn_into(q, k, best, &mut order);
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
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                )
            })
            .collect()
    }

    #[test]
    fn has_64_cells_and_assigns_every_point() {
        let pts = random_points(2000, 7);
        let oct = TwoLayerOctree::build(&pts);
        assert_eq!(oct.cell_bounds.len(), 64);
        let total: usize = (0..64).map(|c| oct.cell_len(c)).sum();
        assert_eq!(total, pts.len());
        for i in (0..pts.len()).step_by(97) {
            let cell = oct.cell_of(i);
            assert!(oct.cell_bounds[cell].contains(pts[i]));
        }
    }

    #[test]
    fn agrees_with_brute_force() {
        let pts = random_points(800, 11);
        let oct = TwoLayerOctree::build(&pts);
        let bf = BruteForce::new(&pts);
        for q in random_points(25, 13) {
            let a = oct.knn(q, 6);
            let b = bf.knn(q, 6);
            assert_eq!(
                a.iter().map(|n| n.index).collect::<Vec<_>>(),
                b.iter().map(|n| n.index).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn radius_agrees_with_brute_force() {
        let pts = random_points(500, 17);
        let oct = TwoLayerOctree::build(&pts);
        let bf = BruteForce::new(&pts);
        for q in random_points(10, 19) {
            let a = oct.radius(q, 1.5);
            let b = bf.radius(q, 1.5);
            assert_eq!(
                a.iter().map(|n| n.index).collect::<Vec<_>>(),
                b.iter().map(|n| n.index).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_cloud_is_fine() {
        let oct = TwoLayerOctree::build(&[]);
        assert!(oct.is_empty());
        assert!(oct.knn(Point3::ZERO, 3).is_empty());
        assert!(oct.radius(Point3::ZERO, 1.0).is_empty());
        let (nn, exact) = oct.knn_within_cell(Point3::ZERO, 3);
        assert!(nn.is_empty());
        assert!(exact);
    }

    #[test]
    fn knn_batch_matches_per_query_loop() {
        let pts = random_points(600, 41);
        let oct = TwoLayerOctree::build(&pts);
        let queries = random_points(40, 43);
        for k in [0usize, 1, 6, 700] {
            let mut batch = crate::Neighborhoods::new();
            oct.knn_batch(&queries, k, &mut batch);
            for (i, &q) in queries.iter().enumerate() {
                let expected: Vec<u32> = oct.knn(q, k).iter().map(|n| n.index as u32).collect();
                assert_eq!(batch.row(i), expected.as_slice(), "k {k} query {i}");
            }
        }
    }

    #[test]
    fn build_in_matches_fresh_build() {
        let mut oct = TwoLayerOctree::default();
        assert!(oct.is_empty());
        for seed in [51, 52] {
            let pts = random_points(800, seed);
            oct.build_in(&pts);
            let fresh = TwoLayerOctree::build(&pts);
            assert_eq!(oct.bounds(), fresh.bounds());
            for q in random_points(15, seed + 9) {
                assert_eq!(
                    oct.knn(q, 5).iter().map(|n| n.index).collect::<Vec<_>>(),
                    fresh.knn(q, 5).iter().map(|n| n.index).collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    fn within_cell_exactness_flag_is_sound() {
        let pts = random_points(3000, 23);
        let oct = TwoLayerOctree::build(&pts);
        let bf = BruteForce::new(&pts);
        let mut exact_checked = 0;
        for &q in pts.iter().step_by(53) {
            let (fast, exact) = oct.knn_within_cell(q, 4);
            if exact {
                exact_checked += 1;
                let truth = bf.knn(q, 4);
                assert_eq!(
                    fast.iter().map(|n| n.index).collect::<Vec<_>>(),
                    truth.iter().map(|n| n.index).collect::<Vec<_>>()
                );
            }
        }
        // With 3000 points most interior queries should take the fast path.
        assert!(exact_checked > 0);
    }
}
