//! Neighbor relationship reuse (paper Eq. 2).
//!
//! For an interpolated point `p'` generated between original points `p` and
//! `q`, the paper observes that `N_k(p') ≈ MergeAndPrune(N_k(p), N_k(q))`:
//! the union of the parents' neighbor lists, re-ranked by distance to `p'`
//! and truncated to `k`, is an excellent approximation of a fresh kNN query
//! — and it costs only `O(k)` distance evaluations instead of a tree
//! traversal.
//!
//! [`merge_and_prune`] is the allocating reference; production rows come
//! from [`merge_and_prune_rows`], the batch entry over the branch-free kernel
//! [`volut_pointcloud::kernels::merge_prune_row`], and
//! [`merge_and_prune_into`] is that kernel's one-row call.

use volut_pointcloud::kernels::{merge_prune_row, MERGE_MAX_K};
use volut_pointcloud::{Neighborhoods, NeighborhoodsView, Point3};

/// Merges the neighbor index lists of the two parent points, re-ranks them
/// by distance to the interpolated point `p_new`, removes duplicates and
/// returns the closest `k` indices.
///
/// `positions` must be the original (low-resolution) point array that the
/// indices refer to.
///
/// # Example
///
/// ```
/// use volut_core::interpolate::reuse::merge_and_prune;
/// use volut_pointcloud::Point3;
/// let positions = vec![
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(1.0, 0.0, 0.0),
///     Point3::new(2.0, 0.0, 0.0),
///     Point3::new(10.0, 0.0, 0.0),
/// ];
/// let merged = merge_and_prune(
///     Point3::new(0.5, 0.0, 0.0),
///     &[0, 1, 3],
///     &[1, 2],
///     &positions,
///     2,
/// );
/// assert_eq!(merged, vec![0, 1]);
/// ```
pub fn merge_and_prune(
    p_new: Point3,
    neighbors_p: &[usize],
    neighbors_q: &[usize],
    positions: &[Point3],
    k: usize,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let mut candidates: Vec<usize> = Vec::with_capacity(neighbors_p.len() + neighbors_q.len());
    candidates.extend_from_slice(neighbors_p);
    candidates.extend_from_slice(neighbors_q);
    candidates.sort_unstable();
    candidates.dedup();
    let mut ranked: Vec<(f32, usize)> = candidates
        .into_iter()
        .filter(|&i| i < positions.len())
        .map(|i| (positions[i].distance_squared(p_new), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// The `k` of every paper configuration (K4d1, K4d2): rows of this width
/// run the kernel with compile-time trip counts.
const FIXED_K: usize = 4;

/// Allocation-free [`merge_and_prune`] of one generated point: the one-row
/// call of the production kernel,
/// [`volut_pointcloud::kernels::merge_prune_row`], appending the pruned
/// result to `out` as a new row.
///
/// The kernel looks for duplicates only *across* its two heads (kNN rows
/// are distinct by construction), so this entry — which takes arbitrary
/// lists — first drops the repeats within each. Results are identical to
/// [`merge_and_prune`] for lists of at most 32 entries and `k ≤ 32` (the
/// pipeline's documented domain).
///
/// # Panics
/// Debug-panics when `k > 32`; release builds cut `k` and each list at 32
/// entries.
pub fn merge_and_prune_into(
    p_new: Point3,
    neighbors_p: &[u32],
    neighbors_q: &[u32],
    positions: &[Point3],
    k: usize,
    out: &mut Neighborhoods,
) {
    let distinct = |list: &[u32]| {
        let (mut kept, mut len) = ([0u32; MERGE_MAX_K], 0);
        for &i in list.iter().take(MERGE_MAX_K) {
            if !kept[..len].contains(&i) {
                kept[len] = i;
                len += 1;
            }
        }
        (kept, len)
    };
    let ((p, p_len), (q, q_len)) = (distinct(neighbors_p), distinct(neighbors_q));
    out.push_bounded_rows(1, k, |_, dst| {
        merge_prune_row(p_new, &p[..p_len], &q[..q_len], positions, dst)
    });
}

/// Batched neighbor-relationship reuse: derives one neighborhood row per
/// generated point from the dilated lists of its two parents.
///
/// For each `i`, row `i` of `out` receives
/// `merge_and_prune(new_points[i], head_k(hoods[parents[i].0]),
/// head_k(hoods[parents[i].1]), positions, k)` — the `k`-nearest heads of
/// the parents' dilated rows merged, re-ranked by distance to the new point
/// and pruned to `k` (Eq. 2) — by the fixed-trip, branch-free kernel
/// [`volut_pointcloud::kernels::merge_prune_row`], written straight into
/// the row's final CSR slot: no heap allocation, push or data-dependent
/// branch per generated point. Each row of `hoods` must hold distinct
/// indices, as kNN rows do.
///
/// # Panics
/// Panics when `new_points` and `parents` disagree in length, or when a
/// parent index has no row in `hoods`. Debug-panics when `k > 32`; release
/// builds cut `k` at 32.
pub fn merge_and_prune_rows(
    new_points: &[Point3],
    mut parents: impl ExactSizeIterator<Item = (usize, usize)>,
    hoods: NeighborhoodsView<'_>,
    positions: &[Point3],
    k: usize,
    out: &mut Neighborhoods,
) {
    assert_eq!(
        new_points.len(),
        parents.len(),
        "one parent pair per generated point"
    );
    out.push_bounded_rows(new_points.len(), k, |i, dst| {
        let (a, b) = parents.next().expect("length checked above");
        merge_parent_heads(new_points[i], hoods.row(a), hoods.row(b), positions, dst)
    });
}

/// One generated point's Eq. 2 row: the `dst.len()`-nearest heads of its
/// parents' neighbor rows merged, re-ranked by distance to `p_new` and
/// pruned into `dst`; returns how many entries it kept. The paper's `k`
/// takes the kernel's constant-width call. Rows must hold distinct indices.
#[inline]
pub(crate) fn merge_parent_heads(
    p_new: Point3,
    row_a: &[u32],
    row_b: &[u32],
    positions: &[Point3],
    dst: &mut [u32],
) -> usize {
    let k = dst.len();
    let (a, b) = (&row_a[..row_a.len().min(k)], &row_b[..row_b.len().min(k)]);
    match (
        <&[u32; FIXED_K]>::try_from(a),
        <&[u32; FIXED_K]>::try_from(b),
        <&mut [u32; FIXED_K]>::try_from(&mut *dst),
    ) {
        (Ok(a), Ok(b), Ok(dst)) => merge_prune_row(p_new, a, b, positions, dst),
        _ => merge_prune_row(p_new, a, b, positions, dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volut_pointcloud::kdtree::KdTree;
    use volut_pointcloud::knn::NeighborSearch;
    use volut_pointcloud::synthetic;

    #[test]
    fn k_zero_returns_empty() {
        assert!(merge_and_prune(Point3::ZERO, &[0, 1], &[2], &[Point3::ZERO; 3], 0).is_empty());
    }

    #[test]
    fn duplicates_are_removed() {
        let positions = vec![Point3::ZERO, Point3::ONE, Point3::splat(2.0)];
        let merged = merge_and_prune(Point3::ZERO, &[0, 1, 2], &[0, 1, 2], &positions, 3);
        assert_eq!(merged, vec![0, 1, 2]);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let positions = vec![Point3::ZERO, Point3::ONE];
        let merged = merge_and_prune(Point3::ZERO, &[0, 99], &[1], &positions, 3);
        assert_eq!(merged, vec![0, 1]);
    }

    #[test]
    fn approximation_has_high_recall_on_surfaces() {
        // Build a realistic scenario: parents are true neighbors on a surface,
        // the interpolated midpoint should inherit most of their neighbors.
        let cloud = synthetic::sphere(2000, 1.0, 9);
        let tree = KdTree::build(cloud.positions());
        let k = 4;
        let mut total_recall = 0.0;
        let mut samples = 0;
        for i in (0..cloud.len()).step_by(101) {
            let p = cloud.position(i);
            let np: Vec<usize> = tree
                .knn(p, k + 1)
                .iter()
                .map(|n| n.index)
                .filter(|&j| j != i)
                .collect();
            if np.is_empty() {
                continue;
            }
            let j = np[0];
            let q = cloud.position(j);
            let nq: Vec<usize> = tree
                .knn(q, k + 1)
                .iter()
                .map(|n| n.index)
                .filter(|&x| x != j)
                .collect();
            let mid = p.midpoint(q);
            let approx = merge_and_prune(mid, &np, &nq, cloud.positions(), k);
            let exact: Vec<usize> = tree.knn(mid, k).iter().map(|n| n.index).collect();
            // Recall: the fraction of exact neighbors the approximation kept.
            let hits = exact.iter().filter(|i| approx.contains(i)).count();
            total_recall += hits as f64 / exact.len() as f64;
            samples += 1;
        }
        let mean_recall = total_recall / samples as f64;
        assert!(mean_recall > 0.75, "mean recall too low: {mean_recall}");
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let cloud = synthetic::torus(800, 1.0, 0.3, 4);
        let tree = KdTree::build(cloud.positions());
        let k = 4;
        let mut csr = volut_pointcloud::Neighborhoods::new();
        let mut expected_rows = Vec::new();
        for i in (0..cloud.len()).step_by(37) {
            let p = cloud.position(i);
            let np: Vec<usize> = tree
                .knn(p, k + 1)
                .iter()
                .map(|n| n.index)
                .filter(|&j| j != i)
                .collect();
            if np.is_empty() {
                continue;
            }
            let j = np[0];
            let nq: Vec<usize> = tree
                .knn(cloud.position(j), k + 1)
                .iter()
                .map(|n| n.index)
                .filter(|&x| x != j)
                .collect();
            let mid = p.midpoint(cloud.position(j));
            expected_rows.push(merge_and_prune(mid, &np, &nq, cloud.positions(), k));
            let np32: Vec<u32> = np.iter().map(|&v| v as u32).collect();
            let nq32: Vec<u32> = nq.iter().map(|&v| v as u32).collect();
            merge_and_prune_into(mid, &np32, &nq32, cloud.positions(), k, &mut csr);
        }
        assert_eq!(csr.to_nested(), expected_rows);
        // k = 0 appends an empty row instead of skipping.
        let before = csr.len();
        merge_and_prune_into(Point3::ZERO, &[0], &[1], cloud.positions(), 0, &mut csr);
        assert_eq!(csr.len(), before + 1);
        assert!(csr.row(before).is_empty());
    }

    #[test]
    fn batched_rows_match_per_point_kernel() {
        let cloud = synthetic::sphere(500, 1.0, 6);
        let tree = KdTree::build(cloud.positions());
        let k = 4;
        // Dilated-style per-source rows.
        let mut hoods = volut_pointcloud::Neighborhoods::new();
        tree.knn_batch(cloud.positions(), k + 1, &mut hoods);
        let mut new_points = Vec::new();
        let mut parents = Vec::new();
        for i in (0..cloud.len()).step_by(11) {
            let j = (i + 7) % cloud.len();
            new_points.push(cloud.position(i).midpoint(cloud.position(j)));
            parents.push((i, j));
        }
        let mut batched = volut_pointcloud::Neighborhoods::new();
        merge_and_prune_rows(
            &new_points,
            parents.iter().copied(),
            hoods.view(),
            cloud.positions(),
            k,
            &mut batched,
        );
        let mut expected = volut_pointcloud::Neighborhoods::new();
        for (&p, &(i, j)) in new_points.iter().zip(parents.iter()) {
            let np = &hoods.row(i)[..hoods.row(i).len().min(k)];
            let nq = &hoods.row(j)[..hoods.row(j).len().min(k)];
            merge_and_prune_into(p, np, nq, cloud.positions(), k, &mut expected);
        }
        assert_eq!(batched, expected);
    }
}
