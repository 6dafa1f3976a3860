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
//! from [`merge_parent_heads`], which the frame pass calls once per
//! generated point to write its row in place through the branch-free
//! kernel [`volut_pointcloud::kernels::merge_prune_row`].

use volut_pointcloud::kernels::merge_prune_row;
use volut_pointcloud::Point3;

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

/// One generated point's Eq. 2 row, allocation-free: the `k`-nearest heads
/// of its parents' neighbor rows (`k = dst.len()`) merged, re-ranked by
/// distance to `p_new` and pruned into `dst`; returns how many entries it
/// kept, the rest of `dst` being padding. The kept entries equal
/// [`merge_and_prune`] of the two heads. The paper's `k` takes the kernel's
/// constant-width call. Each row must hold distinct indices, as kNN rows do;
/// indices outside `positions` are skipped.
///
/// # Panics
/// Debug-panics when `k` exceeds
/// [`volut_pointcloud::kernels::MERGE_MAX_K`], which `SrConfig::validate`
/// rules out.
#[inline]
pub fn merge_parent_heads(
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
        for k in [1usize, 4, 6] {
            for i in (0..cloud.len()).step_by(37) {
                let row = |i: usize| -> Vec<u32> {
                    let nn = tree.knn(cloud.position(i), k + 1);
                    nn.iter()
                        .map(|n| n.index as u32)
                        .filter(|&j| j as usize != i)
                        .collect()
                };
                let np = row(i);
                let nq = row(np[0] as usize);
                let mid = cloud.position(i).midpoint(cloud.position(np[0] as usize));
                let as_usize = |l: &[u32]| l.iter().map(|&v| v as usize).collect::<Vec<_>>();
                let expected =
                    merge_and_prune(mid, &as_usize(&np), &as_usize(&nq), cloud.positions(), k);
                let mut dst = vec![0u32; k];
                let kept = merge_parent_heads(mid, &np, &nq, cloud.positions(), &mut dst);
                assert_eq!(as_usize(&dst[..kept]), expected, "k {k} point {i}");
            }
        }
    }

    #[test]
    fn batched_rows_match_per_point_kernel() {
        // The frame pass writes every generated point's row in place; each
        // must equal the kernel run on the heads of its parents' dilated
        // (self-match-stripped) rows.
        let cloud = synthetic::sphere(500, 1.0, 6);
        let config = crate::SrConfig::default();
        let out = crate::interpolate::dilated::dilated_interpolate(&cloud, &config, 3.0).unwrap();
        let mut hoods = volut_pointcloud::Neighborhoods::new();
        let dilated_k = config.dilated_neighborhood();
        KdTree::build(cloud.positions()).knn_batch(cloud.positions(), dilated_k + 1, &mut hoods);
        let dilated = |r: usize| -> Vec<u32> {
            hoods
                .row(r)
                .iter()
                .copied()
                .filter(|&j| j as usize != r)
                .take(dilated_k)
                .collect()
        };
        assert_eq!(out.neighborhoods.len(), out.parents.len());
        for (i, &(a, b)) in out.parents.iter().enumerate() {
            let p = out.cloud.position(out.original_len + i);
            let mut dst = vec![0u32; config.k];
            let kept = merge_parent_heads(p, &dilated(a), &dilated(b), cloud.positions(), &mut dst);
            assert_eq!(kept, config.k);
            assert_eq!(
                out.neighborhoods.row(i),
                dst.as_slice(),
                "generated point {i}"
            );
        }
    }
}
