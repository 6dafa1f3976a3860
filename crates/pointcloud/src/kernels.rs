//! The one squared-distance kernel every candidate scan runs through.
//!
//! The k-d tree's leaf scans, the dual-tree join's tile scans and the
//! brute-force oracle's full pass all stream [`SoaPositions`] lanes through
//! here (array-of-structs loads keep the compiler from vectorizing the hot
//! loop):
//!
//! * `scan_ids` — kNN candidate scan into one `BestK` row, the fixed-width,
//!   sentinel-padded result row of every traversal (the kernel behind
//!   `knn`/`knn_batch`). At the AVX-512 tier a row of up to 16 keys stays
//!   in two registers for the whole scan and takes each candidate through
//!   `knn::insert_sorted`'s network lane-parallel; the scalar and AVX2
//!   tiers (AVX2 has no unsigned 64-bit min/max) and wider rows insert in
//!   memory;
//! * `join_leaf_pair` — the dual-tree self-join's base case: the rows of one
//!   query leaf box-tested 16 at a time against one reference leaf, the
//!   survivors scanned through the same candidate kernel (see
//!   [`crate::dualtree`]);
//! * [`merge_prune_row`] — the interpolators' per-generated-point kernel
//!   (paper Eq. 2): the two parents' neighbor heads re-ranked around the new
//!   point through the same packed keys and the same sorted insert as the
//!   join's rows.
//!
//! With the default-on `simd` feature the kernels run at the widest
//! instruction tier the CPU offers (`Tier`: AVX-512, AVX2 or scalar) with an
//! explicit compare-mask pre-filter; every tier performs the same arithmetic
//! in the same order (`dx·dx + dy·dy + dz·dz`, no FMA contraction), so the
//! tiers are **bit-identical** — including index-broken distance ties — and
//! the feature flag can never change results.

use crate::aabb::Aabb;
use crate::knn::{insert_sorted, pack_key, BestK, SENTINEL};
use crate::point::Point3;
use crate::soa::SoaPositions;

pub use crate::soa::LANES;

/// Instruction tier the kernels run at. Values only come from
/// [`Tier::detect`], so holding an AVX tier proves the CPU supports it — the
/// fact every `unsafe` call into a `#[target_feature]` kernel below rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Tier(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Scalar,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
}

impl Tier {
    /// The widest tier this build and CPU support. One cached feature probe
    /// per call: the per-query paths call it per query, the sweep and the
    /// dual-tree join once per batch.
    #[inline]
    pub(crate) fn detect() -> Tier {
        #[cfg(test)]
        if let Some(forced) = tier_override::get() {
            return forced;
        }
        Tier::hardware()
    }

    #[inline]
    fn hardware() -> Tier {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Tier(Isa::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Tier(Isa::Avx2);
            }
        }
        Tier(Isa::Scalar)
    }
}

/// Test-only tier override: lets the suite run the scalar, AVX2 and AVX-512
/// kernels side by side on whatever host executes it (without it an AVX-512
/// host never runs the AVX2 code, and the reverse). The override is
/// per-thread and read by [`Tier::detect`] on the calling thread only, which
/// is where the join and the sweep resolve their tier for the whole batch.
#[cfg(test)]
pub(crate) mod tier_override {
    use super::{Isa, Tier};
    use std::cell::Cell;

    thread_local! {
        static FORCED: Cell<Option<Tier>> = const { Cell::new(None) };
    }

    pub(super) fn get() -> Option<Tier> {
        FORCED.with(Cell::get)
    }

    /// Every tier this host can execute, scalar first.
    pub(crate) fn available() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![Tier(Isa::Scalar)];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        tiers.extend(
            [Isa::Avx2, Isa::Avx512]
                .into_iter()
                .filter(|&isa| isa <= Tier::hardware().0)
                .map(Tier),
        );
        tiers
    }

    /// Runs `f` with [`Tier::detect`] pinned to `tier` on this thread.
    pub(crate) fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
        assert!(tier <= Tier::hardware(), "host cannot execute {tier:?}");
        let prev = FORCED.with(|c| c.replace(Some(tier)));
        let out = f();
        FORCED.with(|c| c.set(prev));
        out
    }
}

/// Squared distances from `q` to one [`LANES`]-wide window of coordinates.
///
/// The arithmetic is exactly `dx*dx + dy*dy + dz*dz` per lane — the same
/// operations, in the same order, as [`Point3::distance_squared`] — so every
/// path built on this block agrees bit-for-bit with the scalar formulation.
#[inline(always)]
fn dist2_block(xs: &[f32; LANES], ys: &[f32; LANES], zs: &[f32; LANES], q: Point3) -> [f32; LANES] {
    let mut out = [0.0f32; LANES];
    for j in 0..LANES {
        let dx = xs[j] - q.x;
        let dy = ys[j] - q.y;
        let dz = zs[j] - q.z;
        out[j] = dx * dx + dy * dy + dz * dz;
    }
    out
}

/// `W`-wide window starting at `i` ([`LANES`] for the distance blocks,
/// [`BOX_BLOCK`] for the join's pre-filter); sound for any `i < soa.len()`
/// thanks to the SoA store's two blocks of padding (see [`SoaPositions`]).
#[inline(always)]
fn window<const W: usize>(lane: &[f32], i: usize) -> &[f32; W] {
    lane[i..i + W].try_into().expect("padded SoA window")
}

/// Best-effort read prefetch of the cache line holding `p` (no-op on
/// non-x86 targets). Used by the batched kNN driver to hide the latency of
/// its permuted query loads.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Scans slots `start..end` of `soa` into the row `best`, offering every
/// candidate whose squared distance can still matter; `ids[slot]` maps a
/// slot back to the original point index. This is the shared scan of the
/// k-d tree's leaves, the dual-tree join's tiles and the brute-force
/// oracle's whole cloud, at the `tier` its caller resolved.
///
/// Candidates are pre-filtered with `d2 <= best.bound` (equality passes
/// through so index-broken ties behave exactly like an unfiltered insert);
/// the filter only skips candidates the insert would reject anyway, so
/// results are identical to an unfiltered scan for any non-NaN input.
#[inline]
pub(crate) fn scan_ids(
    tier: Tier,
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut BestK<'_>,
) {
    debug_assert!(end <= soa.len() && end <= ids.len());
    debug_assert!(!best.keys.is_empty(), "callers early-out on k == 0");
    if start >= end {
        return;
    }
    match tier.0 {
        // SAFETY (both arms): a `Tier` naming an ISA proves the CPU has it.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx512 => unsafe { scan_ids_avx512(soa, ids, start, end, q, best) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { scan_ids_avx2(soa, ids, start, end, q, best) },
        Isa::Scalar => scan_ids_scalar(soa, ids, start, end, q, best),
    }
}

#[inline]
fn scan_ids_scalar(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut BestK<'_>,
) {
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let mut i = start;
    while i < end {
        let d2 = dist2_block(window(xs, i), window(ys, i), window(zs, i), q);
        let m = LANES.min(end - i);
        for (j, &d) in d2.iter().enumerate().take(m) {
            if d <= best.bound {
                best.push(ids[i + j] as usize, d);
            }
        }
        i += LANES;
    }
}

/// AVX2 scan: 8 candidate distances per iteration, with a vector compare
/// against the row's bound so blocks with no viable candidate cost a single
/// mask test. Lanes surviving the mask are pushed in lane order (the insert
/// rejects any the tightening bound has since ruled out) — bit-identical to
/// the scalar path. AVX2 has no unsigned 64-bit min/max, so the row stays in
/// memory and each push is [`insert_sorted`]'s scalar network.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn scan_ids_avx2(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut BestK<'_>,
) {
    use std::arch::x86_64::*;
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let qx = _mm256_set1_ps(q.x);
    let qy = _mm256_set1_ps(q.y);
    let qz = _mm256_set1_ps(q.z);
    let mut i = start;
    while i < end {
        // Explicit mul + add (NOT fmadd): keeps the arithmetic bit-identical
        // to the scalar kernel and to the pre-SoA `distance_squared` loops.
        let dx = _mm256_sub_ps(_mm256_loadu_ps(xs.as_ptr().add(i)), qx);
        let dy = _mm256_sub_ps(_mm256_loadu_ps(ys.as_ptr().add(i)), qy);
        let dz = _mm256_sub_ps(_mm256_loadu_ps(zs.as_ptr().add(i)), qz);
        let d2v = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let m = LANES.min(end - i);
        let wd = _mm256_set1_ps(best.bound);
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(d2v, wd);
        let mut bits = (_mm256_movemask_ps(le) as u32) & ((1u32 << m) - 1);
        if bits != 0 {
            let mut d2 = [0.0f32; LANES];
            _mm256_storeu_ps(d2.as_mut_ptr(), d2v);
            // No re-test against the tightening bound: a lane that stopped
            // qualifying since the vector compare is a no-op inside the
            // insert, which costs less than a branch on the data.
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                best.push(ids[i + j] as usize, d2[j]);
            }
        }
        i += LANES;
    }
}

/// AVX-512 scan: 16 candidate distances per iteration with a native
/// compare-to-mask against the row's bound, and the row itself held in two
/// registers for the whole scan. Same explicit mul + add arithmetic and
/// same ascending-lane insert order as the scalar path.
///
/// A row of up to 16 keys is loaded once (lanes past `k` read
/// [`SENTINEL`]) as `a` (keys 0..8) and `b` (keys 8..16), and every
/// surviving lane runs [`insert_sorted`]'s network lane-parallel:
/// `a' = max(a shifted up one lane with 0 entering, min(a, key))` and
/// `b' = max(b shifted up one lane with a's last entering, min(b, key))`.
/// Lanes past `k` only ever receive keys shifted out of the row, and
/// nothing flows back down, so they never touch the first `k`. The bound
/// folds in the k-th key once per 16-lane block, after the block's inserts:
/// the block's mask was fixed before them (no re-test), so the next block
/// compares against exactly the bound a per-insert refresh would leave. The
/// row is stored once, at the end. Rows wider than 16 keys stay in memory
/// and take [`insert_sorted`] per push.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn scan_ids_avx512(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut BestK<'_>,
) {
    use crate::knn::key_d2;
    use std::arch::x86_64::*;
    const W: usize = 2 * LANES;
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    // The 16-wide loads below read up to `W - 1` lanes past `end`: the SoA
    // store's two blocks of padding past its length cover them.
    debug_assert!(end + W <= xs.len().min(ys.len()).min(zs.len()));
    let qx = _mm512_set1_ps(q.x);
    let qy = _mm512_set1_ps(q.y);
    let qz = _mm512_set1_ps(q.z);
    let k = best.keys.len();
    let in_registers = k <= W;
    let (lo_mask, hi_mask) = if in_registers {
        (
            ((1u32 << k.min(8)) - 1) as __mmask8,
            ((1u32 << k.saturating_sub(8)) - 1) as __mmask8,
        )
    } else {
        (0, 0)
    };
    // `k.min(8)` keeps the high half's address inside the row (one past its
    // end when `k < 8`, where the mask loads and stores nothing).
    let (lo_ptr, hi_ptr) = {
        let row = best.keys.as_mut_ptr().cast::<i64>();
        (row, row.add(k.min(8)))
    };
    let pad = _mm512_set1_epi64(SENTINEL as i64);
    let mut a = _mm512_mask_loadu_epi64(pad, lo_mask, lo_ptr);
    let mut b = _mm512_mask_loadu_epi64(pad, hi_mask, hi_ptr);
    let kth_lane = _mm512_set1_epi64(k.saturating_sub(1) as i64);
    let zero = _mm512_setzero_si512();
    let mut bound = best.bound;
    let mut i = start;
    while i < end {
        // Explicit mul + add (NOT fmadd): keeps the arithmetic bit-identical
        // to the scalar kernel.
        let dx = _mm512_sub_ps(_mm512_loadu_ps(xs.as_ptr().add(i)), qx);
        let dy = _mm512_sub_ps(_mm512_loadu_ps(ys.as_ptr().add(i)), qy);
        let dz = _mm512_sub_ps(_mm512_loadu_ps(zs.as_ptr().add(i)), qz);
        let d2v = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
            _mm512_mul_ps(dz, dz),
        );
        let m = W.min(end - i);
        let le: u16 = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(d2v, _mm512_set1_ps(bound));
        let mut bits = (le as u32) & (((1u32 << (m - 1)) << 1) - 1);
        if bits != 0 {
            let mut d2 = [0.0f32; W];
            _mm512_storeu_ps(d2.as_mut_ptr(), d2v);
            // No re-test against the tightening bound: a lane that stopped
            // qualifying since the vector compare is a no-op inside the
            // insert, which costs less than a branch on the data.
            if in_registers {
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let key = _mm512_set1_epi64(pack_key(ids[i + j] as usize, d2[j]) as i64);
                    let a_left = _mm512_alignr_epi64::<7>(a, zero);
                    let b_left = _mm512_alignr_epi64::<7>(b, a);
                    a = _mm512_max_epu64(a_left, _mm512_min_epu64(a, key));
                    b = _mm512_max_epu64(b_left, _mm512_min_epu64(b, key));
                }
                let kth = _mm512_permutex2var_epi64(a, kth_lane, b);
                bound = bound.min(key_d2(_mm_cvtsi128_si64(_mm512_castsi512_si128(kth)) as u64));
            } else {
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    best.push(ids[i + j] as usize, d2[j]);
                }
                bound = best.bound;
            }
        }
        i += W;
    }
    _mm512_mask_storeu_epi64(lo_ptr, lo_mask, a);
    _mm512_mask_storeu_epi64(hi_ptr, hi_mask, b);
    best.bound = bound;
}

// --- Dual-tree join base case: one query leaf against one reference leaf.

/// Query rows box-tested per pre-filter step (one AVX-512 register).
const BOX_BLOCK: usize = 2 * LANES;

/// The mutable side of a dual-tree traversal: the result rows and pruning
/// bounds of a contiguous range of query leaf slots (the whole batch, or one
/// parallel shard's share of it).
pub(crate) struct JoinRows<'a> {
    /// `stride` packed `(d2-bits, index)` keys per slot, ascending at all
    /// times, [`SENTINEL`]-padded until `stride` candidates have arrived:
    /// each slot's window is the keys of one [`BestK`] row.
    pub(crate) keys: &'a mut [u64],
    /// Per-slot [`BestK::bound`]: an upper bound on the row's *final* k-th
    /// squared distance, the current k-th key's tightened by every
    /// warm-start cap the row has been handed (see `warm_cap`). It sits
    /// beside the key slab so a whole block of rows is box-tested from one
    /// contiguous load.
    pub(crate) bounds: &'a mut [f32],
    /// Keys per row.
    pub(crate) stride: usize,
    /// Leaf slot of `bounds[0]` / `keys[0]`.
    pub(crate) base: usize,
    /// Slot of the most recently scanned row — the warm-start seed of the
    /// next unfilled row (usually the previous slot of the same leaf; across
    /// leaf boundaries, the last row scanned in the previous leaf).
    /// `usize::MAX` until a row has been scanned.
    pub(crate) prev: usize,
}

/// The reference leaf of one leaf pair: its SoA tile, the slot → point-index
/// map, the tight box of its points, and the indexed points themselves (the
/// warm-start cap measures distances to a previous row's entries).
pub(crate) struct RefLeaf<'a> {
    pub(crate) soa: &'a SoaPositions,
    pub(crate) ids: &'a [u32],
    pub(crate) points: &'a [Point3],
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) aabb: Aabb,
}

/// The join's row-to-row warm start: the largest squared distance from `q`
/// to the entries of the previously scanned row (they are `stride` distinct
/// reference points, or the whole cloud when it is smaller than `k`, so
/// `q`'s final k-th distance cannot exceed it). `INFINITY` when no
/// previous row exists or it is not yet complete. Exact distances to real
/// candidates — the same arithmetic the scan kernels use — so no rounding
/// slack is needed, and like every cap it cannot change results: a candidate
/// or region is only skipped when strictly beyond an upper bound of the
/// final k-th distance, and ties at the cap still pass.
#[inline(always)]
fn warm_cap(rows: &JoinRows<'_>, points: &[Point3], q: Point3) -> f32 {
    if rows.prev == usize::MAX {
        return f32::INFINITY;
    }
    let lo = (rows.prev - rows.base) * rows.stride;
    let prow = &rows.keys[lo..lo + rows.stride];
    if prow[rows.stride - 1] == SENTINEL {
        return f32::INFINITY;
    }
    let mut cap = 0.0f32;
    for &key in prow {
        cap = cap.max(q.distance_squared(points[key as u32 as usize]));
    }
    cap
}

/// Box pre-filter, scalar form: bit `j` is set when query `j`'s squared
/// distance to `aabb` is at or below `bounds[j]`. The per-axis excess is
/// `max(min - v, v - max, 0)` and the sum runs x, y, z — term for term
/// [`Aabb::distance_squared_to`] (whose skipped axes add `+0.0`), so the
/// mask reproduces its pruning decisions exactly.
#[inline(always)]
fn box_mask_scalar(
    xs: &[f32; BOX_BLOCK],
    ys: &[f32; BOX_BLOCK],
    zs: &[f32; BOX_BLOCK],
    aabb: &Aabb,
    bounds: &[f32; BOX_BLOCK],
) -> u32 {
    let mut mask = 0u32;
    for j in 0..BOX_BLOCK {
        let dx = (aabb.min.x - xs[j]).max(xs[j] - aabb.max.x).max(0.0);
        let dy = (aabb.min.y - ys[j]).max(ys[j] - aabb.max.y).max(0.0);
        let dz = (aabb.min.z - zs[j]).max(zs[j] - aabb.max.z).max(0.0);
        let d2 = dx * dx + dy * dy + dz * dz;
        mask |= u32::from(d2 <= bounds[j]) << j;
    }
    mask
}

/// AVX2 form of [`box_mask_scalar`]: two 8-lane halves.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn box_mask_avx2(
    xs: &[f32; BOX_BLOCK],
    ys: &[f32; BOX_BLOCK],
    zs: &[f32; BOX_BLOCK],
    aabb: &Aabb,
    bounds: &[f32; BOX_BLOCK],
) -> u32 {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    // `max(.., zero)` last: a NaN excess reads as zero, like the scalar form.
    let excess = |v: __m256, lo: f32, hi: f32| {
        let below = _mm256_sub_ps(_mm256_set1_ps(lo), v);
        let above = _mm256_sub_ps(v, _mm256_set1_ps(hi));
        _mm256_max_ps(_mm256_max_ps(below, above), zero)
    };
    let mut mask = 0u32;
    for half in 0..2 {
        let at = half * LANES;
        let dx = excess(_mm256_loadu_ps(xs.as_ptr().add(at)), aabb.min.x, aabb.max.x);
        let dy = excess(_mm256_loadu_ps(ys.as_ptr().add(at)), aabb.min.y, aabb.max.y);
        let dz = excess(_mm256_loadu_ps(zs.as_ptr().add(at)), aabb.min.z, aabb.max.z);
        let d2 = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(d2, _mm256_loadu_ps(bounds.as_ptr().add(at)));
        mask |= (_mm256_movemask_ps(le) as u32) << at;
    }
    mask
}

/// AVX-512 form of [`box_mask_scalar`]: all 16 rows in one register.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn box_mask_avx512(
    xs: &[f32; BOX_BLOCK],
    ys: &[f32; BOX_BLOCK],
    zs: &[f32; BOX_BLOCK],
    aabb: &Aabb,
    bounds: &[f32; BOX_BLOCK],
) -> u32 {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_ps();
    // `max(.., zero)` last: a NaN excess reads as zero, like the scalar form.
    let excess = |v: __m512, lo: f32, hi: f32| {
        let below = _mm512_sub_ps(_mm512_set1_ps(lo), v);
        let above = _mm512_sub_ps(v, _mm512_set1_ps(hi));
        _mm512_max_ps(_mm512_max_ps(below, above), zero)
    };
    let dx = excess(_mm512_loadu_ps(xs.as_ptr()), aabb.min.x, aabb.max.x);
    let dy = excess(_mm512_loadu_ps(ys.as_ptr()), aabb.min.y, aabb.max.y);
    let dz = excess(_mm512_loadu_ps(zs.as_ptr()), aabb.min.z, aabb.max.z);
    let d2 = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
        _mm512_mul_ps(dz, dz),
    );
    let le: u16 = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(d2, _mm512_loadu_ps(bounds.as_ptr()));
    u32::from(le)
}

/// Stamps out one tier's leaf-pair kernel: the query leaf's rows are
/// box-tested against the reference leaf [`BOX_BLOCK`] at a time through
/// `$box_mask`, and each surviving row sweeps the reference tile through
/// `$scan` — both inlined, so one call per leaf pair is all the dispatch the
/// join pays.
macro_rules! join_leaf_pair_tier {
    ($(#[$attr:meta])* $name:ident, $box_mask:ident, $scan:ident) => {
        $(#[$attr])*
        unsafe fn $name(
            rows: &mut JoinRows<'_>,
            q: &SoaPositions,
            qs: usize,
            qe: usize,
            r: &RefLeaf<'_>,
        ) -> f32 {
            let (qxs, qys, qzs) = (q.xs(), q.ys(), q.zs());
            let stride = rows.stride;
            let mut leaf_bound = 0.0f32;
            let mut block = qs;
            while block < qe {
                let m = BOX_BLOCK.min(qe - block);
                let local = block - rows.base;
                // Lanes past the leaf carry a bound no distance is at or
                // below, so a partial last block needs no second code path.
                let mut bounds = [f32::NEG_INFINITY; BOX_BLOCK];
                bounds[..m].copy_from_slice(&rows.bounds[local..local + m]);
                let mut pass = $box_mask(
                    window(qxs, block),
                    window(qys, block),
                    window(qzs, block),
                    &r.aabb,
                    &bounds,
                );
                while pass != 0 {
                    let slot = block + pass.trailing_zeros() as usize;
                    pass &= pass - 1;
                    let local = slot - rows.base;
                    let query = Point3::new(qxs[slot], qys[slot], qzs[slot]);
                    let mut bound = rows.bounds[local];
                    if rows.keys[(local + 1) * stride - 1] == SENTINEL {
                        // Not yet full: warm-start from the previous row.
                        bound = bound.min(warm_cap(rows, r.points, query));
                    }
                    let mut row = BestK {
                        keys: &mut rows.keys[local * stride..(local + 1) * stride],
                        bound,
                    };
                    $scan(r.soa, r.ids, r.start, r.end, query, &mut row);
                    rows.bounds[local] = row.bound;
                    rows.prev = slot;
                }
                for &b in &rows.bounds[local..local + m] {
                    leaf_bound = leaf_bound.max(b);
                }
                block += BOX_BLOCK;
            }
            leaf_bound
        }
    };
}

join_leaf_pair_tier!(join_leaf_pair_scalar, box_mask_scalar, scan_ids_scalar);
join_leaf_pair_tier!(
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    join_leaf_pair_avx2,
    box_mask_avx2,
    scan_ids_avx2
);
join_leaf_pair_tier!(
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    join_leaf_pair_avx512,
    box_mask_avx512,
    scan_ids_avx512
);

/// Leaf-pair base case of the dual-tree join: every row of query leaf
/// `qs..qe` (slots of `q`) whose distance to `r`'s box is within its bound
/// sweeps `r`'s tile; rows that are not yet full are warm-started from the
/// previously scanned row first. Returns the query leaf's new shared bound —
/// the max over its rows' bounds. `tier` is resolved by the caller once per
/// batch.
#[inline]
pub(crate) fn join_leaf_pair(
    tier: Tier,
    rows: &mut JoinRows<'_>,
    q: &SoaPositions,
    qs: usize,
    qe: usize,
    r: &RefLeaf<'_>,
) -> f32 {
    debug_assert!(qe <= q.len() && r.end <= r.soa.len() && r.end <= r.ids.len());
    match tier.0 {
        // SAFETY (all arms): a `Tier` naming an ISA proves the CPU has it;
        // the scalar instance is `unsafe` only through the shared macro.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx512 => unsafe { join_leaf_pair_avx512(rows, q, qs, qe, r) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { join_leaf_pair_avx2(rows, q, qs, qe, r) },
        Isa::Scalar => unsafe { join_leaf_pair_scalar(rows, q, qs, qe, r) },
    }
}

// --- Neighbor-relationship reuse: one generated point from two parent rows.

/// Largest `k` the SR pipeline supports: the most neighbors
/// [`merge_prune_row`] ranks for one generated point.
pub const MERGE_MAX_K: usize = 32;

/// Merge-and-prune of one generated point (paper Eq. 2): re-ranks the
/// distinct, in-range union of its parents' heads by `(distance to p_new,
/// index)` and writes the closest `dst.len()` indices to `dst`, closest
/// first. Returns how many of them are neighbors — fewer than `dst.len()`
/// only when the union is smaller (or `dst` is wider than [`MERGE_MAX_K`],
/// which debug builds reject); the rest of `dst` is padding.
///
/// Fixed-trip and branch-free in the data: every candidate's squared
/// distance uses [`Point3::distance_squared`]'s arithmetic and is packed
/// with its index like a best-`k` key of [`crate::knn`]; an index outside
/// `positions` (its load clamped in range) or already present in `head_a`
/// becomes the all-ones key by compare-and-select, and every key goes
/// through `knn::insert_sorted` — above every real key, the all-ones key
/// changes nothing there and pads a row only behind its real entries — so
/// there is no rank scan, no data-dependent skip and no per-candidate push.
/// Each head must hold distinct indices, as every kNN row does; only
/// duplicates *across* the heads are looked for.
///
/// Always inlined: a caller whose slice lengths are compile-time constants
/// (see `volut_core::interpolate::reuse`) gets every loop unrolled and the
/// row in registers.
///
/// Measured on the 2-vCPU AVX-512 host (8 000-point humanoid, `k = 4`, 7
/// generated points per source point, one thread, best of 30): 48 ns per
/// generated point at constant width and 70 at run-time width, against 110
/// for the rank-scan insertion loop this replaces. Reading candidates from
/// the frame's [`SoaPositions`] mirror instead of `positions` read the same
/// to the nanosecond (the loads are scalar gathers either way), so the
/// kernel takes the array its one-row callers already hold. The same body
/// under `#[target_feature(enable = "avx2")]` read 49 and under `avx512f`
/// 50, so no per-`Tier` instance is kept. That holds for this kernel's
/// unrolled constant-width rows (`k = 4`, eight offers each), which live in
/// scalar registers at every tier. It does not hold for scan rows: the
/// AVX-512 scan (`scan_ids`) keeps its row in two vector registers and runs
/// the same network lane-parallel, about 1.5× faster per kNN query.
#[inline(always)]
pub fn merge_prune_row(
    p_new: Point3,
    head_a: &[u32],
    head_b: &[u32],
    positions: &[Point3],
    dst: &mut [u32],
) -> usize {
    const DROPPED: u64 = u64::MAX;
    debug_assert!(
        dst.len() <= MERGE_MAX_K,
        "receptive fields beyond k=32 are out of the supported domain"
    );
    let Some(last) = positions.len().checked_sub(1) else {
        return 0;
    };
    let mut row = [DROPPED; MERGE_MAX_K];
    let row = &mut row[..dst.len().min(MERGE_MAX_K)];
    let mut live = 0;
    let mut offer = |c: u32, fresh: bool| {
        let d2 = positions[(c as usize).min(last)].distance_squared(p_new);
        let keep = fresh & (c as usize <= last);
        live += usize::from(keep);
        insert_sorted(
            row,
            if keep {
                pack_key(c as usize, d2)
            } else {
                DROPPED
            },
        );
    };
    for &c in head_a {
        offer(c, true);
    }
    for &c in head_b {
        offer(c, !head_a.iter().fold(false, |dup, &x| dup | (x == c)));
    }
    for (d, &key) in dst.iter_mut().zip(row.iter()) {
        *d = key as u32;
    }
    live.min(row.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::key_d2;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random_range(-4.0..4.0),
                    rng.random_range(-4.0..4.0),
                    rng.random_range(-4.0..4.0),
                )
            })
            .collect()
    }

    /// The scan's contract, spelled out: every candidate of `start..end`
    /// in slot order, offered when its squared distance is at or below the
    /// row's bound, through a plain [`insert_sorted`], with the bound
    /// refolded after each insert.
    fn reference_scan(
        pts: &[Point3],
        (start, end): (usize, usize),
        q: Point3,
        row: &mut [u64],
        mut bound: f32,
    ) -> f32 {
        for (i, p) in pts.iter().enumerate().take(end).skip(start) {
            let d = p.distance_squared(q);
            if d <= bound {
                insert_sorted(row, pack_key(i, d));
                bound = bound.min(key_d2(row[row.len() - 1]));
            }
        }
        bound
    }

    /// At every tier this host can execute, the scan must leave the same
    /// row and bound, bit for bit, as [`reference_scan`] — the contract
    /// that makes the `simd` feature invisible to everything built on this
    /// kernel. Widths straddle the AVX-512 scan's two 8-key registers and
    /// its 16-key limit (wider rows stay in memory); rows enter the scan
    /// empty, partly filled under a warm cap, or full; and half the cloud
    /// sits on a coarse grid with duplicates, so distances tie each other,
    /// the cap and the row's entries.
    #[test]
    fn scan_matches_scalar_reference_bitwise_at_every_tier() {
        let mut pts = random_points(70, 9);
        let mut rng = StdRng::seed_from_u64(11);
        pts.extend((0..70).map(|_| {
            let mut c = || f32::from(rng.random_range(0u8..5)) - 2.0;
            Point3::new(c(), c(), c())
        }));
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let mut queries = random_points(8, 10);
        queries.extend([Point3::ZERO, Point3::ONE, Point3::new(1.0, -1.0, 0.0)]);
        let ranges = [(0usize, pts.len()), (5, 9), (7, 63), (60, 140), (137, 140)];
        for tier in tier_override::available() {
            for (qi, &q) in queries.iter().enumerate() {
                let dist: Vec<f32> = pts.iter().map(|p| p.distance_squared(q)).collect();
                for k in [1usize, 7, 8, 9, 15, 16, 17, 32, 33] {
                    for (ri, &(start, end)) in ranges.iter().enumerate() {
                        for entry in 0..3 {
                            // Entry keys carry indices no slot maps to, at
                            // distances drawn from the cloud's own, so they
                            // tie real candidates on both sides of them.
                            let filled = [0, k / 2, k][entry];
                            let mut row = vec![SENTINEL; k];
                            for _ in 0..filled {
                                let d = dist[rng.random_range(0..dist.len())];
                                let index = 1000 + rng.random_range(0..500usize);
                                insert_sorted(&mut row, pack_key(index, d));
                            }
                            // A warm cap on the partly filled row: one of the
                            // range's own distances, so candidates tie it.
                            let cap = match entry {
                                1 => dist[start + rng.random_range(0..end - start)],
                                _ => f32::INFINITY,
                            };
                            let bound = cap.min(key_d2(row[k - 1]));
                            let mut want = row.clone();
                            let want_bound =
                                reference_scan(&pts, (start, end), q, &mut want, bound);
                            let mut got = row;
                            let mut best = BestK {
                                keys: &mut got,
                                bound,
                            };
                            tier_override::with_tier(tier, || {
                                scan_ids(Tier::detect(), &soa, &ids, start, end, q, &mut best);
                            });
                            let got_bound = best.bound;
                            let at = format!("{tier:?} query {qi} k {k} range {ri} entry {entry}");
                            assert_eq!(got, want, "{at}");
                            assert_eq!(got_bound.to_bits(), want_bound.to_bits(), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// One tier's box pre-filter (the dispatch the leaf-pair kernels do by
    /// being stamped out per tier).
    fn box_mask(
        tier: Tier,
        xs: &[f32; BOX_BLOCK],
        ys: &[f32; BOX_BLOCK],
        zs: &[f32; BOX_BLOCK],
        aabb: &Aabb,
        bounds: &[f32; BOX_BLOCK],
    ) -> u32 {
        match tier.0 {
            // SAFETY: `available()` only lists tiers the host executes.
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Isa::Avx512 => unsafe { box_mask_avx512(xs, ys, zs, aabb, bounds) },
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Isa::Avx2 => unsafe { box_mask_avx2(xs, ys, zs, aabb, bounds) },
            Isa::Scalar => box_mask_scalar(xs, ys, zs, aabb, bounds),
        }
    }

    /// The 16-wide pre-filter is `Aabb::distance_squared_to(p) <= bound`,
    /// lane by lane and bit for bit, at every tier: points inside, beside
    /// and diagonal to the box, bounds straddling the exact distance, a
    /// partial block's `-inf` lanes, and an emptied leaf's inverted box.
    #[test]
    fn box_mask_matches_scalar_box_distance_lane_by_lane() {
        let mut rng = StdRng::seed_from_u64(31);
        for tier in tier_override::available() {
            for round in 0..200 {
                let aabb = Aabb::new(
                    random_points(1, 100 + round)[0],
                    random_points(1, 300 + round)[0],
                );
                let pts = random_points(BOX_BLOCK, 500 + round);
                let lane = |f: fn(&Point3) -> f32| -> [f32; BOX_BLOCK] {
                    std::array::from_fn(|j| f(&pts[j]))
                };
                let (xs, ys, zs) = (lane(|p| p.x), lane(|p| p.y), lane(|p| p.z));
                // Valid lanes: a bound at, just below or just above the exact
                // distance, or a random one; lanes past `valid`: the kernel's
                // partial-block padding.
                let valid = if round % 4 == 0 {
                    rng.random_range(1..BOX_BLOCK)
                } else {
                    BOX_BLOCK
                };
                let bounds: [f32; BOX_BLOCK] = std::array::from_fn(|j| {
                    let exact = aabb.distance_squared_to(pts[j]);
                    match (j >= valid, rng.random_range(0..4)) {
                        (true, _) => f32::NEG_INFINITY,
                        (_, 0) => exact,
                        (_, 1) => f32::from_bits(exact.to_bits().saturating_sub(1)),
                        (_, 2) => f32::from_bits(exact.to_bits() + 1),
                        _ => rng.random_range(0.0..30.0),
                    }
                });
                let mask = box_mask(tier, &xs, &ys, &zs, &aabb, &bounds);
                for j in 0..BOX_BLOCK {
                    let want = j < valid && aabb.distance_squared_to(pts[j]) <= bounds[j];
                    assert_eq!(mask >> j & 1 == 1, want, "{tier:?} round {round} lane {j}");
                }
                assert_eq!(mask >> BOX_BLOCK, 0);

                // An emptied leaf's box (inverted extremes) reads +inf from
                // everywhere: no finite bound, however large, lets a row
                // through.
                let empty = Aabb {
                    min: Point3::splat(f32::INFINITY),
                    max: Point3::splat(f32::NEG_INFINITY),
                };
                assert!(pts
                    .iter()
                    .all(|&p| empty.distance_squared_to(p) == f32::INFINITY));
                let finite = [f32::MAX; BOX_BLOCK];
                assert_eq!(
                    box_mask(tier, &xs, &ys, &zs, &empty, &finite),
                    0,
                    "{tier:?}"
                );
            }
        }
    }

    #[test]
    fn scan_handles_duplicate_ties_by_index() {
        // 20 identical points: the k best must be the lowest indices.
        let pts = vec![Point3::ONE; 20];
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        let ids: Vec<u32> = (0..20).collect();
        for tier in tier_override::available() {
            let mut keys = [0; 6];
            let mut best = BestK::new(&mut keys);
            scan_ids(tier, &soa, &ids, 0, 20, Point3::ZERO, &mut best);
            let idx: Vec<usize> = best.sorted().iter().map(|n| n.index).collect();
            assert_eq!(idx, vec![0, 1, 2, 3, 4, 5], "{tier:?}");
        }
    }

    /// The merge kernel's row contract: the closest distinct in-range
    /// indices first (ties by index), the count returned, padding behind —
    /// the same whether the widths are compile-time constants or not.
    #[test]
    fn merge_prune_row_ranks_counts_and_pads() {
        let pts = random_points(40, 17);
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..200 {
            let mut ids: Vec<u32> = (0..44).collect(); // 40.. are out of range
            ids.shuffle(&mut rng);
            let (a, b) = (
                [ids[0], ids[1], ids[2], ids[3]],
                [ids[4], ids[5], ids[0], ids[6]],
            );
            let p = random_points(1, rng.random_range(0..1000))[0];
            let mut want: Vec<(f32, u32)> = a
                .iter()
                .chain(&b[..2])
                .chain(&b[3..])
                .filter(|&&i| (i as usize) < pts.len())
                .map(|&i| (pts[i as usize].distance_squared(p), i))
                .collect();
            want.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            for k in [1usize, 4, 7, 9] {
                let mut dst = vec![0u32; k];
                let live = merge_prune_row(p, &a, &b, &pts, &mut dst);
                assert_eq!(live, want.len().min(k));
                let got: Vec<u32> = dst[..live].to_vec();
                let expected: Vec<u32> = want.iter().take(k).map(|w| w.1).collect();
                assert_eq!(got, expected, "k {k}");
                assert!(dst[live..].iter().all(|&pad| pad == u32::MAX));
            }
            let (mut fixed, mut sliced) = ([0u32; 4], [0u32; 4]);
            let live = merge_prune_row(p, &a, &b, &pts, &mut fixed);
            assert_eq!(
                live,
                merge_prune_row(p, &a[..], &b[..], &pts, &mut sliced[..])
            );
            assert_eq!(fixed, sliced);
        }
        assert_eq!(
            merge_prune_row(Point3::ZERO, &[0], &[1], &[], &mut [0; 2]),
            0
        );
    }
}
