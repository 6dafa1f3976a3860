//! Lookup-table storage and construction (§4.2).
//!
//! After the refinement network is trained offline, its behaviour is
//! *transferred* into a lookup table: for a quantized neighborhood key the
//! table stores the network's predicted 3D offset in `float16`
//! (2 bytes/offset, Eq. 7). At run time refinement is then a single table
//! lookup instead of a network inference.
//!
//! The table is a [`DenseLut`]: a flat array indexed directly by the key.
//! Over the whole key space it holds `b^n` entries, the layout whose byte
//! counts Table 1 reports. Every key starts with the centre's code, which
//! is the same constant in every key, so only `b^(n−1)` of them can be
//! probed ([`crate::encoding::PositionEncoder::reachable_keys`]). A
//! distilled, decoded or published table covers only that range: the
//! paper's `n = 4`, `b = 128` table takes 12.3 MiB instead of 1.5 GiB and
//! fits [`DenseLut::DEFAULT_BYTE_BUDGET`], and the 32-bin table the ledger
//! and harness train takes 196 KiB instead of 6 MiB.

pub(crate) mod builder;
pub mod dense;
pub mod f16;
pub mod io;
pub mod memory;

pub use dense::DenseLut;
pub use memory::{table1_rows, MemoryModel, MemoryRow};

/// A 3D refinement offset retrieved from a LUT, in the normalized
/// neighborhood coordinate frame (multiply by the neighborhood radius to get
/// a world-space displacement).
pub type Offset = [f32; 3];

/// Statistics describing how a LUT is being used at run time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Number of lookups that found a populated entry.
    pub hits: u64,
    /// Number of lookups that missed (the refiner falls back to a zero offset).
    pub misses: u64,
}

impl LookupStats {
    /// Hit rate in `[0, 1]`; returns 1.0 when no lookups were recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The table interface the refiner probes: a [`DenseLut`], or a read-only
/// [`crate::registry::SharedLut`] view of one.
pub trait Lut: Send + Sync {
    /// Returns the stored offset for `key`, or `None` when the entry has not
    /// been populated.
    fn get(&self, key: u128) -> Option<Offset>;

    /// Looks up a whole block of keys at once: `out[i]` receives the result
    /// for `keys[i]`, one [`Self::get`] per key. Every table uses this
    /// default: prefetching a block's probe targets first measured no faster
    /// end to end (`viewer_cold_8k_x8`, ten alternating pairs).
    ///
    /// # Panics
    /// Panics when `out` is shorter than `keys`.
    fn get_batch(&self, keys: &[u128], out: &mut [Option<Offset>]) {
        assert!(out.len() >= keys.len(), "output buffer too short");
        for (slot, &key) in out.iter_mut().zip(keys.iter()) {
            *slot = self.get(key);
        }
    }

    /// Stores (or overwrites) the offset for `key`.
    ///
    /// # Errors
    /// Returns [`crate::Error::LutFormat`] when the key is outside the
    /// table's key range.
    fn set(&mut self, key: u128, offset: Offset) -> crate::Result<()>;

    /// Number of populated entries.
    fn populated(&self) -> usize;

    /// Resident memory consumed by the table's storage, in bytes.
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_stats_hit_rate() {
        let s = LookupStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        let s = LookupStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
