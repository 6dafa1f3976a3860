//! Dense (flat-array) LUT storage.

use super::f16::{f16_bits_to_f32, f32_to_f16_bits};
use super::{Lut, Offset};
use crate::error::Error;
use crate::Result;

/// Dense LUT: a flat array of `key_space` entries, three `float16` offsets
/// each, plus an occupancy bitmap.
///
/// This is the storage layout whose footprint Table 1 analyzes. Because a
/// `b = 128`, `n = 4` table needs 1.5 GiB, a table is only allowed up to a
/// byte budget; larger configurations need fewer bins.
///
/// # Example
///
/// ```
/// use volut_core::lut::{dense::DenseLut, Lut};
/// let mut lut = DenseLut::new(1 << 12).unwrap();
/// lut.set(42, [0.1, -0.2, 0.05]).unwrap();
/// let got = lut.get(42).unwrap();
/// assert!((got[0] - 0.1).abs() < 1e-3);
/// assert!(lut.get(43).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct DenseLut {
    /// `float16` bit patterns, one `[x, y, z]` per entry.
    offsets: Vec<[u16; 3]>,
    /// One bit per entry marking populated slots.
    occupancy: Vec<u64>,
    key_space: u128,
    populated: usize,
}

impl DenseLut {
    /// Default maximum allowed allocation: 256 MiB of offset storage.
    pub const DEFAULT_BYTE_BUDGET: u128 = 256 * 1024 * 1024;

    /// Creates an empty dense LUT covering `key_space` keys, enforcing the
    /// default byte budget.
    ///
    /// # Errors
    /// Returns [`Error::LutFormat`] when the table would exceed the budget.
    pub fn new(key_space: u128) -> Result<Self> {
        Self::with_budget(key_space, Self::DEFAULT_BYTE_BUDGET)
    }

    /// Creates an empty dense LUT with an explicit byte budget for the
    /// offset storage.
    ///
    /// # Errors
    /// Returns [`Error::LutFormat`] when `key_space` is zero or the required
    /// storage exceeds `byte_budget`.
    pub fn with_budget(key_space: u128, byte_budget: u128) -> Result<Self> {
        if key_space == 0 {
            return Err(Error::LutFormat(
                "dense lut key space must be non-zero".into(),
            ));
        }
        let bytes = key_space.saturating_mul(6);
        if bytes > byte_budget {
            return Err(Error::LutFormat(format!(
                "dense lut of {key_space} entries needs {bytes} bytes, exceeding the budget of {byte_budget}; use fewer bins"
            )));
        }
        let n = key_space as usize;
        Ok(Self {
            offsets: vec![[0u16; 3]; n],
            occupancy: vec![0u64; n.div_ceil(64)],
            key_space,
            populated: 0,
        })
    }

    /// The number of addressable keys.
    pub fn key_space(&self) -> u128 {
        self.key_space
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        (self.occupancy[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Iterates over `(key, offset)` pairs of populated entries.
    pub fn iter(&self) -> impl Iterator<Item = (u128, Offset)> + '_ {
        (0..self.key_space as usize).filter_map(move |i| {
            if self.is_occupied(i) {
                Some((i as u128, self.read(i)))
            } else {
                None
            }
        })
    }

    #[inline]
    fn read(&self, idx: usize) -> Offset {
        let [x, y, z] = self.offsets[idx];
        [f16_bits_to_f32(x), f16_bits_to_f32(y), f16_bits_to_f32(z)]
    }
}

/// The error of a `set` outside the key space, kept out of line so that
/// `set` stays small enough to inline.
#[cold]
#[inline(never)]
fn key_outside(key: u128, key_space: u128) -> Error {
    Error::LutFormat(format!("key {key} outside dense lut key space {key_space}"))
}

// `get` and `set` are `#[inline]` so that a per-entry fill or probe loop in
// another crate (the e2e ledger's content build fills 2²⁰ entries) inlines
// the f16 codec instead of calling it three times per entry.
impl Lut for DenseLut {
    #[inline]
    fn get(&self, key: u128) -> Option<Offset> {
        if key >= self.key_space {
            return None;
        }
        let idx = key as usize;
        if !self.is_occupied(idx) {
            return None;
        }
        Some(self.read(idx))
    }

    #[inline]
    fn set(&mut self, key: u128, offset: Offset) -> Result<()> {
        if key >= self.key_space {
            return Err(key_outside(key, self.key_space));
        }
        let idx = key as usize;
        // Three explicit calls: `array::map` does not inline here.
        let [x, y, z] = offset;
        self.offsets[idx] = [f32_to_f16_bits(x), f32_to_f16_bits(y), f32_to_f16_bits(z)];
        let (word, bit) = (&mut self.occupancy[idx / 64], 1u64 << (idx % 64));
        self.populated += usize::from(*word & bit == 0);
        *word |= bit;
        Ok(())
    }

    fn populated(&self) -> usize {
        self.populated
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.len() * 6 + self.occupancy.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_with_f16_precision() {
        let mut lut = DenseLut::new(100).unwrap();
        lut.set(7, [0.25, -0.5, 1.0]).unwrap();
        assert_eq!(lut.get(7), Some([0.25, -0.5, 1.0]));
        assert_eq!(lut.populated(), 1);
        // Overwrite does not increase the population count.
        lut.set(7, [0.1, 0.1, 0.1]).unwrap();
        assert_eq!(lut.populated(), 1);
    }

    #[test]
    fn misses_return_none() {
        let lut = DenseLut::new(16).unwrap();
        assert!(lut.get(3).is_none());
        assert!(lut.get(999).is_none());
    }

    #[test]
    fn out_of_range_set_is_rejected() {
        let mut lut = DenseLut::new(8).unwrap();
        assert!(lut.set(8, [0.0; 3]).is_err());
    }

    #[test]
    fn budget_is_enforced() {
        // 128^4 entries * 6 bytes ≈ 1.6 GB exceeds the default budget.
        assert!(DenseLut::new(128u128.pow(4)).is_err());
        assert!(DenseLut::with_budget(1 << 20, 10 * 1024 * 1024).is_ok());
        assert!(DenseLut::new(0).is_err());
    }

    #[test]
    fn memory_accounting_matches_layout() {
        let lut = DenseLut::new(1024).unwrap();
        assert_eq!(lut.memory_bytes(), 1024 * 6 + (1024 / 64) * 8);
    }

    #[test]
    fn get_batch_matches_get() {
        let mut lut = DenseLut::new(1 << 12).unwrap();
        for key in (0..1u128 << 12).step_by(3) {
            lut.set(key, [0.125, -0.25, 0.5]).unwrap();
        }
        // Mix of populated, unpopulated and out-of-range keys.
        let keys: Vec<u128> = (0..500u128).map(|i| i * 11).collect();
        let mut batch = vec![None; keys.len()];
        lut.get_batch(&keys, &mut batch);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(batch[i], lut.get(key), "key {key}");
        }
    }

    #[test]
    fn iteration_yields_only_populated() {
        let mut lut = DenseLut::new(64).unwrap();
        lut.set(1, [1.0, 0.0, 0.0]).unwrap();
        lut.set(63, [0.0, 1.0, 0.0]).unwrap();
        let entries: Vec<(u128, Offset)> = lut.iter().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 1);
        assert_eq!(entries[1].0, 63);
    }
}
