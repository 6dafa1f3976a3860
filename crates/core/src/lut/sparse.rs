//! Sparse (hashed) LUT storage for the full per-coordinate key scheme.
//!
//! Backed by a flat open-addressing table (linear probing, power-of-two
//! capacity) instead of `std::collections::HashMap`: the refinement stage
//! performs one lookup per generated point (~100K per frame) over a table
//! that is far larger than L2, so lookup cost is DRAM latency, not hashing.

use super::f16::{f16_bits_to_f32, f32_to_f16_bits};
use super::{Lut, Offset};
use crate::Result;

/// One open-addressing slot: packed key, `float16` offsets, occupancy.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u128,
    packed: [u16; 3],
    occupied: bool,
}

const EMPTY: Entry = Entry {
    key: 0,
    packed: [0; 3],
    occupied: false,
};

/// Multiply-fold hash for the packed `u128` LUT keys.
///
/// SipHash-strength hashing is unnecessary here — keys are well-mixed
/// quantized coordinates produced by trusted local encoding — and costs
/// more than the probe it guards.
#[inline]
fn hash_key(key: u128) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    let mut h = lo.wrapping_mul(M) ^ hi.wrapping_mul(M.rotate_left(32));
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Sparse LUT backed by a flat open-addressing table from packed keys to
/// `float16` offsets.
///
/// Only the neighborhood configurations actually observed during
/// distillation are stored, which is what makes the `b^(3n)` key space of
/// the full encoding practical: real point-cloud surfaces occupy a tiny
/// fraction of it.
///
/// # Example
///
/// ```
/// use volut_core::lut::{sparse::SparseLut, Lut};
/// let mut lut = SparseLut::new();
/// lut.set(u128::MAX - 1, [0.5, 0.0, -0.5]).unwrap();
/// assert!(lut.get(u128::MAX - 1).is_some());
/// assert_eq!(lut.populated(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLut {
    entries: Vec<Entry>,
    mask: usize,
    len: usize,
}

impl Default for SparseLut {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseLut {
    /// Creates an empty sparse LUT.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates an empty sparse LUT with capacity for at least `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        let capacity = (n * 8 / 7 + 1).next_power_of_two().max(16);
        Self {
            entries: vec![EMPTY; capacity],
            mask: capacity - 1,
            len: 0,
        }
    }

    #[inline]
    fn slot_of(&self, key: u128) -> usize {
        hash_key(key) as usize & self.mask
    }

    /// Index of `key`'s slot if present, else of the empty slot to insert at.
    #[inline]
    fn probe(&self, key: u128) -> (usize, bool) {
        let mut i = self.slot_of(key);
        loop {
            let e = &self.entries[i];
            if !e.occupied {
                return (i, false);
            }
            if e.key == key {
                return (i, true);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_capacity = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![EMPTY; new_capacity]);
        self.mask = new_capacity - 1;
        for e in old {
            if e.occupied {
                let (slot, found) = self.probe(e.key);
                debug_assert!(!found);
                self.entries[slot] = e;
            }
        }
    }

    /// Iterates over `(key, offset)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, Offset)> + '_ {
        self.entries.iter().filter(|e| e.occupied).map(|e| {
            (
                e.key,
                [
                    f16_bits_to_f32(e.packed[0]),
                    f16_bits_to_f32(e.packed[1]),
                    f16_bits_to_f32(e.packed[2]),
                ],
            )
        })
    }
}

impl Lut for SparseLut {
    fn get(&self, key: u128) -> Option<Offset> {
        let (slot, found) = self.probe(key);
        if found {
            let e = &self.entries[slot];
            Some([
                f16_bits_to_f32(e.packed[0]),
                f16_bits_to_f32(e.packed[1]),
                f16_bits_to_f32(e.packed[2]),
            ])
        } else {
            None
        }
    }

    fn set(&mut self, key: u128, offset: Offset) -> Result<()> {
        // Grow at 7/8 load to keep probe chains short.
        if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
        }
        let (slot, found) = self.probe(key);
        if !found {
            self.len += 1;
        }
        self.entries[slot] = Entry {
            key,
            packed: [
                f32_to_f16_bits(offset[0]),
                f32_to_f16_bits(offset[1]),
                f32_to_f16_bits(offset[2]),
            ],
            occupied: true,
        };
        Ok(())
    }

    fn populated(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
    }

    fn backend_name(&self) -> &'static str {
        "sparse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut lut = SparseLut::new();
        lut.set(123456789, [0.25, 0.5, -0.75]).unwrap();
        assert_eq!(lut.get(123456789), Some([0.25, 0.5, -0.75]));
        assert!(lut.get(1).is_none());
        assert_eq!(lut.populated(), 1);
        assert_eq!(lut.backend_name(), "sparse");
    }

    #[test]
    fn huge_keys_are_supported() {
        let mut lut = SparseLut::with_capacity(4);
        let key = 128u128.pow(12) - 1;
        lut.set(key, [1.0, 0.0, 0.0]).unwrap();
        assert!(lut.get(key).is_some());
    }

    #[test]
    fn overwrite_does_not_grow_population() {
        let mut lut = SparseLut::new();
        lut.set(42, [0.1, 0.0, 0.0]).unwrap();
        lut.set(42, [0.2, 0.0, 0.0]).unwrap();
        assert_eq!(lut.populated(), 1);
        let got = lut.get(42).unwrap();
        assert!((got[0] - 0.2).abs() < 1e-3);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut lut = SparseLut::with_capacity(4);
        for i in 0..10_000u128 {
            lut.set(i.wrapping_mul(0x1234_5678_9ABC_DEF1), [0.5, 0.0, -0.5])
                .unwrap();
        }
        assert_eq!(lut.populated(), 10_000);
        for i in 0..10_000u128 {
            assert!(
                lut.get(i.wrapping_mul(0x1234_5678_9ABC_DEF1)).is_some(),
                "key {i}"
            );
        }
        assert!(lut.get(999_999_999_999).is_none());
    }

    #[test]
    fn memory_grows_with_population() {
        let mut lut = SparseLut::new();
        let before = lut.memory_bytes();
        for i in 0..100 {
            lut.set(i, [0.0; 3]).unwrap();
        }
        assert!(lut.memory_bytes() > before);
    }

    #[test]
    fn iteration_matches_population() {
        let mut lut = SparseLut::new();
        for i in 0..10u128 {
            lut.set(i * 1000, [i as f32 * 0.01, 0.0, 0.0]).unwrap();
        }
        assert_eq!(lut.iter().count(), 10);
    }

    #[test]
    fn get_batch_matches_get() {
        let mut lut = SparseLut::new();
        for i in 0..5_000u128 {
            lut.set(i.wrapping_mul(0xDEAD_BEEF_CAFE), [0.25, -0.25, 0.0])
                .unwrap();
        }
        // Mix of present and absent keys.
        let keys: Vec<u128> = (0..1_000u128)
            .map(|i| {
                if i % 3 == 0 {
                    i.wrapping_mul(0xDEAD_BEEF_CAFE)
                } else {
                    i * 7 + 1
                }
            })
            .collect();
        let mut batch = vec![None; keys.len()];
        lut.get_batch(&keys, &mut batch);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(batch[i], lut.get(key), "key index {i}");
        }
    }

    #[test]
    fn key_zero_roundtrips() {
        // Key 0 must not be confused with the empty-slot sentinel.
        let mut lut = SparseLut::new();
        assert!(lut.get(0).is_none());
        lut.set(0, [0.5, 0.5, 0.5]).unwrap();
        assert!(lut.get(0).is_some());
        assert_eq!(lut.populated(), 1);
    }
}
