//! The wire format: sequence-numbered, checksummed keyframe and delta
//! messages.

use volut_pointcloud::{Color, FrameDelta, Point3, PointCloud};

/// Message kind tag for a full-frame (keyframe) payload.
const KIND_KEYFRAME: u8 = 0;
/// Message kind tag for a delta payload.
const KIND_DELTA: u8 = 1;

/// Starting state of a 64-bit FNV-1a fold.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into a 64-bit FNV-1a state: the wire checksum, and the
/// server's per-session digest fold. Not cryptographic: it catches random
/// bit flips and truncations, but anyone can compute it (see
/// [`DeltaParts`]).
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point3) {
    put_u32(out, p.x.to_bits());
    put_u32(out, p.y.to_bits());
    put_u32(out, p.z.to_bits());
}

/// Cursor-style reader over a received byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn point(&mut self) -> Option<Point3> {
        Some(Point3::new(
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
        ))
    }

    fn color(&mut self) -> Option<Color> {
        Some(Color::new(self.u8()?, self.u8()?, self.u8()?))
    }
}

fn put_colors(out: &mut Vec<u8>, colors: &Option<Vec<Color>>) {
    match colors {
        Some(cs) => {
            out.push(1);
            for c in cs {
                out.extend_from_slice(&[c.r, c.g, c.b]);
            }
        }
        None => out.push(0),
    }
}

/// Reads the optional color block that follows `count` points.
fn read_colors(
    r: &mut Reader<'_>,
    count: usize,
) -> std::result::Result<Option<Vec<Color>>, DecodeError> {
    match r.u8().ok_or(DecodeError::Malformed)? {
        0 => Ok(None),
        1 => {
            let mut colors = Vec::with_capacity(count);
            for _ in 0..count {
                colors.push(r.color().ok_or(DecodeError::Malformed)?);
            }
            Ok(Some(colors))
        }
        _ => Err(DecodeError::Malformed),
    }
}

/// Builds a point cloud from reconstructed positions and optional colors
/// (lengths validated by the caller before reconstruction).
pub(super) fn build_cloud(positions: Vec<Point3>, colors: Option<Vec<Color>>) -> PointCloud {
    match colors {
        Some(c) => PointCloud::from_positions_and_colors(positions, c)
            .expect("color count validated before reconstruction"),
        None => PointCloud::from_positions(positions),
    }
}

/// Why a received payload was rejected before reaching the SR engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload is shorter than the fixed header + checksum.
    TooShort,
    /// The trailing FNV-1a checksum does not match the payload bytes
    /// (truncation or bit corruption in transit).
    BadChecksum,
    /// The payload passes the checksum but its structure is inconsistent:
    /// a bad kind tag or color flag, counts the payload cannot hold, or
    /// bytes left over after the digest.
    Malformed,
}

/// A delta as it crosses the wire: the arguments of
/// [`FrameDelta::from_parts`], unchecked. `old_len` is a claim about the
/// receiver's base, and the survivor map has `old_len` entries, so it is
/// built only by [`Self::against`], once the claim matches the base held
/// (built from the bytes, 50 of them could ask for 16 GiB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaParts {
    /// Point count of the frame the delta applies to.
    pub old_len: usize,
    /// Point count of the frame the delta produces.
    pub new_len: usize,
    /// Old-frame indices of the removed points.
    pub removed: Vec<u32>,
    /// New-frame indices of the inserted points.
    pub inserted: Vec<u32>,
}

impl DeltaParts {
    /// The parts of an existing delta.
    pub(super) fn of(delta: &FrameDelta) -> Self {
        Self {
            old_len: delta.old_len(),
            new_len: delta.new_len(),
            removed: delta.removed().to_vec(),
            inserted: delta.inserted().to_vec(),
        }
    }

    /// The delta, when it applies to a base frame of `base_len` points;
    /// `None` when the lengths disagree or the parts are inconsistent (see
    /// [`FrameDelta::from_parts`]).
    pub fn against(self, base_len: usize) -> Option<FrameDelta> {
        if self.old_len != base_len {
            return None;
        }
        FrameDelta::from_parts(self.old_len, self.new_len, self.removed, self.inserted)
    }
}

/// Body of one protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageBody {
    /// A full frame: positions plus their [`geometry_digest`].
    ///
    /// [`geometry_digest`]: volut_pointcloud::cloud::geometry_digest
    Keyframe {
        /// The frame's positions.
        positions: Vec<Point3>,
        /// Per-point colors, when the stream carries them.
        colors: Option<Vec<Color>>,
        /// Digest of `positions` (re-checked after decode).
        digest: u64,
    },
    /// A delta from the frame at `base_seq` to this message's sequence
    /// number. Survivor attributes ride the survivor map on the receiver;
    /// only the inserted points travel.
    Delta {
        /// Sequence number of the frame this delta applies to.
        base_seq: u64,
        /// The structural delta (removals and insertions).
        delta: DeltaParts,
        /// Positions of the inserted points, in `delta.inserted` order.
        inserted: Vec<Point3>,
        /// Colors of the inserted points, when the stream carries colors.
        inserted_colors: Option<Vec<Color>>,
        /// Digest of the *reconstructed* frame's positions.
        digest: u64,
    },
}

/// One sequence-numbered protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMessage {
    /// Sequence number (frame index) this message produces.
    pub seq: u64,
    /// Keyframe or delta body.
    pub body: MessageBody,
}

impl FrameMessage {
    /// Encodes the message with its trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.seq);
        match &self.body {
            MessageBody::Keyframe {
                positions,
                colors,
                digest,
            } => {
                out.push(KIND_KEYFRAME);
                put_u32(&mut out, positions.len() as u32);
                for &p in positions {
                    put_point(&mut out, p);
                }
                put_colors(&mut out, colors);
                put_u64(&mut out, *digest);
            }
            MessageBody::Delta {
                base_seq,
                delta,
                inserted,
                inserted_colors,
                digest,
            } => {
                out.push(KIND_DELTA);
                put_u64(&mut out, *base_seq);
                put_u32(&mut out, delta.old_len as u32);
                put_u32(&mut out, delta.new_len as u32);
                put_u32(&mut out, delta.removed.len() as u32);
                put_u32(&mut out, delta.inserted.len() as u32);
                for &i in delta.removed.iter().chain(&delta.inserted) {
                    put_u32(&mut out, i);
                }
                for &p in inserted {
                    put_point(&mut out, p);
                }
                put_colors(&mut out, inserted_colors);
                put_u64(&mut out, *digest);
            }
        }
        let checksum = fnv1a(FNV_OFFSET, &out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes and integrity-checks a received payload. Every allocation is
    /// bounded by the payload's length (see [`DeltaParts`]).
    ///
    /// # Errors
    /// [`DecodeError::TooShort`] / [`DecodeError::BadChecksum`] for
    /// payloads mangled in transit, [`DecodeError::Malformed`] for
    /// structurally inconsistent ones.
    pub fn decode(bytes: &[u8]) -> std::result::Result<FrameMessage, DecodeError> {
        // seq + kind + checksum is the smallest possible message.
        if bytes.len() < 8 + 1 + 8 {
            return Err(DecodeError::TooShort);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let claimed = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(FNV_OFFSET, payload) != claimed {
            return Err(DecodeError::BadChecksum);
        }
        let mut r = Reader::new(payload);
        let seq = r.u64().ok_or(DecodeError::Malformed)?;
        let kind = r.u8().ok_or(DecodeError::Malformed)?;
        let body = match kind {
            KIND_KEYFRAME => {
                let count = r.u32().ok_or(DecodeError::Malformed)? as usize;
                // Bound the allocation by what the payload can hold.
                if payload.len() < 13 + count * 12 + 9 {
                    return Err(DecodeError::Malformed);
                }
                let mut positions = Vec::with_capacity(count);
                for _ in 0..count {
                    positions.push(r.point().ok_or(DecodeError::Malformed)?);
                }
                let colors = read_colors(&mut r, count)?;
                let digest = r.u64().ok_or(DecodeError::Malformed)?;
                MessageBody::Keyframe {
                    positions,
                    colors,
                    digest,
                }
            }
            KIND_DELTA => {
                let base_seq = r.u64().ok_or(DecodeError::Malformed)?;
                let old_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let new_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let removed_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let inserted_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                if payload.len() < 33 + (removed_len + inserted_len) * 4 + inserted_len * 12 + 9 {
                    return Err(DecodeError::Malformed);
                }
                let mut removed = Vec::with_capacity(removed_len);
                for _ in 0..removed_len {
                    removed.push(r.u32().ok_or(DecodeError::Malformed)?);
                }
                let mut inserted_ids = Vec::with_capacity(inserted_len);
                for _ in 0..inserted_len {
                    inserted_ids.push(r.u32().ok_or(DecodeError::Malformed)?);
                }
                let mut inserted = Vec::with_capacity(inserted_len);
                for _ in 0..inserted_len {
                    inserted.push(r.point().ok_or(DecodeError::Malformed)?);
                }
                let inserted_colors = read_colors(&mut r, inserted_len)?;
                let digest = r.u64().ok_or(DecodeError::Malformed)?;
                MessageBody::Delta {
                    base_seq,
                    delta: DeltaParts {
                        old_len,
                        new_len,
                        removed,
                        inserted: inserted_ids,
                    },
                    inserted,
                    inserted_colors,
                    digest,
                }
            }
            _ => return Err(DecodeError::Malformed),
        };
        // One encoding per message: trailing bytes are not ignored.
        if r.pos != payload.len() {
            return Err(DecodeError::Malformed);
        }
        Ok(FrameMessage { seq, body })
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::resilience::origin::tests::frames;
    use crate::resilience::DeltaServer;
    use volut_pointcloud::cloud::geometry_digest;

    /// A checksum-valid delta message for `seq` from `base_seq` that claims
    /// an `old_len`-point base and changes nothing: 50 bytes that name an
    /// `old_len`-entry survivor map.
    pub(in crate::resilience) fn identity_delta_bytes(
        seq: u64,
        base_seq: u64,
        old_len: u32,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&seq.to_le_bytes());
        out.push(KIND_DELTA);
        out.extend_from_slice(&base_seq.to_le_bytes());
        out.extend_from_slice(&old_len.to_le_bytes());
        out.extend_from_slice(&old_len.to_le_bytes());
        out.extend_from_slice(&[0; 8]); // no removals, no insertions
        out.push(0); // no colors
        out.extend_from_slice(&0u64.to_le_bytes()); // digest
        let checksum = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn messages_roundtrip() {
        let f = frames(300, 3, 0.2, 5);
        let server = DeltaServer::new(f.clone());
        let key = server.keyframe_message(0).unwrap();
        let msg = FrameMessage::decode(&key).unwrap();
        assert_eq!(msg.seq, 0);
        assert_eq!(msg.encode(), key);
        match msg.body {
            MessageBody::Keyframe {
                positions,
                colors,
                digest,
            } => {
                assert_eq!(positions, f[0].positions());
                assert_eq!(colors.as_deref(), f[0].colors());
                assert_eq!(digest, geometry_digest(f[0].positions()));
            }
            _ => panic!("expected keyframe"),
        }
        let del = server.delta_message(0, 2).unwrap();
        let msg = FrameMessage::decode(&del).unwrap();
        assert_eq!(msg.seq, 2);
        assert_eq!(msg.encode(), del);
        match msg.body {
            MessageBody::Delta {
                base_seq,
                delta,
                inserted,
                inserted_colors,
                digest,
            } => {
                assert_eq!(base_seq, 0);
                assert!(delta.clone().against(f[0].len() + 1).is_none());
                let delta = delta.against(f[0].len()).unwrap();
                let rebuilt = delta.apply(f[0].positions(), &inserted).unwrap();
                assert_eq!(rebuilt, f[2].positions());
                let colors = delta
                    .apply(f[0].colors().unwrap(), &inserted_colors.unwrap())
                    .unwrap();
                assert_eq!(colors, f[2].colors().unwrap());
                assert_eq!(digest, geometry_digest(f[2].positions()));
            }
            _ => panic!("expected delta"),
        }
    }

    #[test]
    fn decode_rejects_mangled_payloads() {
        let f = frames(100, 2, 0.1, 9);
        let server = DeltaServer::new(f);
        let msg = server.delta_message(0, 1).unwrap();
        assert!(FrameMessage::decode(&msg).is_ok());
        // Truncation at every prefix length must never decode to Ok with
        // the original content (checksum coverage).
        for cut in [0, 5, 16, msg.len() / 2, msg.len() - 1] {
            match FrameMessage::decode(&msg[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated payload at {cut} decoded"),
            }
        }
        // Any single bit flip is caught.
        for bit in [0usize, 65, 8 * msg.len() - 1] {
            let mut bad = msg.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                FrameMessage::decode(&bad),
                Err(DecodeError::BadChecksum),
                "bit {bit}"
            );
        }
        assert_eq!(FrameMessage::decode(&[1, 2, 3]), Err(DecodeError::TooShort));
        // A byte appended before a recomputed checksum is no second
        // encoding of the same message.
        let mut padded = msg[..msg.len() - 8].to_vec();
        padded.push(0);
        let checksum = fnv1a(FNV_OFFSET, &padded);
        padded.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(FrameMessage::decode(&padded), Err(DecodeError::Malformed));
    }

    #[test]
    fn a_forged_base_length_allocates_nothing_and_fits_no_base() {
        // 50 checksum-valid bytes claiming a u32::MAX-point base: decoding
        // them once built a 16 GiB survivor map.
        let bytes = identity_delta_bytes(1, 0, u32::MAX);
        assert_eq!(bytes.len(), 50);
        let msg = FrameMessage::decode(&bytes).expect("the framing is consistent");
        let MessageBody::Delta { delta, .. } = msg.body else {
            panic!("expected delta");
        };
        assert_eq!(delta.old_len, u32::MAX as usize);
        assert!(delta.against(300).is_none());
    }
}
