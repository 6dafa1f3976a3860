//! Chunking of volumetric videos.
//!
//! The server segments videos into fixed-length chunks (§3) and encodes each
//! chunk at the point density requested by the client's ABR controller.

use crate::video::{wire_bytes_per_point, VideoMeta};

/// Description of one fixed-length chunk of a video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Zero-based chunk index.
    pub index: usize,
    /// Index of the first frame contained in the chunk.
    pub first_frame: usize,
    /// Number of frames in this chunk (the last chunk may be shorter).
    pub frame_count: usize,
    /// Playback duration of the chunk in seconds.
    pub duration_s: f64,
    /// Full-density point count per frame.
    pub points_per_frame: usize,
}

impl Chunk {
    /// Total full-density points across all frames of this chunk.
    pub fn full_points(&self) -> u64 {
        self.frame_count as u64 * self.points_per_frame as u64
    }

    /// Bytes required to transmit this chunk at the given density ratio
    /// (`0 < ratio <= 1`), using the compressed wire format
    /// ([`wire_bytes_per_point`] bytes per transmitted point).
    pub fn encoded_bytes(&self, density_ratio: f64) -> u64 {
        let ratio = density_ratio.clamp(0.0, 1.0);
        (self.full_points() as f64 * ratio * wire_bytes_per_point()).round() as u64
    }
}

/// Splits a video into fixed-length chunks of `chunk_duration_s` seconds.
///
/// The final chunk is truncated to the remaining frames. An empty vector is
/// returned for zero-length videos or non-positive durations.
pub fn chunk_video(meta: &VideoMeta, chunk_duration_s: f64) -> Vec<Chunk> {
    if meta.frame_count == 0 || chunk_duration_s <= 0.0 || meta.fps <= 0.0 {
        return Vec::new();
    }
    let frames_per_chunk = ((meta.fps * chunk_duration_s).round() as usize).max(1);
    let mut chunks = Vec::new();
    let mut first = 0usize;
    let mut index = 0usize;
    while first < meta.frame_count {
        let count = frames_per_chunk.min(meta.frame_count - first);
        chunks.push(Chunk {
            index,
            first_frame: first,
            frame_count: count,
            duration_s: count as f64 / meta.fps,
            points_per_frame: meta.points_per_frame,
        });
        first += count;
        index += 1;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_all_frames_without_overlap() {
        let meta = VideoMeta::long_dress();
        let chunks = chunk_video(&meta, 1.0);
        assert_eq!(chunks.len(), 100);
        let total: usize = chunks.iter().map(|c| c.frame_count).sum();
        assert_eq!(total, meta.frame_count);
        for w in chunks.windows(2) {
            assert_eq!(w[0].first_frame + w[0].frame_count, w[1].first_frame);
        }
    }

    #[test]
    fn last_chunk_is_truncated() {
        let meta = VideoMeta::tiny(95, 1000);
        let chunks = chunk_video(&meta, 1.0);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3].frame_count, 5);
        assert!((chunks[3].duration_s - 5.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_yield_no_chunks() {
        assert!(chunk_video(&VideoMeta::tiny(0, 100), 1.0).is_empty());
        assert!(chunk_video(&VideoMeta::long_dress(), 0.0).is_empty());
    }

    #[test]
    fn encoded_bytes_scale_with_density() {
        let meta = VideoMeta::long_dress();
        let chunk = chunk_video(&meta, 1.0)[0];
        let full = chunk.encoded_bytes(1.0);
        let half = chunk.encoded_bytes(0.5);
        assert_eq!(
            full,
            (30.0 * 100_000.0 * wire_bytes_per_point()).round() as u64
        );
        assert!((half as f64 / full as f64 - 0.5).abs() < 1e-6);
        // Density is clamped.
        assert_eq!(chunk.encoded_bytes(2.0), full);
        assert_eq!(chunk.encoded_bytes(-1.0), 0);
    }

    #[test]
    fn bitrate_matches_compressed_estimate() {
        let meta = VideoMeta::long_dress();
        let chunk = chunk_video(&meta, 1.0)[0];
        let mbps = chunk.encoded_bytes(1.0) as f64 * 8.0 / 1e6 / chunk.duration_s;
        assert!((mbps - meta.compressed_bitrate_mbps()).abs() < 1.0);
        assert!(meta.raw_bitrate_mbps() > mbps);
    }
}
