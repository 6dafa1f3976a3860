//! The volumetric-video model the streaming simulator consumes: per-video
//! metadata ([`VideoMeta`]: frame count, FPS, points per frame) with
//! stand-ins for the paper's four test videos, and the byte model that
//! prices a frame on the wire.

/// Average bytes per point before compression (12 B position + 3 B color).
pub const BYTES_PER_POINT: f64 = 15.0;

/// Compression ratio achieved by the wire codec. The paper's systems ship
/// octree-compressed point clouds (GROOT-style codecs reach roughly 4×), so
/// the streaming simulator charges `BYTES_PER_POINT / WIRE_COMPRESSION`
/// bytes per transmitted point while the raw-bitrate figures quoted in the
/// introduction remain uncompressed.
pub const WIRE_COMPRESSION: f64 = 4.0;

/// Bytes per point actually charged to the network.
pub fn wire_bytes_per_point() -> f64 {
    BYTES_PER_POINT / WIRE_COMPRESSION
}

/// Lightweight metadata describing a volumetric video.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoMeta {
    /// Human-readable name.
    pub name: String,
    /// Total number of frames.
    pub frame_count: usize,
    /// Playback rate in frames per second.
    pub fps: f64,
    /// Full-density point count per frame.
    pub points_per_frame: usize,
}

impl VideoMeta {
    /// Stand-in for the "Long Dress" video: 300 frames / 10 s, ~100K points,
    /// looped ten times during evaluation like in the paper.
    pub fn long_dress() -> Self {
        Self {
            name: "long-dress".into(),
            frame_count: 3000,
            fps: 30.0,
            points_per_frame: 100_000,
        }
    }

    /// Stand-in for the "Loot" video (300 frames looped ten times).
    pub fn loot() -> Self {
        Self {
            name: "loot".into(),
            frame_count: 3000,
            fps: 30.0,
            points_per_frame: 100_000,
        }
    }

    /// Stand-in for the "Haggle" video: 7 800 frames (4.3 minutes).
    pub fn haggle() -> Self {
        Self {
            name: "haggle".into(),
            frame_count: 7800,
            fps: 30.0,
            points_per_frame: 100_000,
        }
    }

    /// Stand-in for the "Lab" video: 3 622 frames (2 minutes).
    pub fn lab() -> Self {
        Self {
            name: "lab".into(),
            frame_count: 3622,
            fps: 30.0,
            points_per_frame: 100_000,
        }
    }

    /// The four evaluation videos of §7.1.
    pub fn evaluation_set() -> Vec<VideoMeta> {
        vec![
            Self::long_dress(),
            Self::loot(),
            Self::haggle(),
            Self::lab(),
        ]
    }

    /// A scaled-down video for fast tests.
    pub fn tiny(frames: usize, points_per_frame: usize) -> Self {
        Self {
            name: "tiny".into(),
            frame_count: frames,
            fps: 30.0,
            points_per_frame,
        }
    }

    /// Video duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.frame_count as f64 / self.fps
    }

    /// Bytes of one full-density frame.
    pub fn frame_bytes(&self) -> f64 {
        self.points_per_frame as f64 * BYTES_PER_POINT
    }

    /// Raw (uncompressed, full-density) bitrate in megabits per second —
    /// ~360 Mbps for 100K points at 30 FPS, matching the paper's motivation
    /// numbers for high-density content.
    pub fn raw_bitrate_mbps(&self) -> f64 {
        self.frame_bytes() * self.fps * 8.0 / 1e6
    }

    /// Full-density bitrate after wire compression — what the network
    /// actually has to carry.
    pub fn compressed_bitrate_mbps(&self) -> f64 {
        self.raw_bitrate_mbps() / WIRE_COMPRESSION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_videos_match_paper_description() {
        let dress = VideoMeta::long_dress();
        assert_eq!(dress.frame_count, 3000);
        assert!((dress.duration_s() - 100.0).abs() < 1e-9);
        let haggle = VideoMeta::haggle();
        assert!((haggle.duration_s() - 260.0).abs() < 1.0);
        let lab = VideoMeta::lab();
        assert!((lab.duration_s() - 120.7).abs() < 1.0);
        assert_eq!(VideoMeta::evaluation_set().len(), 4);
    }

    #[test]
    fn raw_bitrate_is_in_expected_range() {
        // ~100K points * 15 B * 30 fps * 8 = 360 Mbps, the right order of
        // magnitude versus the paper's 720 Mbps for 200K points.
        let v = VideoMeta::long_dress();
        let mbps = v.raw_bitrate_mbps();
        assert!(mbps > 300.0 && mbps < 400.0, "got {mbps}");
    }
}
