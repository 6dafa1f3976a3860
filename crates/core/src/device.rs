//! Device cost models.
//!
//! The paper evaluates on three machines (a Xeon server, an i9 + RTX 3080Ti
//! desktop, and an Orange Pi 5B standing in for a Meta Quest 3). None of
//! that hardware is available to this reproduction, so per-device latency is
//! *modeled*: a [`DeviceProfile`] converts host-measured stage durations into
//! simulated durations via per-stage scale factors calibrated to the
//! relative throughput of the paper's hardware. The cross-device *ratios* —
//! which is what the figures compare — are preserved even though absolute
//! numbers depend on the host.

use std::time::Duration;

/// The pipeline stage a duration belongs to; different stages scale
/// differently across devices (e.g. a GPU accelerates the embarrassingly
/// parallel kNN/interpolation far more than it accelerates a table lookup
/// bound by memory latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Neighbor search (octree / k-d tree traversal).
    Knn,
    /// Midpoint generation and bookkeeping.
    Interpolation,
    /// Color assignment.
    Colorization,
    /// LUT lookups.
    LutLookup,
    /// Neural-network inference.
    NnInference,
    /// Generic serial CPU work (decode, protocol handling).
    SerialCpu,
}

/// A device latency/memory model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Scale factor applied to host durations for parallel geometry stages
    /// (kNN, interpolation, colorization). Values < 1 mean faster than host.
    pub parallel_scale: f64,
    /// Scale factor for LUT lookups (memory-latency bound).
    pub lookup_scale: f64,
    /// Scale factor for neural-network inference.
    pub nn_scale: f64,
    /// Scale factor for serial CPU work.
    pub serial_scale: f64,
    /// Total device memory available to the client, in GiB.
    pub memory_gib: f64,
}

impl DeviceProfile {
    /// The paper's desktop client: Intel i9-10900X + NVIDIA RTX 3080Ti.
    ///
    /// Geometry kernels and NN inference run on the GPU (large speedup over
    /// a laptop-class host CPU); LUT lookups are memory-bound and gain less.
    pub fn desktop_3080ti() -> Self {
        Self {
            name: "Desktop (i9-10900X + RTX 3080Ti)".to_string(),
            parallel_scale: 0.12,
            lookup_scale: 0.35,
            nn_scale: 0.04,
            serial_scale: 0.8,
            memory_gib: 32.0,
        }
    }

    /// The paper's mobile client: Orange Pi 5B (RK3588S), comparable to a
    /// Meta Quest 3. Everything runs on a weak CPU/NPU.
    pub fn orange_pi() -> Self {
        Self {
            name: "Orange Pi 5B (RK3588S)".to_string(),
            parallel_scale: 2.0,
            lookup_scale: 1.5,
            nn_scale: 9.0,
            serial_scale: 2.5,
            memory_gib: 8.0,
        }
    }

    /// Scale factor for a stage kind.
    pub fn scale_for(&self, stage: StageKind) -> f64 {
        match stage {
            StageKind::Knn | StageKind::Interpolation | StageKind::Colorization => {
                self.parallel_scale
            }
            StageKind::LutLookup => self.lookup_scale,
            StageKind::NnInference => self.nn_scale,
            StageKind::SerialCpu => self.serial_scale,
        }
    }

    /// Converts a host-measured duration for `stage` into this device's
    /// simulated duration.
    pub fn scale_duration(&self, stage: StageKind, host: Duration) -> Duration {
        Duration::from_secs_f64(host.as_secs_f64() * self.scale_for(stage))
    }

    /// Converts a per-frame duration into frames per second.
    pub fn fps(duration: Duration) -> f64 {
        let s = duration.as_secs_f64();
        if s <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / s
        }
    }

    /// Returns `true` when a resident set of `bytes` fits in device memory,
    /// leaving `headroom_fraction` of the memory free for the rest of the
    /// client (renderer, OS, buffers).
    pub fn fits_in_memory(&self, bytes: u128, headroom_fraction: f64) -> bool {
        let budget =
            self.memory_gib * (1.0 - headroom_fraction.clamp(0.0, 0.95)) * 1024.0 * 1024.0 * 1024.0;
        (bytes as f64) <= budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_ordering() {
        let desktop = DeviceProfile::desktop_3080ti();
        let pi = DeviceProfile::orange_pi();
        // The desktop is faster than the Orange Pi in every stage.
        for stage in [
            StageKind::Knn,
            StageKind::Interpolation,
            StageKind::LutLookup,
            StageKind::NnInference,
            StageKind::SerialCpu,
        ] {
            assert!(desktop.scale_for(stage) < pi.scale_for(stage), "{stage:?}");
        }
        // GPU NN acceleration is relatively larger than its LUT acceleration,
        // which is what makes Yuzu viable on desktop but not on mobile.
        assert!(
            desktop.scale_for(StageKind::NnInference) < desktop.scale_for(StageKind::LutLookup)
        );
    }

    #[test]
    fn scaling_math() {
        let pi = DeviceProfile::orange_pi();
        let host = Duration::from_millis(10);
        let scaled = pi.scale_duration(StageKind::Knn, host);
        assert!((scaled.as_secs_f64() - 0.010 * pi.parallel_scale).abs() < 1e-9);
    }

    #[test]
    fn fps_conversion() {
        assert!((DeviceProfile::fps(Duration::from_millis(33)) - 30.3).abs() < 0.5);
        assert!(DeviceProfile::fps(Duration::ZERO).is_infinite());
    }

    #[test]
    fn memory_fit() {
        let pi = DeviceProfile::orange_pi();
        // A 1.6 GB LUT fits in 8 GiB with 50% headroom.
        assert!(pi.fits_in_memory(1_600_000_000, 0.5));
        // A 201 GB LUT (n=5, b=128) does not.
        assert!(!pi.fits_in_memory(201_000_000_000, 0.5));
    }

    #[test]
    fn profiles_are_cloneable_and_comparable() {
        let p = DeviceProfile::desktop_3080ti();
        assert_eq!(p.clone(), p);
        assert_ne!(p, DeviceProfile::orange_pi());
    }
}
