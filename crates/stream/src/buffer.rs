//! Playback buffer model.
//!
//! The client downloads chunks ahead of playback into a buffer measured in
//! seconds of content. Downloading adds content; wall-clock time drains it;
//! an empty buffer during playback is a stall (rebuffering), the `S(r)` term
//! of the QoE objective.

/// A playback buffer measured in seconds of content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaybackBuffer {
    level_s: f64,
    capacity_s: f64,
    total_stall_s: f64,
    started: bool,
    startup_threshold_s: f64,
}

impl PlaybackBuffer {
    /// Creates an empty buffer with the given capacity and startup threshold
    /// (playback begins once the buffer first reaches the threshold).
    pub fn new(capacity_s: f64, startup_threshold_s: f64) -> Self {
        Self {
            level_s: 0.0,
            capacity_s: capacity_s.max(0.1),
            total_stall_s: 0.0,
            started: false,
            startup_threshold_s: startup_threshold_s.clamp(0.0, capacity_s.max(0.1)),
        }
    }

    /// Current buffer level in seconds of content.
    pub fn level_s(&self) -> f64 {
        self.level_s
    }

    /// Accumulated stall (rebuffering) time, excluding initial startup delay.
    pub fn total_stall_s(&self) -> f64 {
        self.total_stall_s
    }

    /// Adds `content_s` seconds of downloaded content (clamped to capacity).
    pub fn add_content(&mut self, content_s: f64) {
        self.level_s = (self.level_s + content_s.max(0.0)).min(self.capacity_s);
        if !self.started && self.level_s >= self.startup_threshold_s {
            self.started = true;
        }
    }

    /// Advances wall-clock time by `dt_s` seconds while (potentially)
    /// playing back content. Returns the stall time incurred during this
    /// interval (0 when the buffer stayed non-empty or playback has not
    /// started yet).
    pub fn advance(&mut self, dt_s: f64) -> f64 {
        let dt = dt_s.max(0.0);
        if !self.started {
            // Startup delay is tracked separately by the simulator; content
            // does not drain before playback starts.
            return 0.0;
        }
        if self.level_s >= dt {
            self.level_s -= dt;
            0.0
        } else {
            let stall = dt - self.level_s;
            self.level_s = 0.0;
            self.total_stall_s += stall;
            stall
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_drains() {
        let mut b = PlaybackBuffer::new(10.0, 1.0);
        b.add_content(2.0);
        assert_eq!(b.level_s(), 2.0);
        let stall = b.advance(1.5);
        assert_eq!(stall, 0.0);
        assert!((b.level_s() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stall_is_accumulated() {
        let mut b = PlaybackBuffer::new(10.0, 0.5);
        b.add_content(1.0);
        let stall = b.advance(3.0);
        assert!((stall - 2.0).abs() < 1e-12);
        assert!((b.total_stall_s() - 2.0).abs() < 1e-12);
        assert_eq!(b.level_s(), 0.0);
    }

    #[test]
    fn no_drain_before_playback_starts() {
        let mut b = PlaybackBuffer::new(10.0, 5.0);
        b.add_content(1.0);
        assert_eq!(b.advance(2.0), 0.0);
        assert_eq!(b.level_s(), 1.0);
        assert_eq!(b.total_stall_s(), 0.0);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut b = PlaybackBuffer::new(4.0, 1.0);
        b.add_content(10.0);
        assert_eq!(b.level_s(), 4.0);
        b.advance(1.0);
        b.add_content(10.0);
        assert_eq!(b.level_s(), 4.0);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let mut b = PlaybackBuffer::new(5.0, 0.0);
        b.add_content(-3.0);
        assert_eq!(b.level_s(), 0.0);
        assert_eq!(b.advance(-1.0), 0.0);
    }
}
