//! Clocks and sample statistics. Nothing here touches the library: wall
//! time is `Instant`, CPU time is the process CPU clock, memory is the
//! kernel's high-water mark.

use std::sync::OnceLock;
use std::time::Instant;

/// Frame budget of a 30 FPS stream, milliseconds.
pub const FRAME_BUDGET_MS: f64 = 1000.0 / 30.0;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Pins "process start" for `setup_s`; called first thing in `main`.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// The instant [`mark_process_start`] recorded.
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec`-layout value
    // (two 64-bit fields on every 64-bit Linux target this benchmark runs
    // on) and the clock id is a constant the kernel defines; the call writes
    // only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nearest-rank percentile of weighted samples: the smallest value whose
/// cumulative weight reaches `q` of the total. A fleet tick delivers many
/// frames at one latency, so it enters as one `(latency, frames)` pair.
/// Returns 0 for an empty set.
pub fn weighted_percentile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return *value;
        }
    }
    sorted.last().map_or(0.0, |s| s.0)
}

/// [`weighted_percentile`] over unit-weight samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let weighted: Vec<(f64, u64)> = values.iter().map(|&v| (v, 1)).collect();
    weighted_percentile(&weighted, q)
}

/// Median; the mean of the two middle values for even counts (a run has
/// as few as two rounds). Returns 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// splitmix64: derives every content, churn and fault seed from `--seed`.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a fold of 64-bit words — the run digest over delivered clouds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // Order of arrival does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn weights_count_as_repeated_samples() {
        // One slow tick that delivered 90 frames outweighs ten fast frames.
        let s = [(1.0, 10), (50.0, 90)];
        assert_eq!(weighted_percentile(&s, 0.05), 1.0);
        assert_eq!(weighted_percentile(&s, 0.5), 50.0);
        // Zero-weight samples (ticks that delivered nothing) are ignored.
        assert_eq!(weighted_percentile(&[(9.0, 0), (2.0, 1)], 0.9), 2.0);
    }

    #[test]
    fn seeds_and_digests_are_deterministic_and_distinct() {
        assert_eq!(mix_seed(1, 2), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 2), mix_seed(1, 3));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 2));
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.fold(7);
        b.fold(7);
        assert_eq!(a, b);
        b.fold(0);
        assert_ne!(a, b);
    }

    #[test]
    fn process_clocks_advance() {
        let c0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > c0);
        assert!(peak_rss_mib() > 0.0);
    }
}
