//! Deterministic fault injection for the simulated delta-stream link.
//!
//! The streaming layer's fast path assumes every delta frame arrives
//! intact, in order and on time; this module supplies the adversary that
//! assumption must survive. [`FaultyLink`] wraps a [`SimulatedLink`] and
//! applies seeded, reproducible transport faults to opaque payloads:
//! drops, duplicates, reorders, truncations and single-bit corruptions,
//! plus bursty loss from a two-state Gilbert–Elliott chain whose
//! transition statistics can be fitted to a bandwidth trace
//! ([`GilbertElliott::from_trace`]) so loss bursts line up with the
//! trace's own bad seconds — the shape real cellular links produce.
//!
//! Determinism is the point: every fault decision comes from one
//! [`StdRng`] seeded at construction, so a failing chaos schedule is
//! replayable bit-for-bit from its seed. The injector mutates *payload
//! bytes only* — it never parses them — which keeps it honest as a
//! transport adversary: whatever integrity the session protocol claims
//! (sequence numbers, checksums, digests in
//! [`crate::resilience`]) must be earned end-to-end.

use std::sync::Arc;

use crate::link::SimulatedLink;
use crate::trace::NetworkTrace;
use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};

/// The kinds of transport faults the injector can apply to one payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The payload never arrives (the receiver sees a timeout).
    Drop,
    /// The payload arrives twice.
    Duplicate,
    /// The payload is held back and delivered after the next one.
    Reorder,
    /// The payload arrives cut short at a random byte offset.
    Truncate,
    /// The payload arrives with one random bit flipped.
    Corrupt,
}

/// Two-state Gilbert–Elliott burst-loss chain: a `good` state with rare
/// loss and a `bad` state with heavy loss, with geometric dwell times in
/// each. This is the standard model for the bursty (not independent)
/// losses cellular links produce; [`GilbertElliott::from_trace`] fits the
/// dwell statistics to a bandwidth trace so the chain's bad state tracks
/// the trace's own outage seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Per-message probability of moving good → bad.
    pub p_good_to_bad: f64,
    /// Per-message probability of moving bad → good.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A chain with the given *mean* loss rate and a mean burst length of
    /// `burst_len` consecutive messages: `loss_bad` is set to 1 inside
    /// bursts, `loss_good` to 0, and the transition probabilities are
    /// solved from the stationary distribution (`π_bad = mean_loss`).
    pub fn bursty(mean_loss: f64, burst_len: f64) -> Self {
        let mean_loss = mean_loss.clamp(0.0, 0.9);
        let p_bad_to_good = 1.0 / burst_len.max(1.0);
        // π_bad = p_g2b / (p_g2b + p_b2g) = mean_loss (loss_bad = 1).
        let p_good_to_bad = if mean_loss >= 1.0 {
            1.0
        } else {
            p_bad_to_good * mean_loss / (1.0 - mean_loss)
        };
        Self {
            p_good_to_bad: p_good_to_bad.clamp(0.0, 1.0),
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Fits the chain to a bandwidth trace: seconds below 60% of the
    /// trace's mean bandwidth are classified as bad, the good↔bad
    /// transition probabilities are estimated from the classified sample
    /// sequence, and the loss probabilities are scaled so the stationary
    /// mean loss equals `mean_loss`. A trace with no bad seconds (stable
    /// links) degrades to near-independent loss at `mean_loss`.
    pub fn from_trace(trace: &NetworkTrace, mean_loss: f64) -> Self {
        let samples = trace.samples();
        let mean = trace.mean_mbps();
        let threshold = 0.6 * mean;
        let bad: Vec<bool> = samples.iter().map(|&s| s < threshold).collect();
        let bad_count = bad.iter().filter(|&&b| b).count();
        if bad_count == 0 || bad_count == bad.len() || bad.len() < 2 {
            // Degenerate classification: independent loss.
            return Self {
                p_good_to_bad: 0.5,
                p_bad_to_good: 0.5,
                loss_good: mean_loss,
                loss_bad: mean_loss,
            };
        }
        let mut g2b = 0usize;
        let mut b2g = 0usize;
        let mut from_good = 0usize;
        let mut from_bad = 0usize;
        for w in bad.windows(2) {
            if w[0] {
                from_bad += 1;
                if !w[1] {
                    b2g += 1;
                }
            } else {
                from_good += 1;
                if w[1] {
                    g2b += 1;
                }
            }
        }
        let p_good_to_bad = (g2b as f64 / from_good.max(1) as f64).clamp(1e-3, 1.0);
        let p_bad_to_good = (b2g as f64 / from_bad.max(1) as f64).clamp(1e-3, 1.0);
        // Stationary bad-state occupancy of the fitted chain.
        let pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good);
        // Concentrate the loss budget in the bad state (10:1 odds), then
        // scale both so the stationary mean equals `mean_loss`.
        let raw = pi_bad * 10.0 + (1.0 - pi_bad);
        let loss_good = (mean_loss / raw).clamp(0.0, 1.0);
        let loss_bad = (loss_good * 10.0).clamp(0.0, 1.0);
        Self {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
        }
    }

    /// Stationary (long-run) loss rate of the chain.
    pub fn mean_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// Per-kind fault rates (independent per message, in `[0, 1]`), plus an
/// optional burst-loss chain whose losses add to the independent `drop`
/// rate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Independent drop probability per message.
    pub drop: f64,
    /// Duplicate probability per delivered message.
    pub duplicate: f64,
    /// Reorder probability per delivered message (held until the next one).
    pub reorder: f64,
    /// Truncation probability per delivered message.
    pub truncate: f64,
    /// Single-bit corruption probability per delivered message.
    pub corrupt: f64,
    /// Optional Gilbert–Elliott burst-loss chain.
    pub burst: Option<GilbertElliott>,
}

impl FaultConfig {
    /// No faults at all (the injector becomes a transparent wrapper).
    pub fn lossless() -> Self {
        Self::default()
    }

    /// Bursty loss at the given mean rate (mean burst length 4 messages),
    /// no other fault kinds — the "2% burst loss" shape of the evaluation.
    pub fn bursty_loss(mean_loss: f64) -> Self {
        Self {
            burst: Some(GilbertElliott::bursty(mean_loss, 4.0)),
            ..Self::default()
        }
    }

    /// Every fault kind at the same independent rate plus bursty loss at
    /// that rate — the chaos-suite adversary.
    pub fn chaos(rate: f64) -> Self {
        Self {
            drop: rate,
            duplicate: rate,
            reorder: rate,
            truncate: rate,
            corrupt: rate,
            burst: Some(GilbertElliott::bursty(rate, 3.0)),
        }
    }
}

/// Injection counters: how many faults of each kind the link actually
/// applied (ground truth for the recovery telemetry on the session side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages submitted to the link.
    pub sent: u64,
    /// Copies that arrived at the receiver (duplicates count twice).
    pub delivered: u64,
    /// Messages lost (independent drops plus burst losses).
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages delivered out of order.
    pub reordered: u64,
    /// Messages delivered truncated.
    pub truncated: u64,
    /// Messages delivered with a flipped bit.
    pub corrupted: u64,
}

/// One transfer through the faulty link: how long the exchange occupied
/// the link and which payload copies actually arrived, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Link time consumed (seconds), including the RTT; charged even for
    /// dropped messages (the bytes still crossed the bottleneck before
    /// being lost).
    pub time_s: f64,
    /// Payload copies that reached the receiver, in arrival order. Empty
    /// for a drop (or while a reordered message is held back).
    pub arrivals: Vec<Vec<u8>>,
}

/// Anything that can carry one protocol payload from sender to receiver:
/// the borrowing [`FaultyLink`], the owning [`OwnedFaultyLink`] a server
/// tenant embeds, or a test double. The resilient session's recovery ladder
/// is written against this trait so the same ladder runs over either link
/// shape.
pub trait Transport {
    /// Sends one payload at absolute time `start_s` and returns what the
    /// receiver sees (arrival copies plus the link time consumed).
    fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer;
}

/// The seeded fault-decision state, decoupled from any particular link so
/// it can be owned by value (see [`OwnedFaultyLink`]): one [`StdRng`], the
/// current Gilbert–Elliott burst state, the reorder hold slot, and the
/// injection counters. [`FaultInjector::apply`] mangles one payload given
/// the link time the clean link already charged.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: StdRng,
    /// Current Gilbert–Elliott state (`true` = bad).
    burst_bad: bool,
    /// Payload held back by a reorder fault, delivered after the next one.
    held: Option<Vec<u8>>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Creates an injector with the given fault profile; all fault
    /// decisions are drawn from a [`StdRng`] seeded with `seed`.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            burst_bad: false,
            held: None,
            counters: FaultCounters::default(),
        }
    }

    /// The fault profile this injector applies.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injection counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Applies the fault schedule to one payload whose clean transfer took
    /// `time_s` seconds, returning what the receiver sees. Deterministic
    /// given the construction seed and the call sequence.
    pub fn apply(&mut self, payload: &[u8], time_s: f64) -> Transfer {
        self.counters.sent += 1;

        // Burst chain advances once per message, before the loss draw.
        let burst_loss = match &self.config.burst {
            Some(ge) => {
                let flip: f64 = self.rng.random();
                let threshold = if self.burst_bad {
                    ge.p_bad_to_good
                } else {
                    ge.p_good_to_bad
                };
                if flip < threshold {
                    self.burst_bad = !self.burst_bad;
                }
                if self.burst_bad {
                    ge.loss_bad
                } else {
                    ge.loss_good
                }
            }
            None => 0.0,
        };
        let drop_draw: f64 = self.rng.random();
        let kind_draw: f64 = self.rng.random();
        if drop_draw < burst_loss || kind_draw < self.config.drop {
            self.counters.dropped += 1;
            return self.flushed(Vec::new(), time_s);
        }

        let mut bytes = payload.to_vec();
        let mangle: f64 = self.rng.random();
        if mangle < self.config.truncate && !bytes.is_empty() {
            let keep = self.rng.random_range(0..bytes.len());
            bytes.truncate(keep);
            self.counters.truncated += 1;
        } else if mangle < self.config.truncate + self.config.corrupt && !bytes.is_empty() {
            let bit = self.rng.random_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.counters.corrupted += 1;
        }

        let order: f64 = self.rng.random();
        if order < self.config.reorder && self.held.is_none() {
            // Hold this message back; it arrives after the next transmit.
            self.counters.reordered += 1;
            self.held = Some(bytes);
            return Transfer {
                time_s,
                arrivals: Vec::new(),
            };
        }

        let mut arrivals = vec![bytes.clone()];
        let dup: f64 = self.rng.random();
        if dup < self.config.duplicate {
            self.counters.duplicated += 1;
            arrivals.push(bytes);
        }
        self.flushed_many(arrivals, time_s)
    }

    /// Appends any held (reordered) payload after `arrivals`.
    fn flushed_many(&mut self, mut arrivals: Vec<Vec<u8>>, time_s: f64) -> Transfer {
        if let Some(held) = self.held.take() {
            arrivals.push(held);
        }
        self.counters.delivered += arrivals.len() as u64;
        Transfer { time_s, arrivals }
    }

    fn flushed(&mut self, arrivals: Vec<Vec<u8>>, time_s: f64) -> Transfer {
        self.flushed_many(arrivals, time_s)
    }
}

/// A [`SimulatedLink`] wrapper that injects seeded, deterministic
/// transport faults into opaque payloads (see the module docs). Borrows
/// its [`NetworkTrace`]; server tenants that must own their link use
/// [`OwnedFaultyLink`] instead — both share one [`FaultInjector`] so the
/// fault schedule is identical for the same seed.
#[derive(Debug, Clone)]
pub struct FaultyLink<'a> {
    link: SimulatedLink<'a>,
    injector: FaultInjector,
}

impl<'a> FaultyLink<'a> {
    /// Wraps a link with the given fault profile; all fault decisions are
    /// drawn from a [`StdRng`] seeded with `seed`.
    pub fn new(link: SimulatedLink<'a>, config: FaultConfig, seed: u64) -> Self {
        Self {
            link,
            injector: FaultInjector::new(config, seed),
        }
    }

    /// The wrapped (clean) link.
    pub fn inner(&self) -> &SimulatedLink<'a> {
        &self.link
    }

    /// Injection counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.injector.counters()
    }

    /// Sends one payload at absolute time `start_s` and returns what the
    /// receiver sees. Deterministic given the construction seed and the
    /// call sequence.
    pub fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        let time_s = self.link.download_time(payload.len() as u64, start_s);
        self.injector.apply(payload, time_s)
    }
}

impl Transport for FaultyLink<'_> {
    fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        FaultyLink::transmit(self, payload, start_s)
    }
}

/// An owning variant of [`FaultyLink`] for contexts that cannot hold a
/// borrow across calls — a server tenant embeds one per ingest session.
/// Holds its [`NetworkTrace`] behind an [`Arc`] (traces are shared across
/// tenants) and constructs the clean [`SimulatedLink`] per transmit; the
/// fault schedule comes from the same [`FaultInjector`] as the borrowing
/// link, so a given `(config, seed)` produces the identical schedule.
#[derive(Debug, Clone)]
pub struct OwnedFaultyLink {
    trace: Arc<NetworkTrace>,
    injector: FaultInjector,
}

impl OwnedFaultyLink {
    /// Builds an owning faulty link over `trace` with the given fault
    /// profile, seeded with `seed`.
    pub fn new(trace: Arc<NetworkTrace>, config: FaultConfig, seed: u64) -> Self {
        Self {
            trace,
            injector: FaultInjector::new(config, seed),
        }
    }

    /// The underlying bandwidth trace.
    pub fn trace(&self) -> &NetworkTrace {
        &self.trace
    }

    /// Injection counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.injector.counters()
    }

    /// Sends one payload at absolute time `start_s` and returns what the
    /// receiver sees. Deterministic given the construction seed and the
    /// call sequence.
    pub fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        let time_s = SimulatedLink::new(&self.trace).download_time(payload.len() as u64, start_s);
        self.injector.apply(payload, time_s)
    }
}

impl Transport for OwnedFaultyLink {
    fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        OwnedFaultyLink::transmit(self, payload, start_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_link(trace: &NetworkTrace) -> SimulatedLink<'_> {
        SimulatedLink::new(trace)
    }

    #[test]
    fn lossless_config_is_transparent() {
        let trace = NetworkTrace::stable(50.0, 60.0);
        let mut link = FaultyLink::new(stable_link(&trace), FaultConfig::lossless(), 1);
        let payload = vec![1u8, 2, 3, 4];
        for i in 0..50 {
            let t = link.transmit(&payload, i as f64 * 0.1);
            assert_eq!(t.arrivals, vec![payload.clone()]);
            assert!(t.time_s > 0.0);
        }
        let c = link.counters();
        assert_eq!(c.sent, 50);
        assert_eq!(c.delivered, 50);
        assert_eq!(
            c.dropped + c.duplicated + c.reordered + c.truncated + c.corrupted,
            0
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let trace = NetworkTrace::stable(50.0, 60.0);
        let cfg = FaultConfig::chaos(0.2);
        let payload: Vec<u8> = (0..64).collect();
        let run = |seed: u64| {
            let mut link = FaultyLink::new(stable_link(&trace), cfg.clone(), seed);
            (0..200)
                .map(|i| link.transmit(&payload, i as f64 * 0.05).arrivals)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ at 20% chaos");
    }

    #[test]
    fn fault_rates_are_roughly_honored() {
        let trace = NetworkTrace::stable(50.0, 600.0);
        let cfg = FaultConfig {
            drop: 0.1,
            duplicate: 0.1,
            reorder: 0.05,
            truncate: 0.05,
            corrupt: 0.05,
            burst: None,
        };
        let mut link = FaultyLink::new(stable_link(&trace), cfg, 99);
        let payload: Vec<u8> = (0..32).collect();
        let n = 4000;
        for i in 0..n {
            link.transmit(&payload, i as f64 * 0.01);
        }
        let c = link.counters();
        assert_eq!(c.sent, n);
        let rate = |x: u64| x as f64 / n as f64;
        assert!((rate(c.dropped) - 0.1).abs() < 0.03, "{c:?}");
        assert!((rate(c.duplicated) - 0.1 * 0.9).abs() < 0.03, "{c:?}");
        assert!(
            rate(c.truncated) > 0.01 && rate(c.corrupted) > 0.01,
            "{c:?}"
        );
        assert!(rate(c.reordered) > 0.01, "{c:?}");
    }

    #[test]
    fn reordered_payload_arrives_after_the_next_one() {
        let trace = NetworkTrace::stable(50.0, 60.0);
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::default()
        };
        let mut link = FaultyLink::new(stable_link(&trace), cfg, 3);
        let a = vec![1u8];
        let b = vec![2u8];
        let t1 = link.transmit(&a, 0.0);
        assert!(t1.arrivals.is_empty(), "first message is held");
        // The second is also selected for reorder, but the hold slot is
        // taken, so it goes straight through and flushes the held one.
        let t2 = link.transmit(&b, 0.1);
        assert_eq!(t2.arrivals, vec![b, a]);
    }

    #[test]
    fn owned_link_matches_borrowing_link_schedule() {
        let trace = Arc::new(NetworkTrace::stable(50.0, 60.0));
        let cfg = FaultConfig::chaos(0.2);
        let payload: Vec<u8> = (0..64).collect();
        let mut borrowed = FaultyLink::new(SimulatedLink::new(&trace), cfg.clone(), 7);
        let mut owned = OwnedFaultyLink::new(Arc::clone(&trace), cfg, 7);
        for i in 0..200 {
            let start = i as f64 * 0.05;
            let a = borrowed.transmit(&payload, start);
            let b = owned.transmit(&payload, start);
            assert_eq!(a, b, "schedules diverged at message {i}");
        }
        assert_eq!(borrowed.counters(), owned.counters());
    }

    #[test]
    fn bursty_chain_hits_its_mean_loss() {
        let ge = GilbertElliott::bursty(0.02, 4.0);
        assert!((ge.mean_loss() - 0.02).abs() < 1e-9);
        let trace = NetworkTrace::stable(50.0, 600.0);
        let cfg = FaultConfig {
            burst: Some(ge),
            ..FaultConfig::default()
        };
        let mut link = FaultyLink::new(stable_link(&trace), cfg, 11);
        let payload = vec![0u8; 16];
        let n = 20_000;
        for i in 0..n {
            link.transmit(&payload, i as f64 * 0.01);
        }
        let observed = link.counters().dropped as f64 / n as f64;
        assert!((observed - 0.02).abs() < 0.01, "observed loss {observed}");
    }

    #[test]
    fn trace_driven_chain_tracks_outage_seconds() {
        // A trace that alternates long good stretches with short outages.
        let mut samples = Vec::new();
        for _ in 0..20 {
            samples.extend([60.0; 8]);
            samples.extend([5.0; 2]);
        }
        let trace = NetworkTrace::from_samples("bursty", samples, 0.01).unwrap();
        let ge = GilbertElliott::from_trace(&trace, 0.05);
        // Bad dwell ≈ 2 s → p_bad_to_good ≈ 0.5; good dwell ≈ 8 s.
        assert!(ge.p_bad_to_good > 0.3 && ge.p_bad_to_good < 0.7, "{ge:?}");
        assert!(ge.p_good_to_bad < 0.3, "{ge:?}");
        assert!(ge.loss_bad > ge.loss_good, "{ge:?}");
        assert!((ge.mean_loss() - 0.05).abs() < 0.02, "{ge:?}");
        // A stable trace degrades to independent loss.
        let flat = NetworkTrace::stable(50.0, 60.0);
        let ge = GilbertElliott::from_trace(&flat, 0.05);
        assert!((ge.loss_good - ge.loss_bad).abs() < 1e-12);
    }
}
