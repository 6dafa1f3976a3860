//! Deterministic fault injection for the simulated delta-stream link.
//!
//! The streaming layer's fast path assumes every delta frame arrives
//! intact, in order and on time; this module supplies the adversary that
//! assumption must survive. [`OwnedFaultyLink`] wraps a [`SimulatedLink`]
//! and applies seeded, reproducible transport faults to opaque payloads:
//! drops, duplicates, reorders, truncations and single-bit corruptions,
//! plus bursty loss from a two-state Gilbert–Elliott chain — the shape
//! real cellular links produce.
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

/// Two-state Gilbert–Elliott burst-loss chain: a `good` state with rare
/// loss and a `bad` state with heavy loss, with geometric dwell times in
/// each. This is the standard model for the bursty (not independent)
/// losses cellular links produce.
#[derive(Debug, Clone, PartialEq)]
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
}

/// Per-kind fault rates (independent per message, in `[0, 1]`), plus an
/// optional burst-loss chain whose losses add to the independent `drop`
/// rate.
#[derive(Debug, Clone, Default, PartialEq)]
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
/// an [`OwnedFaultyLink`] or a test double. The resilient session's
/// recovery ladder is written against this trait.
pub trait Transport {
    /// Sends one payload at absolute time `start_s` and returns what the
    /// receiver sees (arrival copies plus the link time consumed).
    fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer;
}

/// A [`SimulatedLink`] over a shared [`NetworkTrace`] that injects seeded,
/// deterministic transport faults into opaque payloads (see the module
/// docs). Holds its trace behind an [`Arc`] (traces are shared across
/// tenants) and constructs the clean link per transmit, so a server tenant
/// can own one across calls. Every fault decision comes from one
/// [`StdRng`]; the rest of the state is the current Gilbert–Elliott burst
/// state, the reorder hold slot and the injection counters.
#[derive(Debug, Clone)]
pub struct OwnedFaultyLink {
    trace: Arc<NetworkTrace>,
    config: FaultConfig,
    rng: StdRng,
    /// Current Gilbert–Elliott state (`true` = bad).
    burst_bad: bool,
    /// Payload held back by a reorder fault, delivered after the next one.
    held: Option<Vec<u8>>,
    counters: FaultCounters,
}

impl OwnedFaultyLink {
    /// Builds a faulty link over `trace` with the given fault profile; all
    /// fault decisions are drawn from a [`StdRng`] seeded with `seed`.
    pub fn new(trace: Arc<NetworkTrace>, config: FaultConfig, seed: u64) -> Self {
        Self {
            trace,
            config,
            rng: StdRng::seed_from_u64(seed),
            burst_bad: false,
            held: None,
            counters: FaultCounters::default(),
        }
    }

    /// Injection counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Sends one payload at absolute time `start_s` and returns what the
    /// receiver sees. Deterministic given the construction seed and the
    /// call sequence.
    pub fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        let time_s = SimulatedLink::new(&self.trace).download_time(payload.len() as u64, start_s);
        self.inject(payload, time_s)
    }

    /// Applies the fault schedule to one payload whose clean transfer took
    /// `time_s` seconds.
    fn inject(&mut self, payload: &[u8], time_s: f64) -> Transfer {
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

impl Transport for OwnedFaultyLink {
    fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        OwnedFaultyLink::transmit(self, payload, start_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_link(mbps: f64, seconds: f64, config: FaultConfig, seed: u64) -> OwnedFaultyLink {
        OwnedFaultyLink::new(Arc::new(NetworkTrace::stable(mbps, seconds)), config, seed)
    }

    #[test]
    fn lossless_config_is_transparent() {
        let mut link = stable_link(50.0, 60.0, FaultConfig::lossless(), 1);
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
        let cfg = FaultConfig::chaos(0.2);
        let payload: Vec<u8> = (0..64).collect();
        let run = |seed: u64| {
            let mut link = stable_link(50.0, 60.0, cfg.clone(), seed);
            (0..200)
                .map(|i| link.transmit(&payload, i as f64 * 0.05).arrivals)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ at 20% chaos");
    }

    #[test]
    fn fault_rates_are_roughly_honored() {
        let cfg = FaultConfig {
            drop: 0.1,
            duplicate: 0.1,
            reorder: 0.05,
            truncate: 0.05,
            corrupt: 0.05,
            burst: None,
        };
        let mut link = stable_link(50.0, 600.0, cfg, 99);
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
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::default()
        };
        let mut link = stable_link(50.0, 60.0, cfg, 3);
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
    fn bursty_chain_hits_its_mean_loss() {
        let ge = GilbertElliott::bursty(0.02, 4.0);
        let cfg = FaultConfig {
            burst: Some(ge),
            ..FaultConfig::default()
        };
        let mut link = stable_link(50.0, 600.0, cfg, 11);
        let payload = vec![0u8; 16];
        let n = 20_000;
        for i in 0..n {
            link.transmit(&payload, i as f64 * 0.01);
        }
        let observed = link.counters().dropped as f64 / n as f64;
        assert!((observed - 0.02).abs() < 0.01, "observed loss {observed}");
    }
}
