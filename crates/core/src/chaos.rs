//! Deterministic fault injection for protocol stress testing.
//!
//! A [`FaultPlan`] describes a *legal* perturbation of message timing: extra
//! delivery delay and reordering of concurrently in-flight messages between
//! independent endpoint pairs. Messages are never dropped or duplicated, and
//! point-to-point FIFO order between a (source node, destination endpoint)
//! pair is preserved, so every perturbed schedule is one the real network
//! could have produced under different contention — any kernel that is
//! correct must still complete and pass verification.
//!
//! The plan is pure data (seed + bounds); the runtime state lives in
//! [`FaultInjector`], which owns a [`DetRng`] stream and the per-channel
//! FIFO clamp. Two injectors built from the same plan perturb identically,
//! so chaos runs stay bit-reproducible.

use crate::msg::Endpoint;
use dvs_engine::{Cycle, DetRng};
use dvs_noc::NodeId;
use std::collections::HashMap;

/// A deterministic, bounded perturbation of message delivery timing.
///
/// Carried inside [`SystemConfig`](crate::config::SystemConfig); `Copy` so
/// configs stay plain values. Every plan shares one perturbation envelope
/// (the associated constants); only the seed varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the injector's random stream. Different seeds explore
    /// different message interleavings.
    pub seed: u64,
}

impl FaultPlan {
    /// Upper bound (inclusive) on extra delivery delay added to a perturbed
    /// message, in cycles.
    pub(crate) const MAX_EXTRA_DELAY: Cycle = 40;
    /// Probability that any given message is perturbed, as
    /// `(numerator, denominator)`.
    pub(crate) const CHANCE: (u64, u64) = (1, 4);
    /// Upper bound (inclusive) on per-message jitter added inside the NoC
    /// link model, in cycles.
    pub(crate) const LINK_JITTER: Cycle = 6;

    /// A plan with the perturbation envelope: a quarter of messages delayed
    /// by up to 40 cycles at delivery, up to 6 cycles of link jitter.
    /// Aggressive enough to reorder most concurrently in-flight message
    /// pairs between independent endpoints.
    pub fn from_seed(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The seed to feed the NoC's link-jitter stream (decorrelated from the
    /// delivery-delay stream).
    pub fn link_seed(&self) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }
}

/// Runtime state of delivery-path fault injection: the random stream plus
/// the per-channel FIFO clamp that keeps perturbations legal.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
    /// Latest arrival cycle handed out per (source node, destination
    /// endpoint) channel. Every message on a channel is clamped to arrive
    /// no earlier than its predecessor, preserving point-to-point FIFO.
    last_arrival: HashMap<(NodeId, Endpoint), Cycle>,
    perturbed: u64,
    extra_cycles: Cycle,
}

impl FaultInjector {
    /// Builds an injector from a plan. Deterministic: same plan, same
    /// perturbations.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            rng: DetRng::new(plan.seed),
            last_arrival: HashMap::new(),
            perturbed: 0,
            extra_cycles: 0,
        }
    }

    /// Perturbs the arrival cycle of a message travelling from node `src`
    /// to endpoint `dst`, returning the adjusted arrival. Adds bounded
    /// random delay, then clamps so the channel's messages still arrive in
    /// send order (delaying is always legal; reordering within a channel is
    /// not).
    pub fn perturb(&mut self, src: NodeId, dst: Endpoint, arrive: Cycle) -> Cycle {
        let mut adjusted = arrive;
        let (num, denom) = FaultPlan::CHANCE;
        if self.rng.chance(num, denom) {
            let extra = self.rng.range(1, FaultPlan::MAX_EXTRA_DELAY + 1);
            adjusted += extra;
            self.perturbed += 1;
            self.extra_cycles += extra;
        }
        let last = self.last_arrival.entry((src, dst)).or_insert(0);
        if adjusted < *last {
            adjusted = *last;
        }
        *last = adjusted;
        adjusted
    }

    /// Number of messages whose delivery was delayed.
    pub fn perturbed(&self) -> u64 {
        self.perturbed
    }

    /// Total extra delivery cycles injected across all messages.
    pub fn extra_cycles(&self) -> Cycle {
        self.extra_cycles
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Endpoint;

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::from_seed(42);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for i in 0..200u64 {
            let src = (i % 7) as NodeId;
            let dst = Endpoint::Bank(((i * 3) % 5) as usize);
            assert_eq!(a.perturb(src, dst, i * 10), b.perturb(src, dst, i * 10));
        }
        assert_eq!(a.perturbed(), b.perturbed());
        assert_eq!(a.extra_cycles(), b.extra_cycles());
    }

    #[test]
    fn channel_fifo_is_preserved() {
        let plan = FaultPlan::from_seed(7);
        let mut inj = FaultInjector::new(plan);
        let dst = Endpoint::L1(3);
        let mut last = 0;
        // Arrivals on one channel, already monotone (as the NoC guarantees),
        // stay monotone after perturbation.
        for i in 0..500u64 {
            let arrive = inj.perturb(1, dst, i * 4);
            assert!(arrive >= last, "channel order flipped at message {i}");
            assert!(arrive >= i * 4, "perturbation may only delay");
            assert!(
                arrive <= i * 4 + FaultPlan::MAX_EXTRA_DELAY + last,
                "delay bounded"
            );
            last = arrive;
        }
        assert!(inj.perturbed() > 0, "default plan perturbs some messages");
    }

    #[test]
    fn seeds_change_the_schedule() {
        let mut a = FaultInjector::new(FaultPlan::from_seed(1));
        let mut b = FaultInjector::new(FaultPlan::from_seed(2));
        let dst = Endpoint::Mem(0);
        let diverged = (0..100u64).any(|i| a.perturb(0, dst, i * 50) != b.perturb(0, dst, i * 50));
        assert!(
            diverged,
            "different seeds should produce different schedules"
        );
    }
}
