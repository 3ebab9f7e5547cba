//! Decade-scale media-aging model: bathtub hazards, batch defects and
//! latent sector rot.
//!
//! Optical media do not fail uniformly over a 50-year horizon. "A Fresh
//! Look at the Reliability of Long-term Digital Storage" argues archival
//! durability is dominated by *latent* faults (damage that sits
//! undetected until the next read or audit) and *correlated* failures
//! (whole manufacturing batches degrading together). An [`AgingPlan`]
//! models both on top of the [`crate::plan::FaultKind`] vocabulary:
//!
//! - each disc follows a **bathtub hazard** — an infant-mortality term
//!   decaying over the first epochs plus a Weibull wear-out term that
//!   grows as the media approaches its rated life;
//! - discs belong to **manufacturing batches**; a defective batch
//!   multiplies the hazard of every disc in it, producing the
//!   correlated-failure clusters that defeat naive redundancy;
//! - a struck disc suffers either **latent rot**
//!   ([`crate::plan::FaultKind::MediaRot`] — bytes flip with no I/O
//!   error; only a digest audit can see it) or **detected corruption**
//!   ([`crate::plan::FaultKind::MediaCorruption`] — unreadable
//!   sectors), split by `rot_fraction`;
//! - an **acceleration** knob scales the whole hazard so tests can
//!   compress decades into a handful of epochs without changing the
//!   failure *shape*.
//!
//! Like [`crate::plan::FaultPlan`], a plan is pure in `(seed, spec)`:
//! the same pair always yields the identical event stream, regardless
//! of host, thread count or replay order.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use crate::plan::FaultKind;
use ros_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Shape of a media-aging campaign: population, horizon and hazard
/// parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AgingSpec {
    /// Simulated epochs the campaign spans (e.g. one epoch per year).
    pub epochs: u32,
    /// Disc population under observation.
    pub discs: u32,
    /// Manufacturing batches the population is split into (round-robin
    /// assignment); at least 1.
    pub batches: u32,
    /// Probability that a whole batch is defective.
    pub defective_batch_chance: f64,
    /// Hazard multiplier applied to every disc of a defective batch.
    pub batch_hazard_multiplier: f64,
    /// Weibull shape parameter `beta` of the wear-out term (> 1 means
    /// failures accelerate with age).
    pub weibull_shape: f64,
    /// Weibull scale parameter `eta` in epochs — the characteristic
    /// media life (the paper's §2.1 cites 50-year rated media).
    pub weibull_scale_epochs: f64,
    /// Per-epoch infant-mortality hazard at epoch zero.
    pub infant_rate: f64,
    /// e-folding time of the infant-mortality decay, in epochs.
    pub infant_decay_epochs: f64,
    /// Accelerated-aging factor scaling the whole hazard (1.0 =
    /// real-time archival aging).
    pub acceleration: f64,
    /// Fraction of strikes that are latent rot rather than detected
    /// sector corruption.
    pub rot_fraction: f64,
    /// Payload bytes flipped per latent-rot event.
    pub rot_bytes: u32,
    /// Sectors corrupted per detected-corruption event.
    pub sectors_per_event: u32,
}

impl AgingSpec {
    /// Nominal archival aging: 50-year characteristic life, mild infant
    /// mortality, 5% defective-batch chance — one epoch per year.
    pub fn archival(discs: u32, epochs: u32) -> Self {
        AgingSpec {
            epochs: epochs.max(1),
            discs,
            batches: (discs / 16).max(1),
            defective_batch_chance: 0.05,
            batch_hazard_multiplier: 20.0,
            weibull_shape: 3.0,
            weibull_scale_epochs: 50.0,
            infant_rate: 0.002,
            infant_decay_epochs: 2.0,
            acceleration: 1.0,
            rot_fraction: 0.6,
            rot_bytes: 4,
            sectors_per_event: 2,
        }
    }

    /// Accelerated aging for tests and CI smoke runs: the same bathtub
    /// shape compressed so a handful of epochs produce visible damage.
    pub fn accelerated(discs: u32, epochs: u32) -> Self {
        AgingSpec {
            acceleration: 40.0,
            ..AgingSpec::archival(discs, epochs)
        }
    }

    /// The per-epoch failure hazard of one disc at `epoch`, including
    /// the batch multiplier when `defective_batch` is set. Clamped to
    /// `[0, 1]` so it is always a valid Bernoulli probability.
    pub fn hazard(&self, epoch: u32, defective_batch: bool) -> f64 {
        let t = f64::from(epoch) + 0.5; // Mid-epoch evaluation.
        let infant = if self.infant_decay_epochs > 0.0 {
            self.infant_rate * (-t / self.infant_decay_epochs).exp()
        } else {
            0.0
        };
        let wearout = if self.weibull_scale_epochs > 0.0 && self.weibull_shape > 0.0 {
            // Weibull hazard h(t) = (beta/eta) * (t/eta)^(beta-1).
            let x = t / self.weibull_scale_epochs;
            (self.weibull_shape / self.weibull_scale_epochs) * x.powf(self.weibull_shape - 1.0)
        } else {
            0.0
        };
        let batch = if defective_batch {
            self.batch_hazard_multiplier.max(1.0)
        } else {
            1.0
        };
        // Any overflow saturates to inf and the clamp repairs it.
        (self.acceleration.max(0.0) * batch * (infant + wearout)).clamp(0.0, 1.0)
    }
}

/// One scheduled aging strike: disc `disc` suffers `kind` during
/// `epoch`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgingEvent {
    /// Epoch the strike lands in, `0..spec.epochs`.
    pub epoch: u32,
    /// Victim disc index, `0..spec.discs` (used as the selector of the
    /// emitted [`FaultKind`]).
    pub disc: u32,
    /// The media fault to inject ([`FaultKind::MediaRot`] or
    /// [`FaultKind::MediaCorruption`]).
    pub kind: FaultKind,
}

/// A deterministic decade-scale aging schedule, pure in `(seed, spec)`.
///
/// Consumption state (`cursor`) is separate from the schedule so a plan
/// can be replayed, mirroring [`crate::plan::FaultPlan`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AgingPlan {
    seed: u64,
    spec: AgingSpec,
    defective_batches: Vec<bool>,
    events: Vec<AgingEvent>,
    cursor: usize,
}

impl AgingPlan {
    /// Generates the aging schedule for `spec` from `seed`.
    ///
    /// Batch defects draw from one forked stream and each disc from its
    /// own, in fixed disc order — so the stream for disc `i` never
    /// depends on how many events earlier discs produced.
    pub fn generate(seed: u64, spec: &AgingSpec) -> AgingPlan {
        let mut root = SimRng::seed_from(seed);
        let batches = spec.batches.max(1);
        let mut batch_rng = root.fork(0x01);
        let defective_batches: Vec<bool> = (0..batches)
            .map(|_| batch_rng.chance(spec.defective_batch_chance))
            .collect();

        let mut events: Vec<AgingEvent> = Vec::new();
        for disc in 0..spec.discs {
            let mut rng = root.fork(0x1_0000 | u64::from(disc));
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "batches is at least 1, so the remainder is defined"
            )]
            let batch = disc % batches;
            let defective = defective_batches[batch as usize];
            for epoch in 0..spec.epochs.max(1) {
                if !rng.chance(spec.hazard(epoch, defective)) {
                    continue;
                }
                let kind = if rng.chance(spec.rot_fraction) {
                    FaultKind::MediaRot {
                        disc: u64::from(disc),
                        bytes: spec.rot_bytes.max(1),
                    }
                } else {
                    FaultKind::MediaCorruption {
                        disc: u64::from(disc),
                        sectors: spec.sectors_per_event.max(1),
                    }
                };
                events.push(AgingEvent { epoch, disc, kind });
            }
        }
        // Stable sort: within an epoch, strikes keep disc order, so the
        // sequence is fully determined by (seed, spec).
        events.sort_by_key(|e| e.epoch);
        AgingPlan {
            seed,
            spec: spec.clone(),
            defective_batches,
            events,
            cursor: 0,
        }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec the plan was generated from.
    pub fn spec(&self) -> &AgingSpec {
        &self.spec
    }

    /// Which batches the defect draw marked defective.
    pub fn defective_batches(&self) -> &[bool] {
        &self.defective_batches
    }

    /// The full schedule, ordered by epoch then disc.
    pub fn events(&self) -> &[AgingEvent] {
        &self.events
    }

    /// Number of scheduled strikes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Pops every not-yet-delivered strike due at or before `epoch`
    /// (in schedule order). Call once per simulated epoch.
    pub fn due_epoch(&mut self, epoch: u32) -> Vec<AgingEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].epoch <= epoch {
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "cursor < events.len() per the loop guard, so +1 cannot overflow"
            )]
            {
                self.cursor += 1;
            }
        }
        self.events[start..self.cursor].to_vec()
    }

    /// Strikes not yet handed out by [`AgingPlan::due_epoch`].
    pub fn remaining(&self) -> usize {
        self.events.len().saturating_sub(self.cursor)
    }

    /// Rewinds consumption so the plan can be replayed.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let spec = AgingSpec::accelerated(64, 10);
        let a = AgingPlan::generate(7, &spec);
        let b = AgingPlan::generate(7, &spec);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.defective_batches(), b.defective_batches());
        assert!(!a.is_empty(), "accelerated aging must produce strikes");
    }

    #[test]
    fn different_seeds_diverge() {
        let spec = AgingSpec::accelerated(64, 10);
        let a = AgingPlan::generate(1, &spec);
        let b = AgingPlan::generate(2, &spec);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_are_ordered_and_within_bounds() {
        let spec = AgingSpec::accelerated(32, 8);
        let plan = AgingPlan::generate(3, &spec);
        let mut last = 0;
        for e in plan.events() {
            assert!(e.epoch >= last, "events must be sorted by epoch");
            assert!(e.epoch < spec.epochs);
            assert!(e.disc < spec.discs);
            assert!(matches!(
                e.kind,
                FaultKind::MediaRot { .. } | FaultKind::MediaCorruption { .. }
            ));
            last = e.epoch;
        }
    }

    #[test]
    fn due_epoch_hands_out_each_event_once() {
        let spec = AgingSpec::accelerated(32, 8);
        let mut plan = AgingPlan::generate(5, &spec);
        let total = plan.len();
        let mut seen = 0;
        for epoch in 0..spec.epochs {
            seen += plan.due_epoch(epoch).len();
        }
        assert_eq!(seen, total);
        assert_eq!(plan.remaining(), 0);
        plan.reset();
        assert_eq!(plan.remaining(), total);
    }

    #[test]
    fn bathtub_shape_dips_in_midlife() {
        let spec = AgingSpec::archival(100, 50);
        let early = spec.hazard(0, false);
        let mid = spec.hazard(4, false);
        let late = spec.hazard(49, false);
        assert!(early > mid, "infant mortality must dominate epoch 0");
        assert!(late > mid, "wear-out must dominate near rated life");
        assert!(spec.hazard(4, true) > mid, "defective batches age faster");
    }

    #[test]
    fn hazard_is_a_valid_probability_under_extreme_acceleration() {
        let mut spec = AgingSpec::archival(10, 100);
        spec.acceleration = 1e12;
        for epoch in 0..100 {
            let h = spec.hazard(epoch, true);
            assert!((0.0..=1.0).contains(&h), "hazard {h} out of range");
        }
    }

    #[test]
    fn defective_batches_raise_strike_counts() {
        // Two populations differing only in the batch multiplier: the
        // one whose batches are all defective must see more strikes.
        let mut clean = AgingSpec::accelerated(64, 10);
        clean.defective_batch_chance = 0.0;
        let mut bad = clean.clone();
        bad.defective_batch_chance = 1.0;
        bad.batch_hazard_multiplier = 30.0;
        let a = AgingPlan::generate(11, &clean);
        let b = AgingPlan::generate(11, &bad);
        assert!(
            b.len() > a.len(),
            "defective batches produced {} <= {} strikes",
            b.len(),
            a.len()
        );
    }

    #[test]
    fn rot_fraction_controls_the_latent_share() {
        let mut spec = AgingSpec::accelerated(64, 10);
        spec.rot_fraction = 1.0;
        let plan = AgingPlan::generate(13, &spec);
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::MediaRot { .. })));
        spec.rot_fraction = 0.0;
        let plan = AgingPlan::generate(13, &spec);
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::MediaCorruption { .. })));
    }
}
