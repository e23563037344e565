//! `TimedModel`: times every call into the `core` layer from outside.
//!
//! It wraps any penalty model and delegates `name`, `penalties`,
//! `new_scratch` and `penalties_with_scratch` unchanged, so predictions
//! stay bit-for-bit those of the wrapped model; the convenience methods
//! keep their trait defaults, which go through those (no model in the
//! repository overrides them). Each query's duration and outcome go to
//! shared atomic tallies, safe to update from `eval` and `serve` workers.

use netbw::core::{ModelScratch, Penalty, PenaltyModel, PopulationDelta, QueryOutcome};
use netbw::graph::Communication;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const BUCKETS: usize = 512;

/// A lock-free log-linear histogram of nanosecond durations (8 sub-buckets
/// per power of two, so a quantile is within 6.25% of the true value).
pub struct AtomicHist {
    counts: Vec<AtomicU64>,
}

impl Default for AtomicHist {
    fn default() -> Self {
        AtomicHist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl AtomicHist {
    fn bucket(ns: u64) -> usize {
        if ns < 8 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        (e - 2) * 8 + ((ns >> (e - 3)) & 7) as usize
    }

    /// Midpoint of a bucket, in nanoseconds.
    fn value(idx: usize) -> f64 {
        if idx < 8 {
            return idx as f64;
        }
        let (e, m) = (idx / 8 + 2, idx % 8);
        let lo = ((8 + m) as u64) << (e - 3);
        lo as f64 + (1u64 << (e - 3)) as f64 / 2.0
    }

    pub fn record(&self, ns: u64) {
        self.counts[Self::bucket(ns)].fetch_add(1, Relaxed);
    }

    /// The `q`-quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// What the wrapped model was asked, counted outside the program.
#[derive(Default)]
pub struct ModelTally {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
    pub patched: AtomicU64,
    pub scratch_rebuilds: AtomicU64,
    pub budget_fallbacks: AtomicU64,
    pub hist: AtomicHist,
}

impl ModelTally {
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Relaxed) as f64 / 1e6
    }

    fn add(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
        self.hist.record(ns);
    }
}

/// A penalty model that times every query it forwards.
pub struct TimedModel<M> {
    inner: M,
    pub tally: Arc<ModelTally>,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M) -> Self {
        Self::with_tally(inner, Arc::default())
    }

    /// A timed model adding to an existing tally (several models, one
    /// layer total).
    pub fn with_tally(inner: M, tally: Arc<ModelTally>) -> Self {
        TimedModel { inner, tally }
    }
}

impl<M: PenaltyModel> PenaltyModel for TimedModel<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        let t0 = Instant::now();
        let out = self.inner.penalties(comms);
        self.tally.add(t0);
        out
    }

    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        self.inner.new_scratch()
    }

    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        let t0 = Instant::now();
        let out = self
            .inner
            .penalties_with_scratch(comms, delta, previous, scratch);
        self.tally.add(t0);
        let t = &self.tally;
        t.patched.fetch_add(out.1.patched as u64, Relaxed);
        t.scratch_rebuilds
            .fetch_add(out.1.scratch_rebuilt as u64, Relaxed);
        t.budget_fallbacks
            .fetch_add(out.1.budget_fallback as u64, Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_within_their_width() {
        for ns in [0u64, 7, 8, 15, 16, 1000, 123_456, 9_999_999_999] {
            let v = AtomicHist::value(AtomicHist::bucket(ns));
            assert!(
                (v - ns as f64).abs() <= ns as f64 / 8.0 + 1.0,
                "{ns} -> {v}"
            );
        }
    }
}
