//! The two full-drain workloads: a schedule queued up front on a default
//! `FluidNetwork`, drained event by event on one thread.

use crate::gen::Transfer;
use crate::spans::{self, SpanLog, ROOT};
use crate::timed::{ModelTally, TimedModel};
use crate::util::{median, quantile, secs, Report};
use crate::Run;
use netbw::core::PenaltyModel;
use netbw::fluid::{CompletedTransfer, FluidNetwork, NetworkParams};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

pub struct Drain<F> {
    pub model: F,
    pub params: NetworkParams,
    pub schedule: Vec<Transfer>,
    /// About how many leading completions are compared bit for bit with
    /// the full-recompute engine.
    pub prefix: usize,
}

/// One drain: its set-up time, drain wall time, per-event step latencies
/// and completions.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    steps_ms: Vec<f64>,
    done: Vec<CompletedTransfer>,
}

/// Layer observations of one traced drain.
struct Traced {
    wall_ms: f64,
    spans: Vec<spans::Span>,
    tally: Arc<ModelTally>,
    cache: netbw::fluid::CacheStats,
    timeline: netbw::fluid::TimelineStats,
    live_shards: usize,
    completions: usize,
    /// Completions that differ from the untraced drain's.
    mismatches: u64,
}

impl<M: PenaltyModel, F: Fn() -> M> Drain<F> {
    pub fn run(&self, run: &Run, report: &mut Report) {
        let t0 = Instant::now();
        let first = self.untraced();
        let mut reps = vec![first.setup_s + first.wall_s];
        self.check(&first, report);
        if run.trace {
            self.traced_run(run, t0, &first, report);
            return;
        }
        // Set-up alone, back to back, so the allocator is warm: a set-up
        // right after a drain re-faults the memory the drain gave back,
        // and a mix of both kinds makes an unsteady median.
        let setup: Vec<f64> = (0..SETUPS).map(|_| self.setup().0).collect();
        let (mut done, mut wall) = (first.done.len(), first.wall_s);
        let mut p50 = vec![quantile(&first.steps_ms, 0.5)];
        let mut p99 = vec![quantile(&first.steps_ms, 0.99)];
        while secs(t0) + median(&reps) < run.seconds {
            let rep = self.untraced();
            report.reconcile(
                "completions",
                rep.done.len() as u64,
                self.schedule.len() as u64,
            );
            reps.push(rep.setup_s + rep.wall_s);
            done += rep.done.len();
            wall += rep.wall_s;
            p50.push(quantile(&rep.steps_ms, 0.5));
            p99.push(quantile(&rep.steps_ms, 0.99));
        }
        eprintln!(
            "perfbench: {} drains of {} flows",
            reps.len(),
            self.schedule.len()
        );
        // Whole drains on the reference box flip between two speeds about
        // 40% apart, drain by drain. A median of the three or four deep
        // drains that fit in a run picks one of them; the pooled rate and
        // the mean step quantiles move smoothly with the mix instead.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        report.set("setup_s", median(&setup));
        report.set("ops_per_s", done as f64 / wall);
        report.set("op_p50_ms", mean(&p50));
        report.set("op_p99_ms", mean(&p99));
    }

    /// A default engine with the whole schedule queued, and the time that took.
    fn setup(&self) -> (f64, FluidNetwork<M>) {
        let t0 = Instant::now();
        let mut net = FluidNetwork::new((self.model)(), self.params);
        for &(key, comm, start) in &self.schedule {
            net.add(key, comm, start);
        }
        (secs(t0), net)
    }

    fn untraced(&self) -> Rep {
        let (setup_s, mut net) = self.setup();
        let mut steps_ms = Vec::with_capacity(2 * self.schedule.len());
        let mut done = Vec::with_capacity(self.schedule.len());
        let t0 = Instant::now();
        loop {
            let ts = Instant::now();
            let Some(t) = net.next_event_time() else {
                break;
            };
            done.extend(net.advance_to(t));
            steps_ms.push(secs(ts) * 1e3);
        }
        Rep {
            setup_s,
            wall_s: secs(t0),
            steps_ms,
            done,
        }
    }

    /// A drain through a `TimedModel`, each engine call in a span. Its
    /// completions must bit-equal the untraced drain's (`expect`).
    fn traced(&self, log: &SpanLog, expect: &[CompletedTransfer]) -> Traced {
        let model = TimedModel::new((self.model)());
        let tally = Arc::clone(&model.tally);
        let t0 = Instant::now();
        let mut net = FluidNetwork::new(model, self.params);
        for &(key, comm, start) in &self.schedule {
            log.span("fluid.add", ROOT, || net.add(key, comm, start));
        }
        let (mut completions, mut live_shards, mut steps, mut mismatches) = (0, 0, 0u64, 0);
        while let Some(t) = log.span("fluid.probe", ROOT, || net.next_event_time()) {
            for d in log.span("fluid.advance", ROOT, || net.advance_to(t)) {
                let same = expect.get(completions).is_some_and(|e| {
                    e.key == d.key && e.completion.to_bits() == d.completion.to_bits()
                });
                mismatches += !same as u64;
                completions += 1;
            }
            steps += 1;
            if steps % 4096 == 0 {
                live_shards = live_shards.max(net.shard_count());
            }
        }
        Traced {
            wall_ms: secs(t0) * 1e3,
            spans: log.take(),
            tally,
            cache: net.cache_stats(),
            timeline: net.timeline_stats(),
            live_shards,
            completions,
            mismatches,
        }
    }

    /// Alternates untraced and traced drains; per-layer numbers come from
    /// the traced ones, the overhead from the pair of medians.
    fn traced_run(&self, run: &Run, t0: Instant, first: &Rep, report: &mut Report) {
        let log = SpanLog::new();
        let mut plain = vec![first.setup_s + first.wall_s];
        let mut traced = Vec::new();
        loop {
            let tr = self.traced(&log, &first.done);
            if traced.is_empty() {
                if let Err(e) = spans::write_out(&format!("spans-{}.tsv", run.workload), &tr.spans)
                {
                    eprintln!("perfbench: cannot write spans: {e}");
                }
            }
            traced.push(tr);
            let pair = plain[0] + traced[0].wall_ms / 1e3;
            if secs(t0) + pair > run.seconds {
                break;
            }
            let rep = self.untraced();
            plain.push(rep.setup_s + rep.wall_s);
        }
        let n = self.schedule.len() as u64;
        for tr in &traced {
            report.check(tr.mismatches == 0, || {
                format!(
                    "{} traced completions differ from the untraced drain",
                    tr.mismatches
                )
            });
            report.reconcile("completions (traced)", tr.completions as u64, n);
            report.reconcile("model queries", tr.cache.model_queries, tr.tally.calls());
            report.reconcile(
                "patched queries",
                tr.cache.patched_queries,
                tr.tally.patched.load(Relaxed),
            );
            report.reconcile(
                "scratch rebuilds",
                tr.cache.scratch_rebuilds,
                tr.tally.scratch_rebuilds.load(Relaxed),
            );
            report.reconcile(
                "budget fallbacks",
                tr.cache.budget_fallbacks,
                tr.tally.budget_fallbacks.load(Relaxed),
            );
        }
        let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let wall = med(&|t| t.wall_ms);
        let model_ms = med(&|t| t.tally.busy_ms());
        let add_ms = med(&|t| spans::busy_ms(&t.spans, "fluid.add"));
        let engine_ms = med(&|t| {
            spans::busy_ms(&t.spans, "fluid.probe") + spans::busy_ms(&t.spans, "fluid.advance")
                - t.tally.busy_ms()
        });
        let tr = &traced[0];
        let c = tr.cache;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.set("core.model.calls", tr.tally.calls() as f64);
        report.set("core.model.busy_ms", model_ms);
        report.set(
            "core.model.call_p99_us",
            tr.tally.hist.quantile_ns(0.99) / 1e3,
        );
        report.set("core.model.share", model_ms / wall);
        report.set(
            "core.model.patched_share",
            ratio(c.patched_queries, c.model_queries),
        );
        report.set("core.model.scratch_rebuilds", c.scratch_rebuilds as f64);
        report.set("core.model.budget_fallbacks", c.budget_fallbacks as f64);
        report.set("fluid.add.busy_ms", add_ms);
        report.set(
            "fluid.advance.calls",
            spans::named(&tr.spans, "fluid.advance").count() as f64,
        );
        report.set(
            "fluid.advance.busy_ms",
            med(&|t| spans::busy_ms(&t.spans, "fluid.advance")),
        );
        report.set(
            "fluid.advance.p99_us",
            med(&|t| quantile(&spans::durations_us(&t.spans, "fluid.advance"), 0.99)),
        );
        report.set(
            "fluid.probe.calls",
            spans::named(&tr.spans, "fluid.probe").count() as f64,
        );
        report.set("fluid.self_ms", engine_ms);
        report.set("fluid.ns_per_completion", engine_ms * 1e6 / n as f64);
        report.set("fluid.cache.reuses", c.reuses as f64);
        report.set(
            "fluid.cache.delta_share",
            ratio(c.delta_queries, c.model_queries),
        );
        report.set("fluid.timeline.heap_pushes", tr.timeline.heap_pushes as f64);
        report.set(
            "fluid.timeline.stale_ratio",
            ratio(tr.timeline.lazy_pops, tr.timeline.heap_pushes),
        );
        report.set("fluid.timeline.rescans", tr.timeline.rescans as f64);
        report.set("fluid.shard.live", tr.live_shards as f64);
        report.set("trace.wall_ms", wall);
        report.set(
            "trace.accounted_share",
            (model_ms + engine_ms + add_ms) / wall,
        );
        report.set("trace.overhead_ratio", wall / 1e3 / median(&plain) - 1.0);
    }

    /// Untimed output checks: every flow completes exactly once, never
    /// sooner than it would alone, and the completion prefix bit-equals the
    /// full-recompute engine's.
    fn check(&self, rep: &Rep, report: &mut Report) {
        let n = self.schedule.len();
        let mut seen = vec![false; n];
        let mut last = f64::NEG_INFINITY;
        for d in &rep.done {
            let Some(&(_, comm, start)) = self.schedule.get(d.key as usize) else {
                report.check(false, || format!("unknown key {}", d.key));
                continue;
            };
            let alone = start + self.params.reference_time(comm.size);
            let fresh = !std::mem::replace(&mut seen[d.key as usize], true);
            let ok = fresh && d.completion >= alone * (1.0 - 1e-12) && d.completion >= last;
            last = d.completion;
            report.check(ok, || {
                format!(
                    "flow {} completes at {} (alone {alone}, again {})",
                    d.key, d.completion, !fresh
                )
            });
        }
        let missing = seen.iter().filter(|s| !**s).count();
        for _ in 0..missing {
            report.check(false, || "a flow never completed".into());
        }
        // Flows that start after `cut` cannot touch anything completing
        // before it, so the oracle drains only the schedule's head.
        let head = (self.prefix * 3).min(n);
        let cut = self.schedule.get(head).map_or(f64::INFINITY, |t| t.2);
        let mut oracle = FluidNetwork::new((self.model)(), self.params).with_full_recompute();
        for &(key, comm, start) in &self.schedule[..head] {
            oracle.add(key, comm, start);
        }
        let expect: Vec<CompletedTransfer> = oracle
            .run_to_completion()
            .into_iter()
            .take_while(|e| e.completion < cut)
            .collect();
        report.check(expect.len() >= self.prefix / 2, || {
            format!("only {} oracle completions before the cut", expect.len())
        });
        for (i, e) in expect.iter().enumerate() {
            let got = rep.done.get(i);
            let ok = got.is_some_and(|g| {
                g.key == e.key && g.completion.to_bits() == e.completion.to_bits()
            });
            report.check(ok, || {
                format!(
                    "completion {i}: oracle {:?}, engine {:?}",
                    (e.key, e.completion),
                    got.map(|g| (g.key, g.completion))
                )
            });
        }
    }
}
