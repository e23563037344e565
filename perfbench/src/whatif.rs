//! `whatif_churn`: a default GigE `WhatIfService` under live churn.
//!
//! One generator thread plays the service front-end's coalescing loop: it
//! admits Poisson arrivals, advances the service clock in step with host
//! time and answers every what-if query that is due in one
//! `what_if_batch`. Queries arrive open loop (Poisson) at a fixed rate,
//! then on a climbing rate ladder. Latency runs from when a query was due.

use crate::spans::{self, SpanLog, ROOT};
use crate::timed::{ModelTally, TimedModel};
use crate::util::{median, quantile, secs, Report, Rng};
use crate::Run;
use netbw::core::GigabitEthernetModel;
use netbw::graph::Communication;
use netbw::serve::{ServeConfig, ServeError, ServeStats, WhatIfAnswer, WhatIfQuery, WhatIfService};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u64 = 64;
/// Transfer sizes; few enough that the `Tref` memo stays warm.
const SIZES: [u64; 3] = [256 << 10, 1 << 20, 4 << 20];
/// Admitted transfers in flight: the arrival process aims at `LIVE`
/// (with headroom) and turns arrivals away at `LIVE_CAP`.
const LIVE: f64 = 35.0;
const LIVE_CAP: usize = 40;
/// Simulated seconds per host second.
const SIM_PER_HOST: f64 = 0.1;
/// Host seconds between clock advances.
const TICK: f64 = 0.002;
/// The fixed offered rate of the latency phase, queries per second.
const FIXED_QPS: f64 = 1000.0;
/// Queries per latency window: host stalls come in bursts, so latency is
/// summarised per window (p99 then has ten samples beyond it) and the
/// run reports the median window.
const WINDOW: usize = 1000;
/// The p99 latency a ladder step must meet.
const P99_LIMIT_MS: f64 = 25.0;
/// Ladder factors: coarse climb, then fine steps (finer than the
/// throughput bound) from the last coarse rate that held.
const COARSE: f64 = 1.5;
const FINE: f64 = 1.05;
/// Queries per ladder step (p99 has thirty samples beyond it).
const STEP_QUERIES: f64 = 3000.0;
/// How close to a wake-up the idle generator stops sleeping and spins.
const SPIN: f64 = 0.002;
/// Services built per run; `setup_s` is their median and the last serves.
const SETUPS: u64 = 15;
/// Every this many batches, one answer is re-derived by full rebuild.
const CHECK_EVERY: usize = 100;

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    /// Per query: host time from due to answered (∞ if refused).
    latency_ms: Vec<f64>,
    batch_us: Vec<f64>,
    batch_size: Vec<f64>,
    /// Per query: host time from due to its batch starting.
    wait_ms: Vec<f64>,
    /// Queries that fell due while the generator slept: how late it woke.
    lateness_ms: Vec<f64>,
    admit_us: Vec<f64>,
    issued: u64,
    seconds: f64,
    last_answer: f64,
    /// The generator gave up on a backlog it could not clear.
    aborted: bool,
}

impl Phase {
    /// Per window of about `WINDOW` consecutive queries: the latency p50
    /// of all queries, the p99 time to answer a query that had a batch of
    /// its own, and queries answered per second the service was busy.
    ///
    /// Batches of two or more fan out on fresh executor threads, whose
    /// start-up on a small shared box swings by milliseconds from one
    /// minute to the next, and every stall of the box delays the queries
    /// queued behind it. The p99 latency of all queries (reported per
    /// layer as `serve.latency_p99_ms`) follows those swings; the p99 of
    /// the service's own time per query does not.
    fn windows(&self) -> Vec<[f64; 3]> {
        let mut out = Vec::new();
        let (mut first, mut n, mut busy_us) = (0, 0, 0.0);
        let mut solo = Vec::new();
        for (&size, &us) in self.batch_size.iter().zip(&self.batch_us) {
            if size == 1.0 {
                solo.push(us / 1e3);
            }
            n += size as usize;
            busy_us += us;
            if n >= WINDOW {
                let lat = &self.latency_ms[first..first + n];
                out.push([
                    quantile(lat, 0.5),
                    quantile(&solo, 0.99),
                    n as f64 / busy_us * 1e6,
                ]);
                first += n;
                n = 0;
                busy_us = 0.0;
                solo.clear();
            }
        }
        out
    }

    fn p99_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    fn holds(&self) -> bool {
        !self.aborted && self.p99_ms() <= P99_LIMIT_MS
    }
}

/// The generator: a service, its seeded input stream and the host clock
/// that drives both (minus time spent in untimed checks).
struct Gen<'a> {
    svc: WhatIfService,
    /// Separate streams, so the offered inputs do not depend on how the
    /// loop interleaves admissions and queries.
    admits: Rng,
    queries_rng: Rng,
    t0: Instant,
    paused: f64,
    sim0: f64,
    next_admit: f64,
    next_tick: f64,
    admit_rate: f64,
    log: Option<&'a SpanLog>,
    // outside counts, reconciled with `ServeStats`
    queries: u64,
    rebuilt: u64,
    admitted: u64,
    completed: u64,
    batches: usize,
}

impl<'a> Gen<'a> {
    fn new(svc: WhatIfService, seed: u64, log: Option<&'a SpanLog>) -> Self {
        let params = svc.config().params;
        let mean_size = SIZES.iter().sum::<u64>() as f64 / SIZES.len() as f64;
        // Little's law on host time, with headroom for contention
        let life = params.reference_time(mean_size as u64) / SIM_PER_HOST;
        let mut g = Gen {
            svc,
            admits: Rng::new(seed),
            queries_rng: Rng::new(seed ^ 0x9e37_79b9),
            t0: Instant::now(),
            paused: 0.0,
            sim0: 0.0,
            next_admit: 0.0,
            next_tick: 0.0,
            admit_rate: LIVE / life,
            log,
            queries: 0,
            rebuilt: 0,
            admitted: 0,
            completed: 0,
            batches: 0,
        };
        for _ in 0..LIVE as usize {
            let comm = comm(&mut g.admits);
            g.svc.admit(comm, 0.0).expect("initial admission");
            g.admitted += 1;
        }
        g
    }

    fn now(&self) -> f64 {
        secs(self.t0) - self.paused
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.log {
            Some(log) => log.span(name, ROOT, f),
            None => f(),
        }
    }

    /// Admissions and clock ticks that are due by `now`.
    fn writes(&mut self, now: f64, phase: &mut Phase) {
        while self.next_admit <= now {
            self.next_admit += self.admits.exp(self.admit_rate);
            let comm = comm(&mut self.admits);
            if self.svc.in_flight() >= LIVE_CAP {
                // a full cluster turns the arrival away (a loss system),
                // which keeps the live population, and query cost, steady
                continue;
            }
            let start = self.svc.now();
            let t = Instant::now();
            let ok = self
                .span("serve.admit", || self.svc.admit(comm, start))
                .is_ok();
            phase.admit_us.push(secs(t) * 1e6);
            assert!(ok, "admission at the service clock is always accepted");
            self.admitted += 1;
        }
        if now >= self.next_tick {
            let t = self.sim0 + now * SIM_PER_HOST;
            let done = self
                .span("serve.advance", || self.svc.advance_to(t))
                .expect("monotonic clock");
            self.completed += done.len() as u64;
            self.next_tick = now + TICK;
        }
    }

    /// One open-loop phase at `rate` queries/s for `seconds`.
    fn phase(&mut self, rate: f64, seconds: f64, report: &mut Report) -> Phase {
        let mut p = Phase::default();
        let start = self.now();
        let end = start + seconds;
        let mut next_q = start + self.queries_rng.exp(rate);
        let mut due: Vec<(f64, WhatIfQuery)> = Vec::new();
        let mut slept_at = None;
        loop {
            let now = self.now();
            self.writes(now, &mut p);
            while next_q <= now && next_q < end {
                due.push((next_q, query(&mut self.queries_rng)));
                next_q += self.queries_rng.exp(rate);
            }
            if let Some(slept) = slept_at.take() {
                for &(d, _) in due.iter().filter(|(d, _)| *d >= slept) {
                    p.lateness_ms.push((now - d) * 1e3);
                }
            }
            if due.is_empty() {
                if next_q >= end {
                    break;
                }
                let wake = next_q.min(self.next_admit).min(self.next_tick);
                slept_at = Some(now);
                self.span("loadgen.idle", || sleep_until(self, wake));
                continue;
            }
            if now - due[0].0 > 20.0 * P99_LIMIT_MS / 1e3 {
                // a backlog this deep is not going to clear at this rate
                p.aborted = true;
                break;
            }
            let queries: Vec<WhatIfQuery> = due.iter().map(|(_, q)| q.clone()).collect();
            let t = Instant::now();
            let answers = self.span("serve.batch", || self.svc.what_if_batch(&queries));
            let done = self.now();
            p.batch_us.push(secs(t) * 1e6);
            p.batch_size.push(queries.len() as f64);
            self.queries += queries.len() as u64;
            for ((d, q), a) in due.iter().zip(&answers) {
                p.wait_ms.push((now - d) * 1e3);
                let ok = answer_ok(q, a);
                report.check(ok, || format!("what-if answer {a:?}"));
                p.latency_ms
                    .push(if ok { (done - d) * 1e3 } else { f64::INFINITY });
            }
            p.issued += queries.len() as u64;
            p.last_answer = done;
            self.batches += 1;
            if self.batches.is_multiple_of(CHECK_EVERY) {
                self.check_rebuild(&queries[0], &answers[0], report);
            }
            due.clear();
        }
        p.seconds = seconds;
        p.last_answer -= start;
        p
    }

    /// Re-derives an answer by rebuilding the engine from the admission
    /// log at the same instant; the generator's clock is paused meanwhile.
    fn check_rebuild(
        &mut self,
        q: &WhatIfQuery,
        got: &Result<WhatIfAnswer, ServeError>,
        report: &mut Report,
    ) {
        let t = Instant::now();
        let want = self.span("check", || {
            self.svc.what_if_batch_via_rebuild(std::slice::from_ref(q))
        });
        self.rebuilt += 1;
        let bits = |a: &Result<WhatIfAnswer, ServeError>| {
            a.as_ref().ok().map(|a| {
                let mut v: Vec<u64> = a
                    .flows
                    .iter()
                    .flat_map(|f| [f.completion, f.elapsed, f.tref, f.slowdown])
                    .map(f64::to_bits)
                    .collect();
                v.push(a.makespan.to_bits());
                v
            })
        };
        report.check(bits(got).is_some() && bits(got) == bits(&want[0]), || {
            format!("fork answer {got:?} vs rebuild {:?}", want[0])
        });
        self.paused += secs(t);
    }

    fn reconcile(&self, s: &ServeStats, report: &mut Report) {
        report.reconcile("serve queries", s.queries, self.queries);
        report.reconcile("serve admitted", s.admitted, self.admitted);
        report.reconcile("serve completed", s.completed, self.completed);
        report.reconcile("sweep items", s.sweep.items, self.queries + self.rebuilt);
    }
}

fn comm(rng: &mut Rng) -> Communication {
    let s = rng.below(NODES);
    let d = (s + 1 + rng.below(NODES - 1)) % NODES;
    Communication::new(s as u32, d as u32, SIZES[rng.below(3) as usize])
}

/// A what-if query of one or two flows starting within 2 ms.
fn query(rng: &mut Rng) -> WhatIfQuery {
    let mut q = WhatIfQuery::flow(comm(rng), rng.unit() * 0.002);
    if rng.below(2) == 0 {
        let c = comm(rng);
        q.flows.push((c, rng.unit() * 0.002));
    }
    q
}

fn sleep_until(g: &Gen, wake: f64) {
    loop {
        let left = wake - g.now();
        if left <= 0.0 {
            return;
        }
        // Sleep only while far from the wake-up: a sleeping thread can
        // wake milliseconds late on a busy box, which would show as latency.
        if left > SPIN {
            std::thread::sleep(Duration::from_secs_f64(left - SPIN));
        } else {
            std::thread::yield_now();
        }
    }
}

fn answer_ok(q: &WhatIfQuery, a: &Result<WhatIfAnswer, ServeError>) -> bool {
    a.as_ref().is_ok_and(|a| {
        a.flows.len() == q.flows.len()
            && a.flows
                .iter()
                .all(|f| f.slowdown.is_finite() && f.slowdown > 0.0)
            && a.makespan.is_finite()
    })
}

/// Builds and warms a generator: service, initial load, a first batch.
fn setup<'a>(
    seed: u64,
    log: Option<&'a SpanLog>,
    tally: Option<Arc<ModelTally>>,
    report: &mut Report,
) -> (Gen<'a>, f64) {
    let t = Instant::now();
    let svc = match tally {
        Some(tally) => WhatIfService::with_model(
            Arc::new(TimedModel::with_tally(
                GigabitEthernetModel::default(),
                tally,
            )),
            ServeConfig::default(),
        ),
        None => WhatIfService::new(ServeConfig::default()),
    };
    let mut g = Gen::new(svc, seed, log);
    // warm-up: the snapshot and every size's `Tref`, one query at a time
    // (a batch of one runs inline; a larger one would start executor
    // threads, whose start-up jitter would swamp the set-up time)
    let mut rng = Rng::new(seed ^ 0x77a2);
    for size in SIZES {
        let c = comm(&mut rng);
        let q = WhatIfQuery::flow(Communication::new(c.src, c.dst, size), 0.0);
        let a = g.svc.what_if(&q);
        report.check(answer_ok(&q, &a), || "warm-up answer".into());
        g.queries += 1;
    }
    let took = secs(t);
    g.t0 = Instant::now();
    g.sim0 = g.svc.now();
    (g, took)
}

pub fn run(run: &Run, report: &mut Report) {
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut g = None;
    for i in 0..SETUPS {
        let (gen, s) = setup(run.seed.wrapping_add(i), None, None, report);
        setups.push(s);
        g = Some(gen);
    }
    let mut g = g.expect("at least one set-up");
    if run.trace {
        return traced_run(run, t0, g, report);
    }
    let fixed = g.phase(FIXED_QPS, run.seconds - secs(t0), report);
    g.reconcile(&g.svc.stats(), report);
    let windows = fixed.windows();
    let of = |i: usize| median(&windows.iter().map(|w| w[i]).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {FIXED_QPS} q/s for {} queries in {} windows: p50 {:.3} ms, p99 to answer one {:.3} ms (p99 latency, pooled: {:.3} ms), {:.0} answers per busy second; {} in flight",
        fixed.issued,
        windows.len(),
        of(0),
        of(1),
        fixed.p99_ms(),
        of(2),
        g.svc.in_flight()
    );
    report.set("setup_s", median(&setups));
    report.set("op_p50_ms", of(0));
    report.set("op_p99_ms", of(1));
    report.set("ops_per_s", of(2));
}

/// The rate ladder: a coarse climb from the fixed rate, then fine steps
/// from the last coarse rate that held, until `deadline`. Returns the
/// highest rate that held, interpolated to where p99 crosses the limit.
fn ladder(g: &mut Gen, deadline: f64, t0: Instant, report: &mut Report) -> f64 {
    let mut pass: Option<(f64, f64)> = None;
    let mut fail: Option<(f64, f64)> = None;
    let mut rate = FIXED_QPS;
    let mut fine = false;
    while secs(t0) + 2.0 * STEP_QUERIES / rate < deadline {
        if fail.is_some_and(|(r, _)| rate >= r * 0.999) {
            if fine || pass.is_none() {
                break;
            }
            fine = true;
            rate = pass.expect("a rate held").0 * FINE;
            continue;
        }
        let mut step = g.phase(rate, STEP_QUERIES / rate, report);
        if !step.holds() {
            // one stall of the box can sink a step's p99: a rate fails
            // only when a second try fails as well
            step = g.phase(rate, STEP_QUERIES / rate, report);
        }
        if step.holds() {
            pass = Some((rate, step.p99_ms()));
        } else {
            fail = Some((
                rate,
                if step.aborted {
                    f64::INFINITY
                } else {
                    step.p99_ms()
                },
            ));
        }
        rate *= if fine { FINE } else { COARSE };
    }
    eprintln!("perfbench: ladder: last pass {pass:?}, first fail {fail:?}");
    match (pass, fail) {
        (Some((rp, pp)), Some((rf, pf))) if pf.is_finite() && pf > pp => {
            rp + (rf - rp) * ((P99_LIMIT_MS - pp) / (pf - pp)).clamp(0.0, 1.0)
        }
        (Some((rp, _)), _) => rp,
        (None, _) => 0.0,
    }
}

/// An untraced fixed-rate phase and the rate ladder, then a traced
/// fixed-rate phase on a service of its own.
fn traced_run(run: &Run, t0: Instant, mut plain: Gen, report: &mut Report) {
    let phase_s = 0.25 * run.seconds;
    let base = plain.phase(FIXED_QPS, phase_s, report);
    let max_qps = ladder(&mut plain, run.seconds - phase_s - 1.0, t0, report);
    plain.reconcile(&plain.svc.stats(), report);
    drop(plain);
    let log = SpanLog::new();
    let tally = Arc::new(ModelTally::default());
    let (mut g, _) = setup(run.seed, Some(&log), Some(Arc::clone(&tally)), report);
    let _ = log.take();
    let wall_t = Instant::now();
    let p = g.phase(FIXED_QPS, phase_s, report);
    let wall_ms = secs(wall_t) * 1e3;
    let all = log.take();
    if let Err(e) = spans::write_out(&format!("spans-{}.tsv", run.workload), &all) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    let s = g.svc.stats();
    g.reconcile(&s, report);
    let batch_ms = spans::busy_ms(&all, "serve.batch");
    let admit_ms = spans::busy_ms(&all, "serve.admit");
    let advance_ms = spans::busy_ms(&all, "serve.advance");
    let idle_ms = spans::busy_ms(&all, "loadgen.idle");
    let check_ms = spans::busy_ms(&all, "check");
    let model_ms = tally.busy_ms();
    let calls = tally.calls();
    let workers = &s.sweep.per_worker_items;
    let mean_items = workers.iter().sum::<u64>() as f64 / workers.len().max(1) as f64;
    use std::sync::atomic::Ordering::Relaxed;
    report.set("core.model.calls", calls as f64);
    report.set("core.model.busy_ms", model_ms);
    report.set("core.model.call_p99_us", tally.hist.quantile_ns(0.99) / 1e3);
    report.set(
        "core.model.share",
        model_ms / (batch_ms + admit_ms + advance_ms),
    );
    report.set(
        "core.model.patched_share",
        tally.patched.load(Relaxed) as f64 / calls.max(1) as f64,
    );
    report.set(
        "core.model.scratch_rebuilds",
        tally.scratch_rebuilds.load(Relaxed) as f64,
    );
    report.set(
        "core.model.budget_fallbacks",
        tally.budget_fallbacks.load(Relaxed) as f64,
    );
    report.set("packet.tref_hit_rate", s.sweep.tref_hit_rate());
    report.set("packet.fabric_reuse_rate", s.sweep.fabric_reuse_rate());
    report.set("eval.sweep.calls", p.batch_size.len() as f64);
    report.set("eval.sweep.items_p50", median(&p.batch_size));
    report.set("eval.steals", s.sweep.steals as f64);
    report.set(
        "eval.worker_imbalance",
        workers.iter().copied().max().unwrap_or(0) as f64 / mean_items.max(1.0) - 1.0,
    );
    report.set("serve.latency_p99_ms", p.p99_ms());
    report.set("serve.batch.busy_p50_us", quantile(&p.batch_us, 0.5));
    report.set("serve.batch.busy_p99_us", quantile(&p.batch_us, 0.99));
    report.set("serve.batch.size_p50", median(&p.batch_size));
    report.set("serve.batch.size_max", quantile(&p.batch_size, 1.0));
    report.set("serve.queue_wait_p99_ms", quantile(&p.wait_ms, 0.99));
    report.set("serve.admit.busy_p99_us", quantile(&p.admit_us, 0.99));
    report.set("serve.snapshot_builds", s.snapshot_builds as f64);
    report.set("serve.query_reuse_rate", s.per_query_snapshot_reuse_rate());
    report.set("serve.rebases", s.rebases as f64);
    report.set("serve.rebase_fallbacks", s.rebase_fallbacks as f64);
    report.set("serve.fork_reuses", s.fork_reuses as f64);
    report.set("loadgen.max_qps", max_qps);
    report.set("loadgen.lateness_p99_ms", quantile(&p.lateness_ms, 0.99));
    report.set("loadgen.offered_qps", p.issued as f64 / p.seconds);
    report.set("loadgen.achieved_qps", p.issued as f64 / p.last_answer);
    report.set("trace.wall_ms", wall_ms);
    report.set(
        "trace.accounted_share",
        (batch_ms + admit_ms + advance_ms + idle_ms + check_ms) / wall_ms,
    );
    report.set(
        "trace.overhead_ratio",
        median(&p.batch_us) / median(&base.batch_us) - 1.0,
    );
}
