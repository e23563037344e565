//! `battery_3fabric`: measured-vs-predicted comparisons of the paper's
//! schemes plus random schemes on all three fabrics, through one default
//! `EvalSession` per battery.

use crate::gen;
use crate::spans::{self, Span, SpanLog, ROOT};
use crate::timed::{ModelTally, TimedModel};
use crate::util::{median, quantile, secs, Report, Rng};
use crate::Run;
use netbw::core::PenaltyModel;
use netbw::eval::{mean_absolute_error, relative_error, EvalSession, SchemeComparison, SweepStats};
use netbw::graph::CommGraph;
use netbw::packet::FabricConfig;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Random schemes beside the paper's own.
const RANDOM_SCHEMES: usize = 1000;
/// Nodes and flows of each random scheme.
const NODES: u32 = 16;
const FLOWS: usize = 16;
const SIZE: u64 = 1 << 20;
/// Comparisons per fabric re-run through the one-shot per-call path.
const SAMPLE: usize = 8;

type Pairs = Vec<(FabricConfig, Box<dyn PenaltyModel>)>;

/// One battery: set-up (session + paper schemes), the timed random part,
/// every comparison in fabric-major order and the session's counters.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    items_ms: Vec<f64>,
    results: Vec<SchemeComparison>,
    stats: SweepStats,
}

fn battery(
    pairs: &[(FabricConfig, &dyn PenaltyModel)],
    schemes: &[CommGraph],
    paper: usize,
) -> Rep {
    let t0 = Instant::now();
    let session = EvalSession::new();
    let mut results = Vec::with_capacity(pairs.len() * schemes.len());
    let mut head = Vec::new();
    for &(fabric, model) in pairs {
        head.push(session.compare_schemes(model, fabric, &schemes[..paper]));
    }
    let setup_s = secs(t0);
    let t0 = Instant::now();
    let mut items_ms = Vec::with_capacity(pairs.len() * schemes.len());
    for (&(fabric, model), head) in pairs.iter().zip(head) {
        let timed = session.sweep(&schemes[paper..], |w, scheme| {
            let t = Instant::now();
            let r = w.compare_scheme(model, fabric, scheme);
            (r, secs(t) * 1e3)
        });
        results.extend(head);
        for (r, ms) in timed {
            results.push(r);
            items_ms.push(ms);
        }
    }
    Rep {
        setup_s,
        wall_s: secs(t0),
        items_ms,
        results,
        stats: session.stats(),
    }
}

pub fn run(run: &Run, report: &mut Report) {
    let schemes = gen::battery(run.seed, RANDOM_SCHEMES, NODES, FLOWS, SIZE);
    let paper = schemes.len() - RANDOM_SCHEMES;
    let owned: Pairs = netbw_bench::fabric_model_pairs();
    let pairs: Vec<(FabricConfig, &dyn PenaltyModel)> =
        owned.iter().map(|(f, m)| (*f, m.as_ref())).collect();
    let t0 = Instant::now();
    let first = battery(&pairs, &schemes, paper);
    check(run.seed, &pairs, &schemes, &first, report);
    if run.trace {
        traced_run(run, t0, &owned, &schemes, paper, &first, report);
        return;
    }
    let mut reps = vec![first];
    let each = reps[0].setup_s + reps[0].wall_s;
    while secs(t0) + each < run.seconds {
        let mut rep = battery(&pairs, &schemes, paper);
        report.reconcile(
            "sweep items",
            rep.stats.items,
            (pairs.len() * schemes.len()) as u64,
        );
        // only the first battery's comparisons are checked; keeping the
        // rest would only grow the resident set
        rep.results = Vec::new();
        reps.push(rep);
    }
    eprintln!(
        "perfbench: {} batteries of {} comparisons",
        reps.len(),
        pairs.len() * schemes.len()
    );
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", of(&|r| r.setup_s));
    report.set("ops_per_s", of(&|r| r.items_ms.len() as f64 / r.wall_s));
    report.set("op_p50_ms", of(&|r| quantile(&r.items_ms, 0.5)));
    report.set("op_p99_ms", of(&|r| quantile(&r.items_ms, 0.99)));
}

fn same(a: &SchemeComparison, b: &SchemeComparison) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.scheme == b.scheme
        && bits(&a.measured) == bits(&b.measured)
        && bits(&a.predicted) == bits(&b.predicted)
        && bits(&a.erel) == bits(&b.erel)
        && a.eabs.to_bits() == b.eabs.to_bits()
}

/// Untimed checks: every comparison is finite and positive, the session
/// counted every item, and a seeded sample bit-equals the one-shot
/// per-call `netbw::eval::compare_scheme`.
fn check(
    seed: u64,
    pairs: &[(FabricConfig, &dyn PenaltyModel)],
    schemes: &[CommGraph],
    rep: &Rep,
    report: &mut Report,
) {
    report.reconcile(
        "sweep items",
        rep.stats.items,
        (pairs.len() * schemes.len()) as u64,
    );
    for r in &rep.results {
        let ok = r.measured.len() == r.predicted.len()
            && r.measured
                .iter()
                .chain(&r.predicted)
                .all(|t| t.is_finite() && *t > 0.0);
        report.check(ok, || {
            format!("{}: non-finite or empty comparison", r.scheme)
        });
    }
    let mut rng = Rng::new(seed ^ 0x5eed);
    for (f, &(fabric, model)) in pairs.iter().enumerate() {
        for _ in 0..SAMPLE {
            let i = rng.below(schemes.len() as u64) as usize;
            let got = &rep.results[f * schemes.len() + i];
            let want = netbw::eval::compare_scheme(model, fabric, &schemes[i]);
            report.check(same(got, &want), || {
                format!(
                    "{} on {}: session differs from per-call path",
                    want.scheme, fabric.name
                )
            });
        }
    }
}

/// A traced battery: the comparison re-assembled from the worker's
/// `fabric`, `solver` and `tref`, each call inside its own span.
fn traced_battery(
    pairs: &[(FabricConfig, TimedModel<&dyn PenaltyModel>)],
    schemes: &[CommGraph],
    paper: usize,
    log: &SpanLog,
) -> (f64, Vec<SchemeComparison>, SweepStats) {
    let session = EvalSession::new();
    let mut results: Vec<SchemeComparison> = Vec::new();
    for (fabric, model) in pairs {
        results.extend(session.compare_schemes(model, *fabric, &schemes[..paper]));
    }
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(results.len() + pairs.len() * (schemes.len() - paper));
    for (f, (fabric, model)) in pairs.iter().enumerate() {
        let fabric = *fabric;
        let model: &dyn PenaltyModel = model;
        out.extend(results[f * paper..(f + 1) * paper].iter().cloned());
        out.extend(log.span_id("eval.sweep", ROOT, |sweep| {
            session.sweep(&schemes[paper..], |w, scheme| {
                log.span_id("eval.item", sweep, |item| {
                    let nodes = scheme
                        .nodes()
                        .iter()
                        .map(|n| n.idx() + 1)
                        .max()
                        .unwrap_or(2)
                        .max(2);
                    let measured = log.span("packet.run_scheme", item, || {
                        w.fabric(fabric, nodes).run_scheme(scheme)
                    });
                    let eff = log.span("fluid.solve", item, || {
                        w.solver(model).effective_penalties(scheme)
                    });
                    let predicted: Vec<f64> = log.span("packet.tref", item, || {
                        scheme
                            .comms()
                            .iter()
                            .zip(&eff)
                            .map(|(c, p)| p * w.tref(fabric, c.size))
                            .collect()
                    });
                    let erel: Vec<f64> = predicted
                        .iter()
                        .zip(&measured)
                        .map(|(&tp, &tm)| relative_error(tp, tm))
                        .collect();
                    SchemeComparison {
                        scheme: scheme.name().to_string(),
                        labels: scheme.labels().to_vec(),
                        eabs: mean_absolute_error(&erel),
                        measured,
                        predicted,
                        erel,
                    }
                })
            })
        }));
    }
    (secs(t0) * 1e3, out, session.stats())
}

/// Per sweep: the sweep's wall time, and each worker thread's item time
/// with its packet, fluid and `Tref` parts.
struct SweepShape {
    wall_ns: f64,
    /// `(item, packet, solve, tref)` nanoseconds of the busiest worker.
    busiest: [f64; 4],
}

fn sweep_shapes(spans: &[Span]) -> Vec<SweepShape> {
    let mut per: HashMap<u32, HashMap<u32, [f64; 4]>> = HashMap::new();
    for s in spans {
        let slot = match s.name {
            "eval.item" => 0,
            "packet.run_scheme" => 1,
            "fluid.solve" => 2,
            "packet.tref" => 3,
            _ => continue,
        };
        let sweep = if slot == 0 {
            s.parent
        } else {
            spans[s.parent as usize].parent
        };
        per.entry(sweep).or_default().entry(s.thread).or_default()[slot] += s.ns() as f64;
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "eval.sweep")
        .map(|(id, s)| SweepShape {
            wall_ns: s.ns() as f64,
            busiest: per
                .get(&(id as u32))
                .and_then(|w| w.values().copied().max_by(|a, b| a[0].total_cmp(&b[0])))
                .unwrap_or_default(),
        })
        .collect()
}

fn traced_run(
    run: &Run,
    t0: Instant,
    owned: &Pairs,
    schemes: &[CommGraph],
    paper: usize,
    first: &Rep,
    report: &mut Report,
) {
    let tally = Arc::new(ModelTally::default());
    let timed: Vec<(FabricConfig, TimedModel<&dyn PenaltyModel>)> = owned
        .iter()
        .map(|(f, m)| (*f, TimedModel::with_tally(m.as_ref(), Arc::clone(&tally))))
        .collect();
    let log = SpanLog::new();
    let (wall_ms, results, stats) = traced_battery(&timed, schemes, paper, &log);
    let all = log.take();
    if let Err(e) = spans::write_out(&format!("spans-{}.tsv", run.workload), &all) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    for (got, want) in results.iter().zip(&first.results) {
        report.check(same(got, want), || {
            format!("{}: traced comparison differs", want.scheme)
        });
    }
    report.reconcile(
        "sweep items (traced)",
        stats.items,
        (timed.len() * schemes.len()) as u64,
    );
    // one more untraced battery when time allows, for the overhead ratio
    let mut plain = vec![first.wall_s * 1e3];
    if secs(t0) + first.setup_s + first.wall_s < run.seconds {
        let pairs: Vec<(FabricConfig, &dyn PenaltyModel)> =
            owned.iter().map(|(f, m)| (*f, m.as_ref())).collect();
        plain.push(battery(&pairs, schemes, paper).wall_s * 1e3);
    }
    let items_ms: f64 = spans::busy_ms(&all, "eval.item");
    let packet_ms = spans::busy_ms(&all, "packet.run_scheme");
    let tref_ms = spans::busy_ms(&all, "packet.tref");
    let solve_ms = spans::busy_ms(&all, "fluid.solve");
    let model_ms = tally.busy_ms();
    let shapes = sweep_shapes(&all);
    let overhead_ms: f64 = shapes
        .iter()
        .map(|s| (s.wall_ns - s.busiest[0]) / 1e6)
        .sum();
    let critical_ms: f64 = shapes
        .iter()
        .map(|s| (s.busiest[1] + s.busiest[2] + s.busiest[3]) / 1e6)
        .sum();
    let workers = &stats.per_worker_items;
    let mean_items = workers.iter().sum::<u64>() as f64 / workers.len().max(1) as f64;
    let erel: Vec<f64> = results
        .iter()
        .flat_map(|r| r.erel.iter().copied())
        .collect();
    let calls = tally.calls();
    let share = |a: u64| {
        if calls == 0 {
            0.0
        } else {
            a as f64 / calls as f64
        }
    };
    use std::sync::atomic::Ordering::Relaxed;
    report.set("core.model.calls", calls as f64);
    report.set("core.model.busy_ms", model_ms);
    report.set("core.model.call_p99_us", tally.hist.quantile_ns(0.99) / 1e3);
    report.set("core.model.share", model_ms / items_ms);
    report.set(
        "core.model.patched_share",
        share(tally.patched.load(Relaxed)),
    );
    report.set(
        "core.model.scratch_rebuilds",
        tally.scratch_rebuilds.load(Relaxed) as f64,
    );
    report.set(
        "core.model.budget_fallbacks",
        tally.budget_fallbacks.load(Relaxed) as f64,
    );
    report.set("fluid.self_ms", solve_ms - model_ms);
    report.set("packet.run_scheme.busy_ms", packet_ms);
    report.set(
        "packet.run_scheme.p99_us",
        quantile(&spans::durations_us(&all, "packet.run_scheme"), 0.99),
    );
    report.set("packet.share", (packet_ms + tref_ms) / items_ms);
    report.set("packet.tref_hit_rate", stats.tref_hit_rate());
    report.set("packet.fabric_reuse_rate", stats.fabric_reuse_rate());
    report.set("eval.sweep.calls", shapes.len() as f64);
    report.set("eval.sweep.items_p50", (schemes.len() - paper) as f64);
    report.set("eval.sweep.overhead_ms", overhead_ms);
    report.set("eval.steals", stats.steals as f64);
    report.set(
        "eval.worker_imbalance",
        workers.iter().copied().max().unwrap_or(0) as f64 / mean_items.max(1.0) - 1.0,
    );
    report.set("eval.mean_abs_erel", mean_absolute_error(&erel));
    report.set("trace.wall_ms", wall_ms);
    report.set(
        "trace.accounted_share",
        (overhead_ms + critical_ms) / wall_ms,
    );
    report.set("trace.overhead_ratio", wall_ms / median(&plain) - 1.0);
}
