//! The netbw benchmark: four seeded workloads driven through the
//! program's public API, end to end (`--trace 0`) or per layer
//! (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every output and counter check passed.

mod battery;
mod drain;
mod gen;
mod spans;
mod timed;
mod util;
mod whatif;

use netbw::core::{GigabitEthernetModel, MyrinetModel};
use netbw::fluid::NetworkParams;
use util::Report;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run (0 where a workload
/// does not reach the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("core.model.calls", "count"),
    ("core.model.busy_ms", "ms"),
    ("core.model.call_p99_us", "us"),
    ("core.model.share", "ratio"),
    ("core.model.patched_share", "ratio"),
    ("core.model.scratch_rebuilds", "count"),
    ("core.model.budget_fallbacks", "count"),
    ("fluid.add.busy_ms", "ms"),
    ("fluid.advance.calls", "count"),
    ("fluid.advance.busy_ms", "ms"),
    ("fluid.advance.p99_us", "us"),
    ("fluid.probe.calls", "count"),
    ("fluid.self_ms", "ms"),
    ("fluid.ns_per_completion", "ns"),
    ("fluid.cache.reuses", "count"),
    ("fluid.cache.delta_share", "ratio"),
    ("fluid.timeline.heap_pushes", "count"),
    ("fluid.timeline.stale_ratio", "ratio"),
    ("fluid.timeline.rescans", "count"),
    ("fluid.shard.live", "count"),
    ("packet.run_scheme.busy_ms", "ms"),
    ("packet.run_scheme.p99_us", "us"),
    ("packet.share", "ratio"),
    ("packet.tref_hit_rate", "ratio"),
    ("packet.fabric_reuse_rate", "ratio"),
    ("eval.sweep.calls", "count"),
    ("eval.sweep.items_p50", "count"),
    ("eval.sweep.overhead_ms", "ms"),
    ("eval.steals", "count"),
    ("eval.worker_imbalance", "ratio"),
    ("eval.mean_abs_erel", "%"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.batch.busy_p50_us", "us"),
    ("serve.batch.busy_p99_us", "us"),
    ("serve.batch.size_p50", "count"),
    ("serve.batch.size_max", "count"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.admit.busy_p99_us", "us"),
    ("serve.snapshot_builds", "count"),
    ("serve.query_reuse_rate", "ratio"),
    ("serve.rebases", "count"),
    ("serve.rebase_fallbacks", "count"),
    ("serve.fork_reuses", "count"),
    ("loadgen.max_qps", "1/s"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.offered_qps", "1/s"),
    ("loadgen.achieved_qps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("trace.wall_ms", "ms"),
];

/// How far the traced layer times may fall short of the traced wall time
/// before the run counts as broken: the spans must cover the workload.
const ACCOUNTING_TOLERANCE: f64 = 0.10;

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} takes a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run)
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match run.workload.as_str() {
        "drain_deep_gige" => {
            let params = NetworkParams::gige();
            drain::Drain {
                model: GigabitEthernetModel::default,
                params,
                schedule: gen::deep_schedule(run.seed, 100_000, 400.0, params.bandwidth),
                prefix: 1000,
            }
            .run(&run, &mut report)
        }
        "drain_tenants_myrinet" => {
            let params = NetworkParams::myrinet2000();
            drain::Drain {
                model: MyrinetModel::default,
                params,
                schedule: gen::tenant_schedule(run.seed, 256, 8, 32, params.bandwidth),
                prefix: 100,
            }
            .run(&run, &mut report)
        }
        "battery_3fabric" => battery::run(&run, &mut report),
        "whatif_churn" => whatif::run(&run, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let schema = if run.trace {
        if let Some(&(_, share)) = report
            .metrics
            .iter()
            .find(|(n, _)| *n == "trace.accounted_share")
        {
            if (1.0 - share).abs() > ACCOUNTING_TOLERANCE {
                report.broken.push(format!(
                    "layer times cover {share:.3} of the traced wall time"
                ));
            }
        }
        PER_LAYER
    } else {
        report.set("peak_rss_mib", util::peak_rss_mib());
        END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in schema {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1);
        let value = if value.is_finite() {
            value
        } else {
            report.broken.push(format!("{name} is not finite"));
            0.0
        };
        if !run.trace && value <= 0.0 {
            report.broken.push(format!("{name} was not measured"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for b in &report.broken {
        eprintln!("perfbench: verification failed: {b}");
    }
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
