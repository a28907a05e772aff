//! One run: set the stack up, measure one window, check the outputs, and reduce the
//! window to the metrics `BENCHMARK.json` declares — the end-to-end ones untraced,
//! the per-layer ones from a separate traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::json::JsonValue;

use crate::inputs::{self, Vit196};
use crate::layers::{self, Table};
use crate::loadgen::RunLog;
use crate::spec::{MetricSpec, Spec};
use crate::stats;
use crate::sysinfo;
use crate::traced;
use crate::verify::Checker;
use crate::workloads::{Hires, Outcome, Stack, Traffic, Workload, SEGMENTS, SETUP_REPEATS};

/// `loadgen.late_p99_us` above which an open-loop run measured the generator, not the
/// server, and must be re-run rather than read.
pub const LATE_LIMIT_US: f64 = 2000.0;

/// Traced metrics that come from traffic; a workload that sends none reports them 0.
const TRAFFIC_METRICS: &[&str] = &[
    "serve.server.stage_us.parse",
    "serve.server.stage_us.queue_wait",
    "serve.server.stage_us.batch_assembly",
    "serve.server.stage_us.compute",
    "serve.server.stage_us.write",
    "serve.server.unattributed_us",
    "serve.worker.compute_us_mean",
    "serve.batcher.queue_wait_us_mean",
    "serve.batcher.batch_size_mean",
    "serve.batcher.shed",
    "serve.event_loop.saturation",
    "serve.event_loop.ready_per_wake",
    "gateway.server.stage_us.parse",
    "gateway.server.stage_us.admission",
    "gateway.server.stage_us.cache_probe",
    "gateway.server.stage_us.pick",
    "gateway.server.stage_us.backend_attempt",
    "gateway.server.stage_us.write",
    "gateway.server.hit_p50_us",
    "gateway.server.miss_p50_us",
    "gateway.server.overhead_us",
    "gateway.cache.hit_share",
    "gateway.pool.retries",
    "gateway.pool.failovers",
    "gateway.brownout.degraded",
    "loadgen.encode_us",
    "loadgen.write_us",
    "loadgen.wait_us",
    "loadgen.decode_us",
    "loadgen.late_p99_us",
];

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// The declared metrics in declaration order: `(name, unit, value)`.
    pub metrics: Vec<(String, String, f64)>,
    /// Everything else worth printing: sample counts, validity, failure reasons.
    pub details: JsonValue,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's result line.
    pub fn result_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for (name, unit, value) in &self.metrics {
            let mut entry = JsonValue::object();
            entry.set("value", *value).set("unit", unit.as_str());
            metrics.set(name, entry);
        }
        let mut line = JsonValue::object();
        line.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        line
    }
}

/// Picks the declared metrics out of `measured`, refusing to report a run that did
/// not measure one of them.
fn declared(specs: &[MetricSpec], measured: &Table) -> Result<Vec<(String, String, f64)>, String> {
    specs
        .iter()
        .map(|spec| {
            measured
                .get(&spec.name)
                .map(|&value| (spec.name.clone(), spec.unit.clone(), value))
                .ok_or_else(|| format!("declared metric {} was not measured", spec.name))
        })
        .collect()
}

/// Sets up `SETUP_REPEATS` times (tearing the stack down in between), keeps the last
/// stack, and returns each set-up's seconds.
fn set_up_repeatedly<S>(
    repeats: usize,
    mut set_up: impl FnMut() -> Result<S, String>,
    mut tear_down: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let start = Instant::now();
        kept = Some(set_up()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.ok_or("no set-up was run")?, seconds))
}

/// Reduces one window to the end-to-end metrics.
///
/// The window is cut into [`SEGMENTS`] equal segments by each op's due time;
/// throughput, the latency percentiles and CPU per op are computed per segment and
/// the median segment is reported, so a disturbance of the host shorter than half the
/// window does not move them. Two exceptions: the open loop's throughput is its fixed
/// arrival rate unless ops fail, so it is taken over the whole window, and
/// `slo_share` counts every op sent — a stall must show in it.
fn end_to_end_table(workload: Workload, outcome: &Outcome, setups: &[f64]) -> Table {
    let segment_s = outcome.window_s / f64::from(SEGMENTS);
    let mut per_segment: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS as usize];
    // A segment's ops occupy the time from its first op's due time to the next
    // segment's (the last one's: to the last reply). Counting against that interval
    // instead of the nominal segment keeps slow sequential ops (a few dozen per
    // segment) from quantising the throughput.
    let mut opens: Vec<f64> = (0..=SEGMENTS).map(|i| f64::from(i) * segment_s).collect();
    opens[SEGMENTS as usize] = outcome.span_s;
    let mut first_due = vec![f64::INFINITY; SEGMENTS as usize];
    for sample in &outcome.samples {
        let index = ((sample.due_s / segment_s) as usize).min(per_segment.len() - 1);
        per_segment[index].push(sample.latency_ns);
        first_due[index] = first_due[index].min(sample.due_s);
    }
    for (open, first) in opens.iter_mut().zip(first_due) {
        if first.is_finite() {
            *open = first;
        }
    }
    let (mut throughput, mut p50, mut p90, mut cpu_ms) = (vec![], vec![], vec![], vec![]);
    for ((latencies, cpu), open) in per_segment
        .iter_mut()
        .zip(outcome.cpu_marks.windows(2))
        .zip(opens.windows(2))
    {
        latencies.sort_unstable();
        throughput.push(latencies.len() as f64 / (open[1] - open[0]).max(1e-9));
        p50.push(stats::percentile(latencies, 0.50) as f64 / 1e3);
        p90.push(stats::percentile(latencies, 0.90) as f64 / 1e3);
        cpu_ms.push((cpu[1] - cpu[0]) * 1e3 / latencies.len().max(1) as f64);
    }
    let within_slo = outcome
        .samples
        .iter()
        .filter(|s| u128::from(s.latency_ns) <= workload.slo().as_nanos())
        .count();
    let mut table = Table::new();
    table.insert(
        "throughput_ops_s".into(),
        if workload == Workload::EngineOpenJson {
            outcome.correct() as f64 / outcome.span_s.max(1e-9)
        } else {
            stats::median(&throughput)
        },
    );
    table.insert("latency_p50_us".into(), stats::median(&p50));
    table.insert("latency_p90_us".into(), stats::median(&p90));
    table.insert(
        "slo_share".into(),
        within_slo as f64 / outcome.attempted.max(1) as f64,
    );
    table.insert("cpu_ms_per_op".into(), stats::median(&cpu_ms));
    table.insert(
        "peak_rss_mib".into(),
        sysinfo::peak_rss_mib().unwrap_or(0.0),
    );
    table.insert("setup_s".into(), stats::median(setups));
    table
}

fn quantile_us(outcome: &Outcome, q: f64) -> f64 {
    stats::percentile(&outcome.sorted_latencies(), q) as f64 / 1e3
}

fn outcome_details(workload: Workload, outcome: &Outcome) -> JsonValue {
    let mut details = JsonValue::object();
    details
        .set("workload", workload.name())
        .set("sent", outcome.attempted)
        .set("succeeded", outcome.correct())
        .set("failed", outcome.failed)
        .set(
            "error_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        )
        .set("latency_samples", outcome.samples.len())
        .set("latency_p99_us", quantile_us(outcome, 0.99))
        .set("window_s", outcome.window_s)
        .set("span_s", outcome.span_s)
        .set("slo_limit_ms", workload.slo().as_millis() as u64)
        .set("errors", outcome.errors.clone());
    details
}

/// Why a fault-free serving run must be re-run rather than read: it degraded,
/// retried, or its generator fell behind its own schedule, so it measured something
/// else. Returns `loadgen.late_p99_us` with the reasons (none for a valid run).
fn validity(stack: &Stack, log: &RunLog) -> (f64, Vec<String>) {
    let mut invalid = Vec::new();
    let mut late: Vec<u64> = log.ops.iter().map(|op| op.late_ns() / 1000).collect();
    let late_p99_us = stats::percentile_of(&mut late, 0.99) as f64;
    if stack.workload == Workload::EngineOpenJson && late_p99_us > LATE_LIMIT_US {
        invalid.push(format!(
            "loadgen.late_p99_us = {late_p99_us} > {LATE_LIMIT_US}"
        ));
    }
    let degraded = log
        .ops
        .iter()
        .filter(|op| op.outcome.as_ref().is_ok_and(|r| r.degraded))
        .count();
    if degraded > 0 {
        invalid.push(format!("{degraded} replies were brownout-degraded"));
    }
    let retries = stack
        .gateway
        .as_ref()
        .and_then(|g| g.metrics_json().get("retries")?.as_usize())
        .unwrap_or(0);
    if retries > 0 {
        invalid.push(format!("gateway.pool.retries = {retries}"));
    }
    (late_p99_us, invalid)
}

/// The untraced run behind the end-to-end metrics.
pub fn end_to_end(
    spec: &Spec,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let window = Duration::from_secs_f64(seconds);
    let (outcome, setups, (late_p99_us, mut invalid)) = if workload == Workload::HiresForward {
        let (mut stack, setups) =
            set_up_repeatedly(SETUP_REPEATS, || Ok(Hires::set_up(seed)), drop)?;
        (stack.run(seed, window), setups, (0.0, Vec::new()))
    } else {
        let pool = inputs::pool(seed, inputs::vit196_config().image_size);
        let traffic = Traffic::new(workload, seed, &pool, false);
        let (stack, setups) = set_up_repeatedly(
            SETUP_REPEATS,
            || Stack::set_up(workload, &traffic),
            Stack::shut_down,
        )?;
        let checker = Checker::new(&stack.models, seed, &pool, workload.variants());
        let (outcome, log) = stack.run(&traffic, &checker, window);
        let validity = validity(&stack, &log);
        stack.shut_down();
        (outcome, setups, validity)
    };
    if outcome.attempted == 0 {
        invalid.push("no op was attempted".into());
    }
    let table = end_to_end_table(workload, &outcome, &setups);
    let mut details = outcome_details(workload, &outcome);
    details
        .set("late_p99_us", late_p99_us)
        .set("setup_samples", setups.len())
        .set("setups_s", setups)
        .set("valid", invalid.is_empty())
        .set("invalid_because", invalid);
    Ok(Report {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: declared(&spec.end_to_end, &table)?,
        details,
    })
}

/// Where a traced run leaves its chrome-trace file.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(format!("benchmark/results/trace-{}.json", workload.name()))
}

/// The traced run behind the per-layer metrics: a short untraced window for the
/// traced-over-untraced ratio, the traced window, one scrape of what the program
/// reports about itself, then the layer microbenchmarks.
pub fn per_layer(
    spec: &Spec,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let untraced_window = Duration::from_secs_f64(seconds * 0.15);
    let traced_window = Duration::from_secs_f64(seconds * 0.35);
    let layer_budget = Duration::from_secs_f64(seconds * 0.45);
    let mut table = Table::new();
    let (outcome, models) = if workload == Workload::HiresForward {
        let mut stack = Hires::set_up(seed);
        let first = stack.run(seed, untraced_window);
        let second = stack.run(seed, traced_window);
        for name in TRAFFIC_METRICS {
            table.insert((*name).to_string(), 0.0);
        }
        // Nothing is traced offline; the ratio of the two windows shows their spread.
        table.insert(
            "loadgen.traced_over_untraced_p50".into(),
            quantile_us(&second, 0.5) / quantile_us(&first, 0.5).max(1e-9),
        );
        table.insert("loadgen.latency_p99_us".into(), quantile_us(&second, 0.99));
        (second, Vit196::build())
    } else {
        let pool = inputs::pool(seed, inputs::vit196_config().image_size);
        let untraced = Traffic::new(workload, seed, &pool, false);
        let stack = Stack::set_up(workload, &untraced)?;
        let checker = Checker::new(&stack.models, seed, &pool, workload.variants());
        let (first, _) = stack.run(&untraced, &checker, untraced_window);
        let untraced_p50_us = quantile_us(&first, 0.5);
        // The traced window draws from the next seed so its cold images are new to
        // the gateway's cache.
        let traced_seed = seed.wrapping_add(1);
        let traced_traffic = Traffic::new(workload, traced_seed, &pool, true);
        let traced_checker = Checker::new(&stack.models, traced_seed, &pool, workload.variants());
        let (mut outcome, log) = stack.run(&traced_traffic, &traced_checker, traced_window);
        table.extend(traced::analyse(&stack, &log, untraced_p50_us)?);
        traced::write_chrome_trace(&trace_path(workload), &log)?;
        outcome.attempted += first.attempted;
        outcome.failed += first.failed;
        outcome.errors.extend(first.errors);
        let models = stack.models.clone();
        stack.shut_down();
        (outcome, models)
    };
    table.extend(layers::run(layer_budget, &models)?);
    let mut details = outcome_details(workload, &outcome);
    if workload != Workload::HiresForward {
        details.set("trace_file", trace_path(workload).display().to_string());
    }
    Ok(Report {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: declared(&spec.per_layer, &table)?,
        details,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Sample;

    /// 100 ops/s for 5 s: latencies 1.00–1.99 ms in every segment, except that the
    /// host stalls through the third one (10× latencies, a fifth of the ops).
    fn disturbed_window() -> Outcome {
        let mut samples = Vec::new();
        for segment in 0..5u64 {
            let (ops, scale) = if segment == 2 { (20, 10) } else { (100, 1) };
            for k in 0..ops {
                samples.push(Sample {
                    due_s: segment as f64 + k as f64 / ops as f64,
                    latency_ns: (1_000_000 + (k * 100 / ops) * 10_000) * scale,
                });
            }
        }
        Outcome {
            attempted: samples.len() + 5,
            failed: 5,
            samples,
            window_s: 5.0,
            span_s: 5.002,
            cpu_marks: vec![10.0, 10.2, 10.4, 10.6, 10.8, 11.0],
            errors: Vec::new(),
        }
    }

    #[test]
    fn the_median_segment_ignores_a_short_disturbance_but_slo_share_counts_it() {
        let table = end_to_end_table(
            Workload::EngineSatBinary,
            &disturbed_window(),
            &[0.3, 0.1, 0.2],
        );
        assert!((table["throughput_ops_s"] - 100.0).abs() < 0.5, "{table:?}");
        assert_eq!(table["latency_p50_us"], 1490.0);
        assert_eq!(table["latency_p90_us"], 1890.0);
        assert!((table["cpu_ms_per_op"] - 2.0).abs() < 1e-9);
        assert_eq!(table["setup_s"], 0.2);
        // 420 correct ops, all within the 100 ms limit, of 425 sent.
        assert!((table["slo_share"] - 420.0 / 425.0).abs() < 1e-12);
        // The open loop's rate is the schedule's: whole-window count over the span.
        let open = end_to_end_table(Workload::EngineOpenJson, &disturbed_window(), &[0.1]);
        assert!((open["throughput_ops_s"] - 420.0 / 5.002).abs() < 1e-9);
    }

    #[test]
    fn few_slow_ops_per_segment_do_not_quantise_throughput() {
        // Sequential 130 ms ops for 20 s: 30 or 31 fall in each 4 s segment, yet every
        // segment reports 1 / 0.13 s because its ops are counted against the time they
        // actually occupied.
        let samples: Vec<Sample> = (0..153)
            .map(|k| Sample {
                due_s: k as f64 * 0.13,
                latency_ns: 130_000_000,
            })
            .collect();
        let outcome = Outcome {
            attempted: samples.len(),
            span_s: 153.0 * 0.13,
            samples,
            window_s: 20.0,
            cpu_marks: vec![0.0, 4.0, 8.0, 12.0, 16.0, 20.0],
            ..Outcome::default()
        };
        let table = end_to_end_table(Workload::HiresForward, &outcome, &[0.25]);
        assert!(
            (table["throughput_ops_s"] - 1.0 / 0.13).abs() < 1e-6,
            "{table:?}"
        );
        assert_eq!(table["slo_share"], 1.0);
    }

    #[test]
    fn undeclared_or_unmeasured_metrics_are_refused() {
        let spec = |name: &str| MetricSpec {
            name: name.into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: None,
        };
        let mut measured = Table::new();
        measured.insert("a".into(), 1.5);
        assert_eq!(
            declared(&[spec("a")], &measured).unwrap(),
            [("a".to_string(), "us".to_string(), 1.5)]
        );
        assert!(declared(&[spec("a"), spec("b")], &measured)
            .unwrap_err()
            .contains("b was not measured"));
    }
}
