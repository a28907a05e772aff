//! What a traced window yields: the load generator's own spans (encode / write /
//! wait / decode, sharing the request id with the server spans that came back in-band
//! under `"trace": true`), stage medians per span name, what `/metrics` and `/healthz`
//! report, and a chrome-trace file. Spans stay in memory until the window has closed.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::json::JsonValue;
use trace::{CompletedTrace, Span};

use crate::layers::Table;
use crate::loadgen::{Op, RunLog};
use crate::stats;
use crate::wire;
use crate::workloads::{Stack, Workload};

/// Ops written to the chrome-trace file (the first ones of the window).
const TRACE_FILE_OPS: usize = 400;

/// Index of the generator's `wait` span, under which server spans are grafted.
const WAIT_SPAN: u32 = 2;

fn us_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// One op as a span tree: the generator's four spans as roots, the server's in-band
/// spans grafted under `wait` (their origin aligned with the end of the write).
fn op_trace(op: &Op) -> CompletedTrace {
    let origin = op.encode_start;
    let root = |name: &'static str, from: Instant, to: Instant| Span {
        name: name.into(),
        detail: String::new(),
        start_us: us_between(origin, from),
        dur_us: us_between(from, to),
        parent: None,
    };
    let mut spans = vec![
        root("loadgen.encode", op.encode_start, op.encode_end),
        root("loadgen.write", op.write_start, op.write_end),
        root("loadgen.wait", op.write_end, op.read_done),
        root("loadgen.decode", op.read_done, op.decode_end),
    ];
    let local = spans.len() as u32;
    let base_us = spans[WAIT_SPAN as usize].start_us;
    if let Ok(reply) = &op.outcome {
        for span in reply.spans.iter().flatten() {
            spans.push(Span {
                name: span.name.clone(),
                detail: span.detail.clone(),
                start_us: base_us + span.start_us,
                dur_us: span.dur_us,
                parent: Some(span.parent.map_or(WAIT_SPAN, |p| local + p)),
            });
        }
    }
    CompletedTrace {
        id: format!("{:016x}", op.id),
        status: if op.outcome.is_ok() { 200 } else { 599 },
        total_us: us_between(origin, op.decode_end),
        finished: op.decode_end,
        spans,
    }
}

/// Writes the window's first ops as a `chrome://tracing` / Perfetto file.
pub fn write_chrome_trace(path: &Path, log: &RunLog) -> Result<(), String> {
    let traces: Vec<CompletedTrace> = log.ops.iter().take(TRACE_FILE_OPS).map(op_trace).collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, trace::chrome_trace_json(&traces).to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn number(json: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(json, |node, key| node.get(key))
        .and_then(JsonValue::as_f64)
}

/// `Σ mean·count / Σ count` over `(mean, count)` pairs; 0 when nothing was counted.
fn pooled_mean(parts: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, count) = parts.fold((0.0, 0.0), |(s, c), (mean, n)| (s + mean * n, c + n));
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// One stage histogram of every variant of every engine, pooled.
fn engine_stage_mean(engine_metrics: &[JsonValue], stage: &str) -> f64 {
    pooled_mean(engine_metrics.iter().flat_map(|metrics| {
        metrics
            .get("variants")
            .and_then(JsonValue::as_object)
            .into_iter()
            .flatten()
            .filter_map(move |(_, variant)| {
                let block = variant.get("stages")?.get(stage)?;
                Some((
                    block.get("mean_us")?.as_f64()?,
                    block.get("count")?.as_f64()?,
                ))
            })
    }))
}

/// The serving-side per-layer numbers of one traced window.
///
/// `untraced_p50_us` is the client p50 of the short untraced window run just before,
/// on the same stack.
pub fn analyse(stack: &Stack, log: &RunLog, untraced_p50_us: f64) -> Result<Table, String> {
    let clustered = stack.workload == Workload::ClusterMixed;
    let mut engine_stage: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut gateway_stage: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut spans_of = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let (mut latencies, mut late) = (Vec::new(), Vec::new());
    let (mut hit_latency, mut miss_latency, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue_us, mut batch_size) = (Vec::new(), Vec::new());
    for op in &log.ops {
        let Ok(reply) = &op.outcome else { continue };
        let latency_us = op.latency_ns() / 1000;
        latencies.push(latency_us);
        late.push(op.late_ns() / 1000);
        for (slot, (from, to)) in spans_of.iter_mut().zip([
            (op.encode_start, op.encode_end),
            (op.write_start, op.write_end),
            (op.write_end, op.read_done),
            (op.read_done, op.decode_end),
        ]) {
            slot.push(us_between(from, to));
        }
        if reply.cached {
            hit_latency.push(latency_us);
        } else {
            miss_latency.push(latency_us);
            // A cached reply repeats the numbers of the request that filled the cache.
            queue_us.push(reply.infer.queue_us);
            batch_size.push(reply.infer.batch_size as u64);
        }
        for span in reply.spans.iter().flatten() {
            // Through the gateway, its own spans are roots and the engine's hang
            // under `backend_attempt`; straight from an engine every span is its own.
            let table = if clustered && span.parent.is_none() {
                &mut gateway_stage
            } else {
                &mut engine_stage
            };
            table
                .entry(span.name.to_string())
                .or_default()
                .push(span.dur_us);
            if clustered && span.parent.is_none() && span.name == "backend_attempt" {
                overhead.push(latency_us.saturating_sub(span.dur_us));
            }
        }
    }
    if latencies.is_empty() {
        return Err("the traced window answered nothing".into());
    }
    latencies.sort_unstable();
    late.sort_unstable();
    let traced_p50_us = stats::percentile(&latencies, 0.50) as f64;

    let mut table = Table::new();
    let stage_median = |stages: &BTreeMap<String, Vec<u64>>, name: &str| -> f64 {
        stages
            .get(name)
            .map_or(0.0, |durations| stats::median_u64(durations))
    };
    let mut explained = 0.0;
    for name in ["parse", "queue_wait", "batch_assembly", "compute"] {
        let us = stage_median(&engine_stage, name);
        explained += us;
        table.insert(format!("serve.server.stage_us.{name}"), us);
    }
    for name in [
        "parse",
        "admission",
        "cache_probe",
        "pick",
        "backend_attempt",
    ] {
        table.insert(
            format!("gateway.server.stage_us.{name}"),
            stage_median(&gateway_stage, name),
        );
    }

    // What the program itself reports, scraped once now that the window has closed.
    let engine_metrics = stack
        .engines
        .iter()
        .map(|engine| wire::get_json(engine.local_addr(), "/metrics"))
        .collect::<Result<Vec<_>, _>>()?;
    let engine_health = stack
        .engines
        .iter()
        .map(|engine| wire::get_json(engine.local_addr(), "/healthz"))
        .collect::<Result<Vec<_>, _>>()?;
    let write_us = engine_stage_mean(&engine_metrics, "write");
    explained += write_us;
    table.insert("serve.server.stage_us.write".into(), write_us);
    table.insert(
        "serve.worker.compute_us_mean".into(),
        engine_stage_mean(&engine_metrics, "compute"),
    );
    table.insert(
        "serve.batcher.shed".into(),
        engine_metrics
            .iter()
            .filter_map(|m| number(m, &["shed"]))
            .sum(),
    );
    // Absent (non-epoll host, threaded front) reads as 0.
    let loop_mean = |field: &str| -> f64 {
        let values: Vec<f64> = engine_health
            .iter()
            .filter_map(|h| number(h, &["event_loop", field]))
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    table.insert(
        "serve.event_loop.saturation".into(),
        loop_mean("saturation"),
    );
    table.insert(
        "serve.event_loop.ready_per_wake".into(),
        loop_mean("events_per_wake"),
    );
    table.insert(
        "serve.batcher.queue_wait_us_mean".into(),
        queue_us.iter().sum::<u64>() as f64 / queue_us.len().max(1) as f64,
    );
    table.insert(
        "serve.batcher.batch_size_mean".into(),
        batch_size.iter().sum::<u64>() as f64 / batch_size.len().max(1) as f64,
    );
    // What the engine's client saw (the gateway's attempt span, or the generator
    // itself) minus what the engine's own stages explain.
    let engine_client_us = if clustered {
        stage_median(&gateway_stage, "backend_attempt")
    } else {
        traced_p50_us
    };
    table.insert(
        "serve.server.unattributed_us".into(),
        engine_client_us - explained,
    );

    let mut gateway_numbers = [0.0; 4];
    if let Some(gateway) = &stack.gateway {
        let metrics = wire::get_json(gateway.local_addr(), "/metrics")?;
        for (slot, path) in gateway_numbers.iter_mut().zip([
            &["stages", "write", "mean_us"][..],
            &["retries"],
            &["failovers"],
            &["degraded"],
        ]) {
            *slot = number(&metrics, path).unwrap_or(0.0);
        }
    }
    let [gateway_write, retries, failovers, degraded] = gateway_numbers;
    table.insert("gateway.server.stage_us.write".into(), gateway_write);
    table.insert("gateway.pool.retries".into(), retries);
    table.insert("gateway.pool.failovers".into(), failovers);
    table.insert("gateway.brownout.degraded".into(), degraded);
    table.insert(
        "gateway.cache.hit_share".into(),
        hit_latency.len() as f64 / latencies.len() as f64,
    );
    table.insert(
        "gateway.server.hit_p50_us".into(),
        stats::median_u64(&hit_latency),
    );
    table.insert(
        "gateway.server.miss_p50_us".into(),
        if clustered {
            stats::median_u64(&miss_latency)
        } else {
            0.0
        },
    );
    table.insert(
        "gateway.server.overhead_us".into(),
        stats::median_u64(&overhead),
    );

    for (name, durations) in ["encode", "write", "wait", "decode"].iter().zip(&spans_of) {
        table.insert(format!("loadgen.{name}_us"), stats::median_u64(durations));
    }
    table.insert(
        "loadgen.late_p99_us".into(),
        stats::percentile(&late, 0.99) as f64,
    );
    table.insert(
        "loadgen.latency_p99_us".into(),
        stats::percentile(&latencies, 0.99) as f64,
    );
    table.insert(
        "loadgen.traced_over_untraced_p50".into(),
        traced_p50_us / untraced_p50_us.max(1e-9),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::ImageRef;
    use crate::wire::Reply;
    use std::time::Duration;
    use vitality_serve::InferReply;

    #[test]
    fn server_spans_are_grafted_under_the_generators_wait_span() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let op = Op {
            id: 0xabc,
            image: ImageRef::Pool(0),
            due: at(0),
            encode_start: at(0),
            encode_end: at(100),
            write_start: at(100),
            write_end: at(130),
            read_done: at(2130),
            decode_end: at(2150),
            outcome: Ok(Reply {
                infer: InferReply {
                    model: "vit196:taylor".into(),
                    prediction: 0,
                    logits: vec![],
                    batch_size: 1,
                    queue_us: 0,
                },
                cached: false,
                degraded: false,
                spans: Some(vec![
                    Span {
                        name: "backend_attempt".into(),
                        detail: String::new(),
                        start_us: 10,
                        dur_us: 1900,
                        parent: None,
                    },
                    Span {
                        name: "compute".into(),
                        detail: "taylor".into(),
                        start_us: 50,
                        dur_us: 1500,
                        parent: Some(0),
                    },
                ]),
            }),
        };
        let tree = op_trace(&op);
        assert_eq!(tree.id, "0000000000000abc");
        assert_eq!(tree.total_us, 2150);
        let names: Vec<&str> = tree.spans.iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            names,
            [
                "loadgen.encode",
                "loadgen.write",
                "loadgen.wait",
                "loadgen.decode",
                "backend_attempt",
                "compute"
            ]
        );
        assert_eq!((tree.spans[2].start_us, tree.spans[2].dur_us), (130, 2000));
        // The server's root hangs under `wait`, rebased onto the generator's clock;
        // its child keeps pointing at it.
        assert_eq!(tree.spans[4].parent, Some(WAIT_SPAN));
        assert_eq!(tree.spans[4].start_us, 140);
        assert_eq!(tree.spans[5].parent, Some(4));
        assert_eq!(tree.spans[5].start_us, 180);
    }

    #[test]
    fn stage_means_pool_over_variants_and_engines() {
        let engine = |mean: f64, count: u64| {
            let mut block = JsonValue::object();
            block.set("mean_us", mean).set("count", count);
            let mut stages = JsonValue::object();
            stages.set("compute", block);
            let mut variant = JsonValue::object();
            variant.set("stages", stages);
            let mut variants = JsonValue::object();
            variants.set("taylor", variant);
            let mut root = JsonValue::object();
            root.set("variants", variants).set("shed", 0u64);
            root
        };
        let pooled = engine_stage_mean(&[engine(100.0, 3), engine(200.0, 1)], "compute");
        assert!((pooled - 125.0).abs() < 1e-9);
        assert_eq!(engine_stage_mean(&[engine(100.0, 3)], "write"), 0.0);
        assert_eq!(number(&engine(1.0, 1), &["shed"]), Some(0.0));
    }
}
