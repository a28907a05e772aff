//! `suite`: N untraced runs and one traced run of every workload, one process per run,
//! reduced to medians and quartiles and written as one results file that `compare`
//! reads.

use std::process::Command;

use serde::json::JsonValue;

use crate::spec::Spec;
use crate::stats;
use crate::sysinfo;
use crate::Args;

/// One child run's parsed output.
struct ChildRun {
    result: JsonValue,
    details: JsonValue,
}

fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|line| serde::json::parse(line).ok())
        .ok_or_else(|| {
            format!(
                "run of {workload} (seed {seed}) printed no result: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
    let details = lines
        .find_map(|line| line.strip_prefix("details: "))
        .and_then(|json| serde::json::parse(json).ok())
        .unwrap_or_else(JsonValue::object);
    Ok(ChildRun { result, details })
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::load()?;
    let runs: usize = args.number("runs", 5)?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec.run_seconds)?;
    let out = args.get("out").unwrap_or("benchmark/results/latest.json");
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    // `--workloads a,b` restricts the set (e.g. for the failpoint sensitivity check).
    let selected: Vec<&String> = match args.get("workloads") {
        None => spec.workloads.iter().collect(),
        Some(list) => {
            let wanted: Vec<&str> = list.split(',').collect();
            if let Some(unknown) = wanted
                .iter()
                .find(|w| !spec.workloads.iter().any(|k| k == *w))
            {
                return Err(format!("unknown workload {unknown:?}"));
            }
            spec.workloads
                .iter()
                .filter(|w| wanted.contains(&w.as_str()))
                .collect()
        }
    };

    let mut all_correct = true;
    let mut workloads = JsonValue::object();
    for workload in selected {
        // An invalid run (the generator fell behind, a brownout or retry on a
        // fault-free stack) is re-run, not read; a wrong answer is never re-run.
        let mut kept: Vec<ChildRun> = Vec::new();
        let mut rerun = 0usize;
        let mut next_seed = seed;
        while kept.len() < runs {
            let child = child_run(workload, next_seed, seconds, false)?;
            next_seed += 1;
            let valid = child
                .details
                .get("valid")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true);
            if !valid && rerun < runs {
                rerun += 1;
                eprintln!(
                    "{workload}: run invalid ({}), re-running",
                    child
                        .details
                        .get("invalid_because")
                        .map_or_else(String::new, JsonValue::to_json)
                );
                continue;
            }
            all_correct &= child.result.get("correct").and_then(JsonValue::as_bool) == Some(true);
            kept.push(child);
        }

        let mut end_to_end = JsonValue::object();
        println!("== {workload}: {runs} runs of {seconds} s, seeds {seed}.. ==");
        for metric in &spec.end_to_end {
            let values: Vec<f64> = kept
                .iter()
                .filter_map(|run| metric_value(&run.result, &metric.name))
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            let median = stats::median(&values);
            println!(
                "{:<20} median {:>12.4} {:<6} q1 {:>12.4} q3 {:>12.4} spread {:>5.1}% (n = {})",
                metric.name,
                median,
                metric.unit,
                q1,
                q3,
                stats::spread(&values) * 100.0,
                values.len()
            );
            let mut entry = JsonValue::object();
            entry
                .set("unit", metric.unit.as_str())
                .set("median", median)
                .set("q1", q1)
                .set("q3", q3)
                .set("values", values);
            end_to_end.set(&metric.name, entry);
        }

        let traced = child_run(workload, seed, seconds, true)?;
        all_correct &= traced.result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        let mut per_layer = JsonValue::object();
        for metric in &spec.per_layer {
            if let Some(value) = metric_value(&traced.result, &metric.name) {
                println!("{:<48} {:>14.4} {}", metric.name, value, metric.unit);
                let mut entry = JsonValue::object();
                entry.set("unit", metric.unit.as_str()).set("value", value);
                per_layer.set(&metric.name, entry);
            }
        }

        let mut block = JsonValue::object();
        block
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer)
            .set("invalid_runs_rerun", rerun)
            .set(
                "runs",
                kept.iter()
                    .map(|run| run.details.clone())
                    .collect::<Vec<_>>(),
            )
            .set("traced_run", traced.details);
        workloads.set(workload, block);
    }

    let mut root = JsonValue::object();
    root.set("env", sysinfo::env_block(seed, seconds))
        .set("runs", runs)
        .set("correct", all_correct)
        .set("workloads", workloads);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, root.to_json_pretty()).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(all_correct)
}
