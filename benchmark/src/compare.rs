//! `compare <a.json> <b.json>`: applies the bounds in `BENCHMARK.json` to two results
//! files (`a` the baseline, `b` the candidate), one row per (workload, end-to-end
//! metric), and exits non-zero on a regression.

use serde::json::JsonValue;

use crate::spec::{MetricSpec, Spec};
use crate::stats;
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is within the bound of the baseline's.
    Ok,
    /// Run-to-run spread exceeds the bound, so the medians cannot settle it.
    Unresolved,
    /// The candidate's median is worse than the baseline's by more than the bound.
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// How much worse the candidate's median is, as a share of the baseline's
/// (negative when it is better).
pub fn worse_by(metric: &MetricSpec, baseline: &[f64], candidate: &[f64]) -> f64 {
    let (a, b) = (stats::median(baseline), stats::median(candidate));
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

/// Applies one metric's bound to the two sets of runs.
///
/// When either set's spread (quartile distance over median) exceeds the bound the
/// medians are not trusted: the row is a regression only if every candidate run is
/// worse than every baseline run, fine only if every one is better, and otherwise
/// unresolved.
pub fn judge(metric: &MetricSpec, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let worse = worse_by(metric, baseline, candidate) > bound;
    if stats::spread(baseline).max(stats::spread(candidate)) <= bound {
        return if worse {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
    }
    let better = |x: f64, than: f64| {
        if metric.higher_is_better {
            x > than
        } else {
            x < than
        }
    };
    let every = |pred: &dyn Fn(f64, f64) -> bool| {
        candidate
            .iter()
            .all(|&b| baseline.iter().all(|&a| pred(b, a)))
    };
    if every(&|b, a| better(b, a)) {
        Verdict::Ok
    } else if worse && every(&|b, a| better(a, b)) {
        Verdict::Regression
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(results: &JsonValue, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(JsonValue::as_f64)
        .collect()
}

pub fn run(args: &Args) -> Result<bool, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let spec = Spec::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["cpu_model", "nproc", "matmul_backend", "rustc"] {
        let field = |r: &JsonValue| {
            r.get("env")
                .and_then(|e| e.get(key))
                .map(JsonValue::to_json)
        };
        if field(&a) != field(&b) {
            println!(
                "note: env.{key} differs ({} vs {})",
                field(&a).unwrap_or_default(),
                field(&b).unwrap_or_default()
            );
        }
    }
    println!(
        "{:<18} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "worse", "bound"
    );
    let (mut regressions, mut rows) = (0usize, 0usize);
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            // A set restricted with `suite --workloads` compares on what both hold.
            let (Some(base), Some(cand)) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            ) else {
                continue;
            };
            rows += 1;
            let verdict = judge(metric, &base, &cand);
            regressions += usize::from(verdict == Verdict::Regression);
            let (a_q1, a_q3) = stats::quartiles(&base);
            let (b_q1, b_q3) = stats::quartiles(&cand);
            println!(
                "{:<18} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>7.1}% {:>5.0}%  {}",
                workload,
                metric.name,
                stats::median(&base),
                format!("[{a_q1:.4}, {a_q3:.4}]"),
                stats::median(&cand),
                format!("[{b_q1:.4}, {b_q3:.4}]"),
                worse_by(metric, &base, &cand) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two files have no (workload, metric) pair in common".into());
    }
    println!("{regressions} regression(s) in {rows} rows");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let latency = metric(false, 0.10);
        let base = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert_eq!(
            judge(&latency, &base, &[105.0, 106.0, 104.0, 105.5, 105.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&latency, &base, &[115.0, 116.0, 114.0, 115.5, 115.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&latency, &base, &[80.0, 81.0, 79.0, 80.5, 80.0]),
            Verdict::Ok
        );
        let throughput = metric(true, 0.05);
        assert_eq!(
            judge(&throughput, &base, &[90.0, 91.0, 89.0, 90.5, 90.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&throughput, &base, &[97.0, 98.0, 96.0, 97.5, 97.0]),
            Verdict::Ok
        );
        assert!((worse_by(&throughput, &base, &[90.0]) - 0.10).abs() < 1e-9);
    }

    #[test]
    fn wide_runs_are_unresolved_unless_the_sets_do_not_overlap() {
        let latency = metric(false, 0.05);
        let noisy = [100.0, 130.0, 90.0, 120.0, 105.0];
        // Overlapping noisy sets: the medians differ by more than the bound, but the
        // spread is wider than the bound, so nothing is concluded.
        assert_eq!(
            judge(&latency, &noisy, &[115.0, 140.0, 95.0, 125.0, 118.0]),
            Verdict::Unresolved
        );
        // Every candidate run better than every baseline run: fine despite the noise.
        assert_eq!(
            judge(&latency, &noisy, &[60.0, 80.0, 70.0, 85.0, 75.0]),
            Verdict::Ok
        );
        // Every candidate run worse than every baseline run: a regression.
        assert_eq!(
            judge(&latency, &noisy, &[200.0, 260.0, 180.0, 240.0, 210.0]),
            Verdict::Regression
        );
    }
}
