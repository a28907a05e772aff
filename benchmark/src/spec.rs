//! `BENCHMARK.json` at the repository root is the one declaration of the workloads,
//! the metrics (name, unit, direction) and the regression bounds; this module reads it
//! so the program never restates them.

use std::path::PathBuf;

use serde::json::JsonValue;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric(value: &JsonValue) -> Result<MetricSpec, String> {
    let text = |key: &str| -> Result<&str, String> {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("metric without \"{key}\""))
    };
    Ok(MetricSpec {
        name: text("name")?.to_string(),
        unit: text("unit")?.to_string(),
        higher_is_better: match text("better")? {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("\"better\" must be higher or lower, not {other}")),
        },
        bound: value.get("bound").and_then(JsonValue::as_f64),
    })
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = serde::json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[JsonValue], String> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no \"{key}\" list"))
        };
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json has no \"run_seconds\"")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| "workload without a name".to_string())
                })
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Loads `BENCHMARK.json` from the working directory (where the one command is
    /// run from) or, failing that, from beside this package's directory.
    pub fn load() -> Result<Spec, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ];
        for path in &candidates {
            if let Ok(text) = std::fs::read_to_string(path) {
                return Spec::parse(&text);
            }
        }
        Err("BENCHMARK.json not found in the working directory or beside benchmark/".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn the_committed_spec_names_what_the_program_runs() {
        let spec = Spec::load().expect("BENCHMARK.json is committed at the repository root");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn malformed_specs_are_refused() {
        assert!(Spec::parse("{}").is_err());
        let bad = r#"{"run_seconds": 5, "workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#;
        assert!(Spec::parse(bad).unwrap_err().contains("sideways"));
    }
}
