//! One benchmark for the whole ViTALiTy stack. See `README.md` beside this package.
//!
//! ```text
//! vitality-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vitality-benchmark suite [--runs <n>] [--seed <n>] [--seconds <s>] [--out <file>]
//! vitality-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run: it prints every metric by name with its unit, and as
//! the last line of standard output one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero when an op failed or answered wrongly.

mod compare;
mod inputs;
mod layers;
mod loadgen;
mod run;
mod spec;
mod stats;
mod suite;
mod sysinfo;
mod traced;
mod verify;
mod wire;
mod workloads;

use std::process::ExitCode;

use spec::Spec;
use workloads::Workload;

/// `--name value` pairs after the optional subcommand.
pub struct Args {
    pairs: Vec<(String, String)>,
    pub positional: Vec<String>,
}

impl Args {
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { pairs, positional })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot read {raw:?}")),
        }
    }
}

fn single_run(args: &Args) -> Result<bool, String> {
    let spec = Spec::load()?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of: {})",
            spec.workloads.join(", ")
        )
    })?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", 30.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let report = match args.get("trace").unwrap_or("0") {
        "0" => run::end_to_end(&spec, workload, seed, seconds)?,
        "1" => run::per_layer(&spec, workload, seed, seconds)?,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    for (name, unit, value) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("details: {}", report.details.to_json());
    println!("{}", report.result_json().to_json());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some("suite") => ("suite", &raw[1..]),
        Some("compare") => ("compare", &raw[1..]),
        _ => ("run", &raw[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "suite" => suite::run(&args),
        "compare" => compare::run(&args),
        _ => single_run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("vitality-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
