//! Shared metrics registry + Prometheus text exposition encoder.
//!
//! Both the engine (`serve::metrics`) and the gateway (`gateway::metrics`) keep
//! their hot-path counters in bespoke lock-free structs and render JSON snapshots;
//! this module is the *second* renderer those snapshots flow through: a scrape
//! handler builds a [`MetricsRegistry`], registers every counter, gauge and
//! histogram into it, and [`MetricsRegistry::encode`] emits valid Prometheus text
//! exposition format 0.0.4 (`# HELP`/`# TYPE` lines, escaped label values,
//! cumulative histogram buckets ending in `+Inf`, `_sum`/`_count` series) for
//! `GET /metrics?format=prometheus`. The JSON shape is untouched — the registry
//! is built per scrape from the same atomics the JSON snapshot reads.
//!
//! [`validate_exposition`] is the matching conformance checker, shared by the
//! format unit tests, the live engine/gateway scrape tests and the CI step.
//!
//! # Worked example: adding a metric
//!
//! Suppose a new subsystem wants to export a work counter for its hot loop. Three
//! steps:
//!
//! 1. **Count the work** with an atomic — one relaxed add, no lock, no
//!    allocation on the hot path:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! static ITEMS: AtomicU64 = AtomicU64::new(0);
//!
//! fn hot_loop(work: &[u64]) -> u64 {
//!     ITEMS.fetch_add(work.len() as u64, Ordering::Relaxed);
//!     work.iter().sum()
//! }
//! # assert_eq!(hot_loop(&[1, 2, 3]), 6);
//! ```
//!
//! 2. **Register it** in the scrape handler, reading the atomic at scrape time:
//!
//! ```
//! use vitality_serve::exposition::MetricsRegistry;
//! # static ITEMS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter(
//!     "vitality_hot_items_total",
//!     "Items processed by the hot loop",
//!     &[("subsystem", "example")],
//!     ITEMS.load(std::sync::atomic::Ordering::Relaxed) as f64,
//! );
//! let text = reg.encode();
//! vitality_serve::exposition::validate_exposition(&text).expect("conformant");
//! ```
//!
//! 3. **Keep JSON in sync** by adding the same numbers to the handler's
//!    `snapshot_json` — the two renderings must come from the same atomics, so a
//!    scrape and a JSON poll never disagree about what the process did.

use crate::metrics::LatencyHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric family is, as spelled in its `# TYPE` line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value that can go up or down.
    Gauge,
    /// Cumulative-bucket distribution with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample: a rendered label set (already escaped, no `{}`) plus a value line.
struct Sample {
    labels: String,
    value: f64,
}

/// One metric family: a name, help text, kind, and its samples.
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// A per-scrape registry the JSON-native metric structs register into, encoded as
/// Prometheus text exposition format 0.0.4. See the module docs for the worked
/// example; construction is cheap (it lives for one scrape).
#[derive(Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
    index: BTreeMap<String, usize>,
}

/// Escape a label value per the exposition format: backslash, newline, and
/// double-quote.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            _ => out.push(c),
        }
    }
    out
}

/// Escape help text per the exposition format: backslash and newline.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a label set as `{k="v",...}` (empty string for no labels).
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Render a sample value: integers without a fraction, non-finite as Prometheus
/// spells them (`+Inf`/`-Inf`/`NaN`).
fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        let idx = *self.index.entry(name.to_string()).or_insert_with(|| {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: Vec::new(),
            });
            self.families.len() - 1
        });
        let family = &mut self.families[idx];
        debug_assert!(
            family.kind == kind,
            "metric family {name} re-registered with a different kind"
        );
        family
    }

    /// Register one counter sample. Re-registering the same name appends a sample
    /// to the existing family (one `# TYPE` line, many label sets).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let labels = render_labels(labels);
        self.family(name, help, MetricKind::Counter)
            .samples
            .push(Sample { labels, value });
    }

    /// Register one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let labels = render_labels(labels);
        self.family(name, help, MetricKind::Gauge)
            .samples
            .push(Sample { labels, value });
    }

    /// Register a [`LatencyHistogram`] as a Prometheus histogram in microseconds:
    /// cumulative `_bucket` series over the geometric `2^i µs` bounds ending in
    /// `+Inf` (the histogram's overflow bucket), plus `_sum` and `_count`. The
    /// `_count` is derived from the bucket counts themselves, so the invariant
    /// `_count == +Inf bucket` holds even while other threads are recording.
    pub fn histogram_us(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &LatencyHistogram,
    ) {
        let counts = hist.bucket_counts();
        let sum_us = hist.sum_us();
        let family = self.family(name, help, MetricKind::Histogram);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            let le = if i + 1 == counts.len() {
                "+Inf".to_string()
            } else {
                format!("{}", 1u64 << i)
            };
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            family.samples.push(Sample {
                labels: render_labels(&with_le),
                value: cumulative as f64,
            });
        }
        let rendered = render_labels(labels);
        // `_sum`/`_count` ride the same family so the encoder emits them under the
        // single `# TYPE` line; the name suffixes are added at encode time via the
        // sample's pre-rendered suffix marker below.
        family.samples.push(Sample {
            labels: format!("\u{0}sum{rendered}"),
            value: sum_us as f64,
        });
        family.samples.push(Sample {
            labels: format!("\u{0}count{rendered}"),
            value: cumulative as f64,
        });
    }

    /// Encode everything registered so far as exposition text. Histogram `_bucket`
    /// samples get the `_bucket` suffix; the `\0sum`/`\0count` markers become
    /// `_sum`/`_count`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.label());
            for sample in &family.samples {
                let value = render_value(sample.value);
                if let Some(rest) = sample.labels.strip_prefix('\u{0}') {
                    let (suffix, labels) = if let Some(l) = rest.strip_prefix("sum") {
                        ("_sum", l)
                    } else {
                        ("_count", rest.strip_prefix("count").unwrap_or(rest))
                    };
                    let _ = writeln!(out, "{}{suffix}{labels} {value}", family.name);
                } else if family.kind == MetricKind::Histogram {
                    let _ = writeln!(out, "{}_bucket{} {value}", family.name, sample.labels);
                } else {
                    let _ = writeln!(out, "{}{} {value}", family.name, sample.labels);
                }
            }
        }
        out
    }
}

/// A parsed sample line: name, sorted label pairs, value.
type ParsedSample = (String, Vec<(String, String)>, f64);

/// Parse one sample line into `(name, sorted label pairs, value)`.
fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let err = |m: &str| format!("{m}: {line:?}");
    let (name_and_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| err("sample line without a value"))?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().map_err(|_| err("unparseable sample value"))?,
    };
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let rest = rest
                .strip_suffix('}')
                .ok_or_else(|| err("unterminated label set"))?;
            let mut labels = Vec::new();
            let mut chars = rest.chars().peekable();
            while chars.peek().is_some() {
                let mut key = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                }
                if chars.next() != Some('"') {
                    return Err(err("label value must be quoted"));
                }
                let mut val = String::new();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some('\\') => val.push('\\'),
                            Some('n') => val.push('\n'),
                            Some('"') => val.push('"'),
                            other => return Err(err(&format!("bad escape {other:?}"))),
                        },
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\n' => return Err(err("raw newline inside label value")),
                        c => val.push(c),
                    }
                }
                if !closed {
                    return Err(err("unterminated label value"));
                }
                labels.push((key, val));
                match chars.next() {
                    Some(',') | None => {}
                    Some(c) => return Err(err(&format!("expected ',' between labels, got {c:?}"))),
                }
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return Err(err("invalid metric name"));
    }
    Ok((name, labels, value))
}

/// Conformance-check a text exposition body: every sample belongs to a family with
/// exactly one `# TYPE` line appearing before its samples; no duplicate series
/// (same name + label set); histogram families have, per label set, cumulative
/// monotone buckets whose `le` sequence ends in `+Inf`, with
/// `_count == +Inf bucket` and a `_sum` series. Returns the number of sample
/// lines checked.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("exposition body must end with a newline".into());
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_series: std::collections::BTreeSet<String> = Default::default();
    // family -> label-set-sans-le -> ordered (le, cumulative value)
    type BucketMap = BTreeMap<String, BTreeMap<String, Vec<(String, f64)>>>;
    let mut buckets: BucketMap = BTreeMap::new();
    let mut sums: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut counts: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut samples = 0usize;

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or_default().to_string();
                let kind = parts.next().unwrap_or_default().trim().to_string();
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind.as_str())
                {
                    return Err(format!("unknown TYPE {kind:?} for {name}"));
                }
                if types.insert(name.clone(), kind).is_some() {
                    return Err(format!("duplicate TYPE line for family {name}"));
                }
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        samples += 1;
        // Resolve the family: histogram/summary samples carry suffixes.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.contains_key(*base))
                    .map(|base| base.to_string())
            })
            .unwrap_or_else(|| name.clone());
        let kind = types
            .get(&family)
            .ok_or_else(|| format!("sample {name} has no preceding TYPE line"))?
            .clone();
        let series_key = format!(
            "{name}|{}",
            labels
                .iter()
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        if !seen_series.insert(series_key) {
            return Err(format!("duplicate series: {line:?}"));
        }
        if kind == "histogram" && family != name {
            let sans_le: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect();
            let subkey = sans_le.join(",");
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| format!("bucket sample without le: {line:?}"))?;
                buckets
                    .entry(family.clone())
                    .or_default()
                    .entry(subkey)
                    .or_default()
                    .push((le, value));
            } else if name.ends_with("_sum") {
                sums.entry(family.clone()).or_default().push(subkey);
            } else {
                counts
                    .entry(family.clone())
                    .or_default()
                    .push((subkey, value));
            }
        } else if kind == "counter" && value.is_finite() && value < 0.0 {
            return Err(format!("negative counter sample: {line:?}"));
        }
    }

    for (family, by_labels) in &buckets {
        for (labelset, series) in by_labels {
            let mut last = f64::NEG_INFINITY;
            for (le, v) in series {
                if *v < last {
                    return Err(format!(
                        "histogram {family}{{{labelset}}} bucket le={le} not monotone"
                    ));
                }
                last = *v;
            }
            match series.last() {
                Some((le, inf_value)) if le == "+Inf" => {
                    let count = counts
                        .get(family)
                        .and_then(|c| c.iter().find(|(k, _)| k == labelset))
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("histogram {family} lacks a _count series"))?;
                    if count != *inf_value {
                        return Err(format!(
                            "histogram {family}{{{labelset}}}: _count {count} != +Inf bucket {inf_value}"
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "histogram {family}{{{labelset}}} bucket series does not end in +Inf"
                    ))
                }
            }
            if !sums.get(family).is_some_and(|s| s.contains(labelset)) {
                return Err(format!("histogram {family} lacks a _sum series"));
            }
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_counters_gauges_and_histograms_conformantly() {
        let mut reg = MetricsRegistry::new();
        reg.counter("demo_requests_total", "Requests", &[("kind", "a")], 3.0);
        reg.counter("demo_requests_total", "Requests", &[("kind", "b")], 4.0);
        reg.gauge("demo_depth", "Queue depth", &[], 2.0);
        let hist = LatencyHistogram::new();
        for us in [1u64, 3, 700, 5_000_000_000] {
            hist.record_us(us);
        }
        reg.histogram_us(
            "demo_latency_us",
            "Latency (µs)",
            &[("stage", "e2e")],
            &hist,
        );
        let text = reg.encode();
        let samples = validate_exposition(&text).expect("conformant output");
        // 2 counters + 1 gauge + 31 buckets + _sum + _count.
        assert_eq!(samples, 2 + 1 + 31 + 2);
        assert!(text.contains("# TYPE demo_requests_total counter"));
        assert_eq!(
            text.matches("# TYPE demo_requests_total counter").count(),
            1,
            "one TYPE line per family"
        );
        assert!(text.contains("demo_latency_us_bucket{stage=\"e2e\",le=\"+Inf\"} 4"));
        assert!(text.contains("demo_latency_us_count{stage=\"e2e\"} 4"));
        // The 5000 s outlier lands in the overflow (+Inf) bucket, so the last
        // finite bucket holds 3.
        assert!(text.contains("demo_latency_us_bucket{stage=\"e2e\",le=\"536870912\"} 3"));
    }

    #[test]
    fn label_values_escape_backslash_newline_and_quote() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("demo_escapes", "Escaping", &[("path", "a\\b\nc\"d")], 1.0);
        let text = reg.encode();
        assert!(text.contains(r#"path="a\\b\nc\"d""#), "raw: {text}");
        validate_exposition(&text).expect("escaped output parses");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // Sample with no TYPE line.
        assert!(validate_exposition("orphan_total 1\n").is_err());
        // Duplicate series.
        let dup = "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        // Histogram without +Inf.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_exposition(no_inf).unwrap_err().contains("+Inf"));
        // _count disagreeing with the +Inf bucket.
        let bad_count = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(validate_exposition(bad_count)
            .unwrap_err()
            .contains("_count"));
        // Non-monotone buckets.
        let non_mono = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n";
        assert!(validate_exposition(non_mono)
            .unwrap_err()
            .contains("monotone"));
        // Missing trailing newline.
        assert!(validate_exposition("# TYPE a counter\na 1").is_err());
    }
}
