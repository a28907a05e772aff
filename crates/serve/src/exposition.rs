//! The one declaration of every metric, rendered as JSON and as Prometheus text.
//!
//! Both servers keep their hot-path counters in lock-free structs. At scrape time
//! they declare each counter, gauge and histogram once into a [`MetricsRegistry`]:
//! its JSON key, its Prometheus name and help, under the JSON path and labels of
//! the enclosing [`scope`](MetricsRegistry::scope). The registry renders both
//! bodies of `GET /metrics` from that one list — [`MetricsRegistry::into_json`]
//! the nested JSON object, [`MetricsRegistry::encode`] Prometheus text exposition
//! format 0.0.4 for `?format=prometheus` — so the two cannot drift. A histogram
//! renders the JSON block `{count, mean_us, p50_us, p95_us, p99_us}` everywhere;
//! derived values with no Prometheus twin go through [`MetricsRegistry::json`].
//!
//! [`validate_exposition`] is the matching conformance checker, shared by the
//! format unit tests, the live engine/gateway scrape tests and the CI step.
//!
//! # Worked example: adding a metric
//!
//! Count the work with an atomic — one relaxed add, no lock, no allocation on the
//! hot path — and declare it once where its owner declares its series:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use vitality_serve::exposition::{validate_exposition, MetricsRegistry};
//!
//! static ITEMS: AtomicU64 = AtomicU64::new(0);
//! ITEMS.fetch_add(3, Ordering::Relaxed);
//!
//! let mut reg = MetricsRegistry::new();
//! reg.scope(&["hot"], &[("subsystem", "example")], |reg| {
//!     let items = ITEMS.load(Ordering::Relaxed);
//!     reg.counter("items", "vitality_hot_items_total", "Items processed by the hot loop", items);
//! });
//! let text = reg.encode();
//! validate_exposition(&text).expect("conformant");
//! assert!(text.contains("vitality_hot_items_total{subsystem=\"example\"} 3"));
//! let json = reg.into_json();
//! assert_eq!(json.get("hot").and_then(|h| h.get("items")).and_then(|v| v.as_usize()), Some(3));
//! ```

use crate::metrics::LatencyHistogram;
use serde::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One sample line: the name suffix (`_bucket`, `_sum`, ...), the rendered label
/// set and the value.
struct Sample {
    suffix: &'static str,
    labels: String,
    value: f64,
}

/// One metric family: a name, help text, `# TYPE` kind, and its samples.
struct Family {
    name: String,
    help: String,
    kind: &'static str,
    samples: Vec<Sample>,
}

/// One step of the JSON path a declaration nests under.
enum Step {
    Key(String),
    Item(usize),
}

/// A per-scrape registry every metric is declared into once, rendered as nested
/// JSON and as Prometheus text (see the module docs).
pub struct MetricsRegistry {
    families: Vec<Family>,
    index: BTreeMap<String, usize>,
    json: JsonValue,
    /// The JSON path of the current scope, outermost first.
    path: Vec<Step>,
    /// The Prometheus labels of the current scope.
    labels: Vec<(String, String)>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            families: Vec::new(),
            index: BTreeMap::new(),
            json: JsonValue::object(),
            path: Vec::new(),
            labels: Vec::new(),
        }
    }
}

/// Escape help text (backslash, newline) or, with `quote`, a label value (also
/// the double quote) per the exposition format.
fn escape(v: &str, quote: bool) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quote => out.push_str("\\\""),
            _ => out.push(c),
        }
    }
    out
}

/// Render a label set as `{k="v",...}` (empty string for no labels).
fn render_labels<'a>(labels: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::new();
    for (k, v) in labels {
        out.push(if out.is_empty() { '{' } else { ',' });
        let _ = write!(out, "{k}=\"{}\"", escape(v, true));
    }
    if !out.is_empty() {
        out.push('}');
    }
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

/// The member `key` of the object `node`, inserted as `empty()` when absent.
fn member<'a>(node: &'a mut JsonValue, key: &str, empty: fn() -> JsonValue) -> &'a mut JsonValue {
    let JsonValue::Object(members) = node else {
        panic!("metric key {key:?} declared under a JSON non-object");
    };
    let at = match members.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            members.push((key.to_string(), empty()));
            members.len() - 1
        }
    };
    &mut members[at].1
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The JSON object of the current scope, created on first use.
    fn node(&mut self) -> &mut JsonValue {
        let mut node = &mut self.json;
        for step in &self.path {
            node = match (step, node) {
                (Step::Key(key), node) => member(node, key, JsonValue::object),
                (Step::Item(at), JsonValue::Array(items)) => &mut items[*at],
                _ => unreachable!("an item step always follows its array"),
            };
        }
        node
    }

    /// Runs `declare` with every declaration nested under the JSON object at
    /// `path` (created even when `declare` declares nothing) and carrying `labels`
    /// on top of the enclosing scope's in Prometheus.
    pub fn scope(
        &mut self,
        path: &[&str],
        labels: &[(&str, &str)],
        declare: impl FnOnce(&mut Self),
    ) {
        let (depth, label_count) = (self.path.len(), self.labels.len());
        self.path
            .extend(path.iter().map(|key| Step::Key(key.to_string())));
        self.labels
            .extend(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        self.node();
        declare(self);
        self.path.truncate(depth);
        self.labels.truncate(label_count);
    }

    /// [`scope`](Self::scope) over a new object appended to the JSON array at
    /// `key` (created empty on first use): per-instance blocks in declaration order.
    pub fn item(&mut self, key: &str, labels: &[(&str, &str)], declare: impl FnOnce(&mut Self)) {
        let JsonValue::Array(items) = member(self.node(), key, || JsonValue::Array(Vec::new()))
        else {
            panic!("metric array {key:?} declared over a JSON non-array");
        };
        items.push(JsonValue::object());
        let at = items.len() - 1;
        self.path
            .extend([Step::Key(key.to_string()), Step::Item(at)]);
        self.scope(&[], labels, declare);
        self.path.truncate(self.path.len() - 2);
    }

    /// A JSON-only value at `key`: derived numbers (ratios, means) and labels
    /// that have no Prometheus series.
    pub fn json(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.node().set(key, value);
    }

    /// Declares one counter sample: JSON `key`, Prometheus `name` with the
    /// scope's labels. Declaring a name again adds a sample to its family (one
    /// `# TYPE` line, many label sets).
    pub fn counter(&mut self, key: &str, name: &str, help: &str, value: u64) {
        self.json(key, value);
        self.sample(name, help, "counter", "", value as f64);
    }

    /// Declares one gauge sample. A bool renders as 1/0 in Prometheus; `null` (a
    /// `None` reading) is JSON-only.
    pub fn gauge(&mut self, key: &str, name: &str, help: &str, value: impl Into<JsonValue>) {
        let value = value.into();
        match value {
            JsonValue::Number(v) => self.sample(name, help, "gauge", "", v),
            JsonValue::Bool(b) => self.sample(name, help, "gauge", "", f64::from(u8::from(b))),
            _ => {}
        }
        self.json(key, value);
    }

    /// Declares a [`LatencyHistogram`]: its JSON block at `key` (the scope's own
    /// object when `key` is empty), and a Prometheus histogram in microseconds —
    /// cumulative `_bucket` series over the geometric `2^i µs` bounds ending in
    /// `+Inf` (the histogram's overflow bucket), plus `_sum` and `_count`. The
    /// `_count` is derived from the bucket counts themselves, so the invariant
    /// `_count == +Inf bucket` holds even while other threads are recording.
    pub fn histogram(&mut self, key: &str, name: &str, help: &str, hist: &LatencyHistogram) {
        let node = self.node();
        let block = if key.is_empty() {
            node
        } else {
            member(node, key, JsonValue::object)
        };
        block
            .set("count", hist.count())
            .set("mean_us", hist.mean_us())
            .set("p50_us", hist.quantile_us(0.50))
            .set("p95_us", hist.quantile_us(0.95))
            .set("p99_us", hist.quantile_us(0.99));
        let mut cumulative = 0u64;
        for (i, count) in hist.bucket_counts().into_iter().enumerate() {
            cumulative += count;
            let le = if i + 1 < LatencyHistogram::BUCKETS {
                format!("{}", 1u64 << i)
            } else {
                "+Inf".to_string()
            };
            self.sample_with(
                name,
                help,
                "histogram",
                "_bucket",
                Some(&le),
                cumulative as f64,
            );
        }
        self.sample_with(name, help, "histogram", "_sum", None, hist.sum_us() as f64);
        self.sample_with(name, help, "histogram", "_count", None, cumulative as f64);
    }

    fn sample(
        &mut self,
        name: &str,
        help: &str,
        kind: &'static str,
        suffix: &'static str,
        value: f64,
    ) {
        self.sample_with(name, help, kind, suffix, None, value);
    }

    /// Adds one sample, with the scope's labels (and `le`, for a bucket), to the
    /// family `name`, created on its first sample.
    fn sample_with(
        &mut self,
        name: &str,
        help: &str,
        kind: &'static str,
        suffix: &'static str,
        le: Option<&str>,
        value: f64,
    ) {
        let scope = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let labels = render_labels(scope.chain(le.map(|le| ("le", le))));
        let at = *self.index.entry(name.to_string()).or_insert_with(|| {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: Vec::new(),
            });
            self.families.len() - 1
        });
        let family = &mut self.families[at];
        debug_assert_eq!(
            family.kind, kind,
            "metric family {name} re-declared as another kind"
        );
        family.samples.push(Sample {
            suffix,
            labels,
            value,
        });
    }

    /// The JSON rendering: every declaration nested by its key path.
    pub fn into_json(self) -> JsonValue {
        self.json
    }

    /// The Prometheus text rendering: one `# HELP` and `# TYPE` line per family,
    /// then its samples.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(
                out,
                "# HELP {} {}",
                family.name,
                escape(&family.help, false)
            );
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
            for s in &family.samples {
                let value = render_value(s.value);
                let _ = writeln!(out, "{}{}{} {value}", family.name, s.suffix, s.labels);
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
        for (kind, value) in [("a", 3), ("b", 4)] {
            reg.scope(&["requests"], &[("kind", kind)], |reg| {
                reg.counter(kind, "demo_requests_total", "Requests", value)
            });
        }
        reg.gauge("depth", "demo_depth", "Queue depth", 2u64);
        let hist = LatencyHistogram::new();
        for us in [1u64, 3, 700, 5_000_000_000] {
            hist.record_us(us);
        }
        reg.scope(&[], &[("stage", "e2e")], |reg| {
            reg.histogram("latency", "demo_latency_us", "Latency (µs)", &hist)
        });
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

        // The same declarations, nested by key path.
        let json = reg.into_json();
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&json, |node, key| node.get(key))
                .and_then(JsonValue::as_f64)
        };
        assert_eq!(at(&["requests", "a"]), Some(3.0));
        assert_eq!(at(&["requests", "b"]), Some(4.0));
        assert_eq!(at(&["depth"]), Some(2.0));
        assert_eq!(at(&["latency", "count"]), Some(4.0));
        for key in ["mean_us", "p50_us", "p95_us", "p99_us"] {
            assert!(at(&["latency", key]).is_some(), "histogram block has {key}");
        }
    }

    #[test]
    fn items_keep_order_and_absent_gauges_are_json_only() {
        let mut reg = MetricsRegistry::new();
        for (addr, up) in [("b:1", true), ("a:2", false)] {
            reg.item("backends", &[("backend", addr)], |reg| {
                reg.json("addr", addr);
                reg.gauge("healthy", "demo_backend_healthy", "Health", up);
            });
        }
        reg.gauge("saturation", "demo_saturation", "Saturation", None::<f64>);
        let text = reg.encode();
        validate_exposition(&text).expect("conformant output");
        assert!(text.contains("demo_backend_healthy{backend=\"b:1\"} 1"));
        assert!(text.contains("demo_backend_healthy{backend=\"a:2\"} 0"));
        assert!(
            !text.contains("demo_saturation"),
            "no sample for a null gauge"
        );
        let json = reg.into_json();
        let backends = json.get("backends").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            backends[0].get("addr").and_then(JsonValue::as_str),
            Some("b:1")
        );
        assert_eq!(backends[1].get("healthy"), Some(&JsonValue::Bool(false)));
        assert_eq!(json.get("saturation"), Some(&JsonValue::Null));
    }

    #[test]
    fn label_values_escape_backslash_newline_and_quote() {
        let mut reg = MetricsRegistry::new();
        reg.scope(&[], &[("path", "a\\b\nc\"d")], |reg| {
            reg.gauge("escapes", "demo_escapes", "Escaping", 1u64)
        });
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
