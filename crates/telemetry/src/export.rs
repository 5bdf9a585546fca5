//! Exporters: JSON-lines artifact and Chrome `trace_event` conversion,
//! plus the schema validator CI runs over `--telemetry` artifacts.
//!
//! ## JSON-lines schema (version 1)
//!
//! One JSON object per line:
//!
//! - line 1 — `{"type":"meta","version":1,"tool":"sunder-telemetry",
//!   "level":"spans","events":N,"dropped":N,"metrics":N}`
//! - spans — `{"type":"span","name":"suite.benchmark","ts_us":U,
//!   "dur_us":U,"tid":U,"fields":{...}}`
//! - instants — `{"type":"instant","name":"engine.select","ts_us":U,
//!   "tid":U,"fields":{...}}`
//! - metrics — `{"type":"metric","kind":"counter"|"gauge","name":S,
//!   "labels":{...},"value":V}` or `{"type":"metric","kind":"histogram",
//!   "name":S,"labels":{...},"count":U,"total":U,"zeros":U,
//!   "buckets":[U,...]}`
//!
//! The Chrome export wraps spans as `"ph":"X"` complete events and
//! instants as `"ph":"i"`, loadable directly in `chrome://tracing` /
//! Perfetto.

use crate::event::{Event, EventKind, Value};
use crate::json::{self, escape, Json};
use crate::metrics::{MetricEntry, MetricValue, MetricsSnapshot};

/// Schema version emitted in the meta line.
pub const SCHEMA_VERSION: u64 = 1;

fn value_json(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::U64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::F64(f) if f.is_finite() => format!("{f}"),
        Value::F64(_) => "null".to_string(),
    }
}

fn fields_json(fields: &[crate::event::Field]) -> String {
    let body = fields
        .iter()
        .map(|f| format!("\"{}\":{}", escape(f.key), value_json(&f.value)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

fn labels_json(labels: &[(&'static str, String)]) -> String {
    let body = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

fn event_jsonl(e: &Event) -> String {
    match e.kind {
        EventKind::Span => format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"ts_us\":{},\"dur_us\":{},\"tid\":{},\"fields\":{}}}",
            escape(e.name),
            e.ts_us,
            e.dur_us,
            e.tid,
            fields_json(&e.fields)
        ),
        EventKind::Instant => format!(
            "{{\"type\":\"instant\",\"name\":\"{}\",\"ts_us\":{},\"tid\":{},\"fields\":{}}}",
            escape(e.name),
            e.ts_us,
            e.tid,
            fields_json(&e.fields)
        ),
    }
}

fn metric_jsonl(m: &MetricEntry) -> String {
    let labels = labels_json(&m.labels);
    match &m.value {
        MetricValue::Counter(c) => format!(
            "{{\"type\":\"metric\",\"kind\":\"counter\",\"name\":\"{}\",\"labels\":{labels},\"value\":{c}}}",
            escape(m.name)
        ),
        MetricValue::Gauge(g) => {
            let v = if g.is_finite() {
                format!("{g}")
            } else {
                "null".to_string()
            };
            format!(
                "{{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"{}\",\"labels\":{labels},\"value\":{v}}}",
                escape(m.name)
            )
        }
        MetricValue::Histogram(h) => {
            let buckets = h
                .buckets()
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"type\":\"metric\",\"kind\":\"histogram\",\"name\":\"{}\",\"labels\":{labels},\"count\":{},\"total\":{},\"zeros\":{},\"buckets\":[{buckets}]}}",
                escape(m.name),
                h.count(),
                h.total(),
                h.zeros()
            )
        }
    }
}

/// Renders the full JSON-lines artifact: meta line, then events in
/// recording order, then metrics in registry (sorted) order.
pub fn render_jsonl(
    level_name: &str,
    events: &[Event],
    dropped: u64,
    metrics: &MetricsSnapshot,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION},\"tool\":\"sunder-telemetry\",\"level\":\"{}\",\"events\":{},\"dropped\":{dropped},\"metrics\":{}}}\n",
        escape(level_name),
        events.len(),
        metrics.entries.len()
    ));
    for e in events {
        out.push_str(&event_jsonl(e));
        out.push('\n');
    }
    for m in &metrics.entries {
        out.push_str(&metric_jsonl(m));
        out.push('\n');
    }
    out
}

/// Renders events as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and
/// Perfetto. Spans become `"ph":"X"` complete events; instants become
/// thread-scoped `"ph":"i"` marks. Metrics have no timeline position and
/// are not included.
pub fn render_chrome_trace(events: &[Event]) -> String {
    let mut parts = Vec::with_capacity(events.len());
    for e in events {
        let args = fields_json(&e.fields);
        match e.kind {
            EventKind::Span => parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{args}}}",
                escape(e.name),
                e.ts_us,
                e.dur_us,
                e.tid
            )),
            EventKind::Instant => parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{args}}}",
                escape(e.name),
                e.ts_us,
                e.tid
            )),
        }
    }
    format!("{{\"traceEvents\":[{}]}}", parts.join(","))
}

/// Converts a JSON-lines artifact (typically read back from disk) into a
/// Chrome `trace_event` document, equivalent to what
/// [`render_chrome_trace`] produces on the live events. The artifact is
/// validated first; span and instant lines become timeline events, and
/// metric lines are skipped (they have no timeline position).
pub fn chrome_trace_from_jsonl(text: &str) -> Result<String, String> {
    validate_jsonl(text)?;
    let mut parts = Vec::new();
    for raw in text.lines() {
        // Validation already guaranteed each line parses with the
        // required fields present.
        let obj = json::parse(raw).expect("validated line");
        let args = obj
            .get("fields")
            .map_or_else(|| "{}".to_string(), Json::render);
        let name = obj.get("name").and_then(Json::as_str).unwrap_or("");
        let ts = obj.get("ts_us").and_then(Json::as_u64).unwrap_or(0);
        let tid = obj.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match obj.get("type").and_then(Json::as_str) {
            Some("span") => {
                let dur = obj.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
                parts.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    escape(name)
                ));
            }
            Some("instant") => parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                escape(name)
            )),
            _ => {}
        }
    }
    Ok(format!("{{\"traceEvents\":[{}]}}", parts.join(",")))
}

/// What a validated artifact contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidatedArtifact {
    /// Total lines (including meta).
    pub lines: usize,
    /// Span lines.
    pub spans: usize,
    /// Instant lines.
    pub instants: usize,
    /// Metric lines.
    pub metrics: usize,
    /// Events dropped to ring wraparound, from the meta line.
    pub dropped: u64,
}

fn require_u64(obj: &Json, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line}: missing or non-integer \"{key}\""))
}

fn require_str<'a>(obj: &'a Json, key: &str, line: usize) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {line}: missing or non-string \"{key}\""))
}

/// Validates a JSON-lines telemetry artifact against the schema above.
/// Every line must parse as a JSON object; the first must be a `meta`
/// line with a matching version; declared event/metric counts must match
/// the lines present.
pub fn validate_jsonl(text: &str) -> Result<ValidatedArtifact, String> {
    let mut summary = ValidatedArtifact::default();
    let mut declared_events = 0u64;
    let mut declared_metrics = 0u64;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            return Err(format!("line {line}: blank line in artifact"));
        }
        let obj = json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        if !obj.is_obj() {
            return Err(format!("line {line}: not a JSON object"));
        }
        summary.lines += 1;
        let ty = require_str(&obj, "type", line)?;
        if line == 1 {
            if ty != "meta" {
                return Err(format!("line 1: expected meta line, found \"{ty}\""));
            }
            let version = require_u64(&obj, "version", line)?;
            if version != SCHEMA_VERSION {
                return Err(format!(
                    "line 1: schema version {version}, expected {SCHEMA_VERSION}"
                ));
            }
            declared_events = require_u64(&obj, "events", line)?;
            declared_metrics = require_u64(&obj, "metrics", line)?;
            summary.dropped = require_u64(&obj, "dropped", line)?;
            continue;
        }
        match ty {
            "meta" => return Err(format!("line {line}: duplicate meta line")),
            "span" => {
                require_str(&obj, "name", line)?;
                require_u64(&obj, "ts_us", line)?;
                require_u64(&obj, "dur_us", line)?;
                require_u64(&obj, "tid", line)?;
                if !obj.get("fields").is_some_and(Json::is_obj) {
                    return Err(format!("line {line}: span \"fields\" must be an object"));
                }
                summary.spans += 1;
            }
            "instant" => {
                require_str(&obj, "name", line)?;
                require_u64(&obj, "ts_us", line)?;
                require_u64(&obj, "tid", line)?;
                if !obj.get("fields").is_some_and(Json::is_obj) {
                    return Err(format!("line {line}: instant \"fields\" must be an object"));
                }
                summary.instants += 1;
            }
            "metric" => {
                require_str(&obj, "name", line)?;
                if !obj.get("labels").is_some_and(Json::is_obj) {
                    return Err(format!("line {line}: metric \"labels\" must be an object"));
                }
                match require_str(&obj, "kind", line)? {
                    "counter" => {
                        require_u64(&obj, "value", line)?;
                    }
                    "gauge" => {
                        let ok = obj
                            .get("value")
                            .is_some_and(|v| v.as_f64().is_some() || *v == Json::Null);
                        if !ok {
                            return Err(format!("line {line}: gauge \"value\" must be a number"));
                        }
                    }
                    "histogram" => {
                        let count = require_u64(&obj, "count", line)?;
                        let total = require_u64(&obj, "total", line)?;
                        let zeros = require_u64(&obj, "zeros", line)?;
                        let buckets = obj
                            .get("buckets")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("line {line}: histogram missing buckets"))?;
                        let mut bucketed = zeros;
                        for b in buckets {
                            bucketed += b
                                .as_u64()
                                .ok_or_else(|| format!("line {line}: non-integer bucket"))?;
                        }
                        if bucketed != count {
                            return Err(format!(
                                "line {line}: histogram buckets sum to {bucketed}, count says {count}"
                            ));
                        }
                        if count == 0 && total != 0 {
                            return Err(format!("line {line}: empty histogram with nonzero total"));
                        }
                    }
                    other => {
                        return Err(format!("line {line}: unknown metric kind \"{other}\""));
                    }
                }
                summary.metrics += 1;
            }
            other => return Err(format!("line {line}: unknown record type \"{other}\"")),
        }
    }
    if summary.lines == 0 {
        return Err("empty artifact".to_string());
    }
    let events = (summary.spans + summary.instants) as u64;
    if events != declared_events {
        return Err(format!(
            "meta declares {declared_events} events, artifact has {events}"
        ));
    }
    if summary.metrics as u64 != declared_metrics {
        return Err(format!(
            "meta declares {declared_metrics} metrics, artifact has {}",
            summary.metrics
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Field;
    use crate::histogram::Pow2Histogram;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::Span,
                name: "suite.benchmark",
                ts_us: 10,
                dur_us: 250,
                tid: 1,
                fields: vec![Field::new("bench", "Snort"), Field::new("ok", true)],
            },
            Event {
                kind: EventKind::Instant,
                name: "engine.switch",
                ts_us: 40,
                dur_us: 0,
                tid: 2,
                fields: vec![Field::new("avg_active", 12.5f64)],
            },
        ]
    }

    fn sample_metrics() -> MetricsSnapshot {
        let mut h = Pow2Histogram::new();
        h.record(224);
        h.record(0);
        MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: "suite_reports_total",
                    labels: vec![("bench", "Snort".to_string())],
                    value: MetricValue::Counter(96),
                },
                MetricEntry {
                    name: "overhead",
                    labels: vec![],
                    value: MetricValue::Gauge(1.5),
                },
                MetricEntry {
                    name: "machine_stall_episode_cycles",
                    labels: vec![("cause", "flush_drain".to_string())],
                    value: MetricValue::Histogram(h),
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let text = render_jsonl("spans", &sample_events(), 3, &sample_metrics());
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.metrics, 3);
        assert_eq!(summary.dropped, 3);
        assert_eq!(summary.lines, 6);
    }

    #[test]
    fn every_jsonl_line_is_parseable_json() {
        let text = render_jsonl("spans", &sample_events(), 0, &sample_metrics());
        for line in text.lines() {
            json::parse(line).unwrap();
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let doc = render_chrome_trace(&sample_events());
        let v = json::parse(&doc).unwrap();
        let traces = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(traces[0].get("dur").unwrap().as_u64(), Some(250));
        assert_eq!(traces[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            traces[1]
                .get("args")
                .unwrap()
                .get("avg_active")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
    }

    #[test]
    fn jsonl_converts_to_the_same_chrome_trace_as_live_events() {
        let events = sample_events();
        let jsonl = render_jsonl("spans", &events, 0, &sample_metrics());
        let from_file = chrome_trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(from_file, render_chrome_trace(&events));
        assert!(chrome_trace_from_jsonl("not json\n").is_err());
    }

    #[test]
    fn validator_rejects_corrupt_artifacts() {
        let good = render_jsonl("metrics", &[], 0, &sample_metrics());
        // Declared counts must match.
        let lying = good.replacen("\"metrics\":3", "\"metrics\":7", 1);
        assert!(validate_jsonl(&lying).is_err());
        // Truncated line.
        let mut truncated = good.clone();
        truncated.truncate(good.len() - 10);
        assert!(validate_jsonl(&truncated).is_err());
        // Missing meta.
        let headless = good.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate_jsonl(&headless).is_err());
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn special_characters_escape_cleanly() {
        let events = vec![Event {
            kind: EventKind::Instant,
            name: "progress",
            ts_us: 0,
            dur_us: 0,
            tid: 1,
            fields: vec![Field::new("msg", "line\"one\"\nline\ttwo\\")],
        }];
        let text = render_jsonl("spans", &events, 0, &MetricsSnapshot::default());
        validate_jsonl(&text).unwrap();
        let parsed = json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(
            parsed.get("fields").unwrap().get("msg").unwrap().as_str(),
            Some("line\"one\"\nline\ttwo\\")
        );
    }
}
