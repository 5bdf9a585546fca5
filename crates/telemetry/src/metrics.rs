//! The labeled metrics registry.
//!
//! Counters, gauges, and power-of-two histograms, keyed by metric name
//! plus a sorted label set (`benchmark=Snort, engine=dense`). The
//! registry is a process-wide map behind a mutex; recording sites fire
//! per run, per window decision, or per stall episode — never per cycle —
//! so contention is negligible, and every recording call is gated on the
//! one-atomic-load level check.
//!
//! Snapshots render deterministically (BTreeMap order) as a text table or
//! JSON-lines records, which is what the suite's `--telemetry` artifact
//! and the `sunder telemetry-report` breakdown consume.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::histogram::Pow2Histogram;
use crate::level::enabled;

/// A label set: sorted `key=value` dimensions.
pub type Labels = Vec<(&'static str, String)>;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Power-of-two histogram.
    Histogram(Pow2Histogram),
}

/// One snapshot entry: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label dimensions.
    pub labels: Vec<(&'static str, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

static REGISTRY: Mutex<BTreeMap<Key, MetricValue>> = Mutex::new(BTreeMap::new());

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    let mut labels: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    labels.sort_unstable();
    Key { name, labels }
}

/// Adds to a counter (creating it at zero first). No-op when telemetry
/// is disabled.
pub fn counter_add(name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    match reg
        .entry(key(name, labels))
        .or_insert(MetricValue::Counter(0))
    {
        MetricValue::Counter(c) => *c += delta,
        other => panic!("metric {name} is not a counter: {other:?}"),
    }
}

/// Sets a gauge. No-op when telemetry is disabled.
pub fn gauge_set(name: &'static str, labels: &[(&'static str, &str)], value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.insert(key(name, labels), MetricValue::Gauge(value));
}

/// Records one sample into a histogram. No-op when telemetry is disabled.
pub fn histogram_record(name: &'static str, labels: &[(&'static str, &str)], value: u64) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    match reg
        .entry(key(name, labels))
        .or_insert_with(|| MetricValue::Histogram(Pow2Histogram::new()))
    {
        MetricValue::Histogram(h) => h.record(value),
        other => panic!("metric {name} is not a histogram: {other:?}"),
    }
}

/// Merges a locally accumulated histogram into the registry (the pattern
/// for hot loops: accumulate lock-free, merge once per run). No-op when
/// telemetry is disabled.
pub fn histogram_merge(name: &'static str, labels: &[(&'static str, &str)], h: &Pow2Histogram) {
    if !enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    match reg
        .entry(key(name, labels))
        .or_insert_with(|| MetricValue::Histogram(Pow2Histogram::new()))
    {
        MetricValue::Histogram(existing) => existing.merge(h),
        other => panic!("metric {name} is not a histogram: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Pre-interned label handles.
//
// The map-based API above pays a map lookup plus a label-vector
// allocation per call — fine for per-run recording sites, wrong for a
// serve hot path that fires per chunk. A handle interns the
// (name, labels) pair once, up front; every subsequent record is one
// atomic op (or one uncontended mutex for histograms) against the
// handle's own cell. `snapshot()` folds touched cells into the same
// deterministic view, so both APIs share one metric namespace.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum HandleValue {
    Counter(AtomicU64),
    /// Gauge stored as `f64::to_bits`.
    Gauge(AtomicU64),
    Histogram(Mutex<Pow2Histogram>),
}

impl HandleValue {
    fn kind(&self) -> &'static str {
        match self {
            HandleValue::Counter(_) => "counter",
            HandleValue::Gauge(_) => "gauge",
            HandleValue::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct HandleCell {
    name: &'static str,
    labels: Labels,
    /// Set on first record since creation/reset; untouched cells stay
    /// out of snapshots so interning alone never pollutes a run.
    touched: AtomicBool,
    value: HandleValue,
}

static HANDLES: Mutex<Vec<Arc<HandleCell>>> = Mutex::new(Vec::new());

fn intern_handle(
    name: &'static str,
    labels: &[(&'static str, &str)],
    make: fn() -> HandleValue,
    kind: &'static str,
) -> Arc<HandleCell> {
    let mut sorted: Labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    sorted.sort_unstable();
    let mut cells = HANDLES.lock().expect("handle registry poisoned");
    if let Some(cell) = cells.iter().find(|c| c.name == name && c.labels == sorted) {
        assert_eq!(
            cell.value.kind(),
            kind,
            "metric {name} already interned as a {}",
            cell.value.kind()
        );
        return Arc::clone(cell);
    }
    let cell = Arc::new(HandleCell {
        name,
        labels: sorted,
        touched: AtomicBool::new(false),
        value: make(),
    });
    cells.push(Arc::clone(&cell));
    cell
}

/// A pre-interned monotone counter: `add` is one relaxed `fetch_add`.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<HandleCell>);

impl CounterHandle {
    /// Adds to the counter. No-op when telemetry is disabled.
    pub fn add(&self, delta: u64) {
        if !enabled() {
            return;
        }
        self.0.touched.store(true, Ordering::Relaxed);
        if let HandleValue::Counter(c) = &self.0.value {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The counter's current value (regardless of telemetry level).
    pub fn value(&self) -> u64 {
        match &self.0.value {
            HandleValue::Counter(c) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }
}

/// Interns (or finds) a counter handle for `(name, labels)`.
pub fn counter_handle(name: &'static str, labels: &[(&'static str, &str)]) -> CounterHandle {
    CounterHandle(intern_handle(
        name,
        labels,
        || HandleValue::Counter(AtomicU64::new(0)),
        "counter",
    ))
}

/// A pre-interned last-write-wins gauge: `set` is one relaxed store.
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<HandleCell>);

impl GaugeHandle {
    /// Sets the gauge. No-op when telemetry is disabled.
    pub fn set(&self, value: f64) {
        if !enabled() {
            return;
        }
        self.0.touched.store(true, Ordering::Relaxed);
        if let HandleValue::Gauge(g) = &self.0.value {
            g.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Interns (or finds) a gauge handle for `(name, labels)`.
pub fn gauge_handle(name: &'static str, labels: &[(&'static str, &str)]) -> GaugeHandle {
    GaugeHandle(intern_handle(
        name,
        labels,
        || HandleValue::Gauge(AtomicU64::new(0)),
        "gauge",
    ))
}

/// A pre-interned histogram: `record` takes the cell's own (uncontended
/// unless two sessions share a label set) mutex, never the registry map.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<HandleCell>);

impl HistogramHandle {
    /// Records one sample. No-op when telemetry is disabled.
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.0.touched.store(true, Ordering::Relaxed);
        if let HandleValue::Histogram(h) = &self.0.value {
            h.lock().expect("histogram handle poisoned").record(value);
        }
    }
}

/// Interns (or finds) a histogram handle for `(name, labels)`.
pub fn histogram_handle(name: &'static str, labels: &[(&'static str, &str)]) -> HistogramHandle {
    HistogramHandle(intern_handle(
        name,
        labels,
        || HandleValue::Histogram(Mutex::new(Pow2Histogram::new())),
        "histogram",
    ))
}

/// A deterministic copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Entries in (name, labels) order.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Looks up a counter's value.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels).and_then(|e| match &e.value {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
    }

    /// Looks up a gauge's value.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).and_then(|e| match &e.value {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        })
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Pow2Histogram> {
        self.find(name, labels).and_then(|e| match &e.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        })
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricEntry> {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort_unstable();
        self.entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == want.len()
                && e.labels
                    .iter()
                    .zip(want.iter())
                    .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
        })
    }

    /// Renders a fixed-width text dump (one metric per line; histograms
    /// as `count/total/mean` plus indented bucket lines).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let labels = e
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            let head = if labels.is_empty() {
                e.name.to_string()
            } else {
                format!("{}{{{labels}}}", e.name)
            };
            match &e.value {
                MetricValue::Counter(c) => out.push_str(&format!("{head} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{head} {g}\n")),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{head} count={} total={} mean={:.2}\n",
                        h.count(),
                        h.total(),
                        h.mean()
                    ));
                    for line in h.render().lines() {
                        out.push_str(&format!("    {line}\n"));
                    }
                }
            }
        }
        out
    }
}

/// Takes a deterministic snapshot of the registry, folding touched
/// label handles into the same (name, labels)-ordered view: counters
/// add, histograms merge, gauges take the handle's value.
pub fn snapshot() -> MetricsSnapshot {
    let mut merged: BTreeMap<Key, MetricValue> =
        REGISTRY.lock().expect("metrics registry poisoned").clone();
    let cells = HANDLES.lock().expect("handle registry poisoned");
    for cell in cells.iter() {
        if !cell.touched.load(Ordering::Relaxed) {
            continue;
        }
        let key = Key {
            name: cell.name,
            labels: cell.labels.clone(),
        };
        match &cell.value {
            HandleValue::Counter(c) => {
                let delta = c.load(Ordering::Relaxed);
                match merged.entry(key).or_insert(MetricValue::Counter(0)) {
                    MetricValue::Counter(v) => *v += delta,
                    other => panic!("metric {} is not a counter: {other:?}", cell.name),
                }
            }
            HandleValue::Gauge(g) => {
                let value = f64::from_bits(g.load(Ordering::Relaxed));
                merged.insert(key, MetricValue::Gauge(value));
            }
            HandleValue::Histogram(h) => {
                let h = h.lock().expect("histogram handle poisoned");
                match merged
                    .entry(key)
                    .or_insert_with(|| MetricValue::Histogram(Pow2Histogram::new()))
                {
                    MetricValue::Histogram(existing) => existing.merge(&h),
                    other => panic!("metric {} is not a histogram: {other:?}", cell.name),
                }
            }
        }
    }
    MetricsSnapshot {
        entries: merged
            .into_iter()
            .map(|(k, v)| MetricEntry {
                name: k.name,
                labels: k.labels,
                value: v,
            })
            .collect(),
    }
}

/// Clears the registry (between runs / tests). Interned handles stay
/// valid — their cells are zeroed and marked untouched, so they vanish
/// from snapshots until something records through them again.
pub fn reset() {
    REGISTRY.lock().expect("metrics registry poisoned").clear();
    let cells = HANDLES.lock().expect("handle registry poisoned");
    for cell in cells.iter() {
        cell.touched.store(false, Ordering::Relaxed);
        match &cell.value {
            HandleValue::Counter(c) => c.store(0, Ordering::Relaxed),
            HandleValue::Gauge(g) => g.store(0, Ordering::Relaxed),
            HandleValue::Histogram(h) => {
                *h.lock().expect("histogram handle poisoned") = Pow2Histogram::new();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot diffing: counters → rate gauges.
// ---------------------------------------------------------------------------

/// Interns a derived `_per_sec` gauge name for a counter. The set of
/// distinct counter names in a process is small and static, so the leak
/// is bounded (it is the usual price of a `&'static str`-keyed registry).
fn rate_name(base: &str) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let derived = format!("{}_per_sec", base.strip_suffix("_total").unwrap_or(base));
    let mut names = NAMES.lock().expect("rate name table poisoned");
    if let Some(&n) = names.iter().find(|&&n| n == derived) {
        return n;
    }
    let leaked: &'static str = Box::leak(derived.into_boxed_str());
    names.push(leaked);
    leaked
}

/// Diffs two registry snapshots taken `elapsed` apart and publishes one
/// `<counter-stem>_per_sec` gauge per counter (e.g. `serve_bytes_total`
/// → `serve_bytes_per_sec`), preserving labels. Counters absent from
/// `prev` are treated as having started at zero. Returns the number of
/// gauges published. This is what the obs snapshot thread calls
/// periodically so scrapes see live rates, not just lifetime totals.
pub fn publish_rate_gauges(
    prev: &MetricsSnapshot,
    cur: &MetricsSnapshot,
    elapsed: Duration,
) -> usize {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    let mut published = 0;
    for e in &cur.entries {
        let MetricValue::Counter(now) = e.value else {
            continue;
        };
        let labels: Vec<(&str, &str)> = e.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let before = prev.counter(e.name, &labels).unwrap_or(0);
        let rate = now.saturating_sub(before) as f64 / secs;
        let static_labels: Vec<(&'static str, &str)> =
            e.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        gauge_set(rate_name(e.name), &static_labels, rate);
        published += 1;
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, Level};

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Metrics);
        counter_add("reports_total", &[("bench", "Snort")], 3);
        counter_add("reports_total", &[("bench", "Snort")], 4);
        gauge_set("overhead", &[("bench", "Snort")], 1.25);
        histogram_record("stall_cycles", &[("cause", "flush")], 224);
        histogram_record("stall_cycles", &[("cause", "flush")], 224);
        set_level(Level::Off);
        let snap = snapshot();
        assert_eq!(
            snap.counter("reports_total", &[("bench", "Snort")]),
            Some(7)
        );
        assert_eq!(snap.gauge("overhead", &[("bench", "Snort")]), Some(1.25));
        let h = snap
            .histogram("stall_cycles", &[("cause", "flush")])
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.total(), 448);
        reset();
    }

    #[test]
    fn disabled_level_records_nothing() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Off);
        counter_add("ghost", &[], 1);
        gauge_set("ghost_g", &[], 1.0);
        histogram_record("ghost_h", &[], 1);
        assert!(snapshot().entries.is_empty());
    }

    #[test]
    fn labels_are_order_insensitive() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Metrics);
        counter_add("m", &[("a", "1"), ("b", "2")], 1);
        counter_add("m", &[("b", "2"), ("a", "1")], 1);
        set_level(Level::Off);
        let snap = snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.counter("m", &[("b", "2"), ("a", "1")]), Some(2));
        reset();
    }

    #[test]
    fn handles_fold_into_snapshots_and_share_the_namespace() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Metrics);
        // Same (name, labels) through both APIs: one merged entry.
        counter_add("mixed_total", &[("t", "a")], 2);
        let c = counter_handle("mixed_total", &[("t", "a")]);
        c.add(3);
        // Interning twice returns the same cell.
        let c2 = counter_handle("mixed_total", &[("t", "a")]);
        c2.add(1);
        let g = gauge_handle("depth", &[("w", "0")]);
        g.set(4.5);
        let h = histogram_handle("lat_us", &[("t", "a")]);
        h.record(224);
        h.record(224);
        set_level(Level::Off);
        let snap = snapshot();
        assert_eq!(snap.counter("mixed_total", &[("t", "a")]), Some(6));
        assert_eq!(c.value(), 4);
        assert_eq!(snap.gauge("depth", &[("w", "0")]), Some(4.5));
        let hist = snap.histogram("lat_us", &[("t", "a")]).unwrap();
        assert_eq!((hist.count(), hist.total()), (2, 448));
        reset();
        // After reset the cells are zeroed and untouched: invisible.
        assert!(snapshot().entries.is_empty());
        // But the old handle still works against the same cell.
        set_level(Level::Metrics);
        c.add(10);
        set_level(Level::Off);
        assert_eq!(snapshot().counter("mixed_total", &[("t", "a")]), Some(10));
        reset();
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Off);
        let c = counter_handle("ghost_total", &[]);
        c.add(5);
        gauge_handle("ghost_g", &[]).set(1.0);
        histogram_handle("ghost_h", &[]).record(1);
        assert!(snapshot().entries.is_empty());
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn handle_labels_are_order_insensitive() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Metrics);
        let a = counter_handle("ord_total", &[("a", "1"), ("b", "2")]);
        let b = counter_handle("ord_total", &[("b", "2"), ("a", "1")]);
        a.add(1);
        b.add(1);
        set_level(Level::Off);
        let snap = snapshot();
        assert_eq!(
            snap.counter("ord_total", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
        assert_eq!(
            snap.entries
                .iter()
                .filter(|e| e.name == "ord_total")
                .count(),
            1
        );
        reset();
    }

    #[test]
    fn rate_gauges_diff_counters_per_second() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Metrics);
        counter_add("serve_bytes_total", &[("t", "a")], 100);
        let prev = snapshot();
        counter_add("serve_bytes_total", &[("t", "a")], 300);
        counter_add("fresh_total", &[], 50);
        let cur = snapshot();
        let n = publish_rate_gauges(&prev, &cur, Duration::from_secs(2));
        assert_eq!(n, 2);
        let snap = snapshot();
        assert_eq!(
            snap.gauge("serve_bytes_per_sec", &[("t", "a")]),
            Some(150.0)
        );
        assert_eq!(snap.gauge("fresh_per_sec", &[]), Some(25.0));
        // Zero elapsed publishes nothing (no divide-by-zero spikes).
        assert_eq!(publish_rate_gauges(&prev, &cur, Duration::ZERO), 0);
        set_level(Level::Off);
        reset();
    }

    #[test]
    fn text_render_is_stable() {
        let _lock = crate::test_lock();
        reset();
        set_level(Level::Metrics);
        counter_add("b_metric", &[], 1);
        counter_add("a_metric", &[("x", "y")], 2);
        set_level(Level::Off);
        let text = snapshot().render_text();
        assert_eq!(text, "a_metric{x=y} 2\nb_metric 1\n");
        reset();
    }
}
