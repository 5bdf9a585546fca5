//! RAII span guards and instant events.
//!
//! ```
//! sunder_telemetry::init(sunder_telemetry::Config::spans());
//! {
//!     let _span = sunder_telemetry::span("suite.benchmark")
//!         .field("bench", "Snort");
//!     sunder_telemetry::instant("engine.select", &[("engine", "dense".into())]);
//! } // span recorded with its duration here
//! let dump = sunder_telemetry::finish().unwrap();
//! assert_eq!(dump.events.len(), 2);
//! ```

use crate::event::{Event, EventKind, Field, Value};
use crate::level::spans_enabled;
use crate::recorder::{now_us, record, thread_id};

/// An in-flight span; records a [`EventKind::Span`] event with its
/// duration when dropped. Construct with [`span`].
///
/// A guard created while spans were disabled is inert: it holds no data
/// and records nothing on drop, even if spans are enabled in between.
#[must_use = "a span measures the scope it lives in; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when inert (spans disabled at creation).
    live: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    name: &'static str,
    start_us: u64,
    fields: Vec<Field>,
}

/// Opens a span. Check [`spans_enabled`] first only if computing the
/// fields is itself expensive — the guard is inert when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some(SpanData {
            name,
            start_us: now_us(),
            fields: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attaches a field (builder style). No-op on an inert guard.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(data) = &mut self.live {
            data.fields.push(Field::new(key, value));
        }
        self
    }

    /// Attaches a field in place (for spans that learn things mid-scope).
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(data) = &mut self.live {
            data.fields.push(Field::new(key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(data) = self.live.take() {
            let end = now_us();
            record(Event {
                kind: EventKind::Span,
                name: data.name,
                ts_us: data.start_us,
                dur_us: end.saturating_sub(data.start_us),
                tid: thread_id(),
                fields: data.fields,
            });
        }
    }
}

/// Records an instant event with the given fields. Gated on
/// [`spans_enabled`]; when disabled the field slice is not even read, but
/// callers whose field *construction* allocates should check the level
/// themselves first.
#[inline]
pub fn instant(name: &'static str, fields: &[(&'static str, Value)]) {
    if !spans_enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Instant,
        name,
        ts_us: now_us(),
        dur_us: 0,
        tid: thread_id(),
        fields: fields
            .iter()
            .map(|(k, v)| Field {
                key: k,
                value: v.clone(),
            })
            .collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, Level};
    use crate::recorder::{install, uninstall};

    #[test]
    fn span_records_duration_and_fields() {
        let _lock = crate::test_lock();
        install(64);
        set_level(Level::Spans);
        {
            let _s = span("test.scope").field("k", 7u64);
        }
        set_level(Level::Off);
        let (events, _) = uninstall();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Span);
        assert_eq!(events[0].name, "test.scope");
        assert_eq!(events[0].fields.len(), 1);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = crate::test_lock();
        install(64);
        set_level(Level::Metrics); // metrics only: spans stay off
        {
            let _s = span("test.scope");
            instant("test.instant", &[]);
        }
        set_level(Level::Off);
        let (events, _) = uninstall();
        assert!(events.is_empty());
    }

    #[test]
    fn guard_created_disabled_stays_inert_across_enable() {
        let _lock = crate::test_lock();
        install(64);
        set_level(Level::Off);
        let guard = span("test.scope");
        set_level(Level::Spans);
        drop(guard);
        set_level(Level::Off);
        let (events, _) = uninstall();
        assert!(events.is_empty());
    }
}
