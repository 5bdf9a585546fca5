//! Supervisor telemetry: the lifecycle spans, instants and counters a
//! supervised run records.
//!
//! The telemetry recorder is process-global, so this test lives in a
//! binary of its own: any other test calling `supervise` while the
//! recorder is on would leak its jobs into the dump.

use sunder_resilience::{supervise, JobError, JobValue, SupervisorPolicy, SupervisorSummary};

fn idx_name(i: usize, _: &u32) -> String {
    format!("item-{i}")
}

/// Each job gets one `supervisor.job` span with its final status, and
/// retries/panics/timeouts surface as instants.
#[test]
fn job_lifecycle_emits_spans_and_instants() {
    let items: Vec<u32> = (0..4).collect();
    let policy = SupervisorPolicy {
        retries: 2,
        ..SupervisorPolicy::default()
    };
    sunder_telemetry::init(sunder_telemetry::Config::spans());
    let reports = supervise(&items, 1, &policy, idx_name, |i, &x, ctx| match i {
        1 => panic!("boom"),
        2 if ctx.attempt < 1 => Err(JobError::Transient("flake".into())),
        _ => Ok(JobValue::Ok(x)),
    });
    let dump = sunder_telemetry::finish().unwrap();
    assert_eq!(SupervisorSummary::of(&reports).successes(), 3);

    let spans: Vec<_> = dump
        .events
        .iter()
        .filter(|e| e.name == "supervisor.job")
        .collect();
    assert_eq!(spans.len(), 4, "one lifecycle span per job");
    let status_of = |job: &str| {
        spans
            .iter()
            .find(|s| {
                s.fields.iter().any(|f| {
                    f.key == "job" && f.value == sunder_telemetry::Value::Str(job.to_string())
                })
            })
            .and_then(|s| s.fields.iter().find(|f| f.key == "status"))
            .map(|f| f.value.clone())
    };
    assert_eq!(
        status_of("item-1"),
        Some(sunder_telemetry::Value::Str("panicked".into()))
    );
    assert_eq!(
        status_of("item-2"),
        Some(sunder_telemetry::Value::Str("ok".into()))
    );
    assert_eq!(
        dump.events.iter().filter(|e| e.name == "job.panic").count(),
        1
    );
    assert_eq!(
        dump.events.iter().filter(|e| e.name == "job.retry").count(),
        1
    );
    assert_eq!(
        dump.metrics
            .counter("supervisor_jobs_total", &[("status", "ok")]),
        Some(3)
    );
    assert_eq!(
        dump.metrics
            .counter("supervisor_jobs_total", &[("status", "panicked")]),
        Some(1)
    );
}
