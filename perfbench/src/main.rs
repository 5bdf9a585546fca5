//! Serve-path benchmark for `sunder serve`.
//!
//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! --sunder <path to the sunder binary> [--work <dir>]`
//!
//! With `--trace 0` it launches the real daemon, drives it from two
//! closed-loop sessions over loopback and prints the end-to-end metrics.
//! With `--trace 1` it serves the same traffic once untraced and once
//! with the daemon's `/metrics` listener and client spans on, then
//! replays the same calls in-process stage by stage, and prints the
//! per-layer ledger. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; any report-digest
//! mismatch or refused reload makes `correct` false and the exit code 1.
//! See `README.md` beside this package.

mod client;
mod daemon;
mod replay;
mod served;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sunder_artifact::MappedDb;
use sunder_shard::{http_get, CompiledPipeline};

use crate::daemon::Daemon;
use crate::replay::{Header, Ledger};
use crate::served::{Reference, Served};
use crate::stats::{median, percentile, Rng};
use crate::workload::{Kind, Workload};

/// Each per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
const PER_LAYER: [(&str, &str, &str); 31] = [
    ("compile.parse_s", "s", "setup_s, clamav"),
    ("compile.key_s", "s", "setup_s, clamav"),
    ("compile.transform_s", "s", "setup_s, clamav"),
    ("compile.partition_s", "s", "setup_s, clamav"),
    ("compile.tables_s", "s", "setup_s, all"),
    ("compile.states_in", "count", "explains the compile rows"),
    ("compile.states_out", "count", "explains the compile rows"),
    ("compile.shards", "count", "explains the compile rows"),
    (
        "artifact.write_s",
        "s",
        "no served metric today; setup_s on clamav once compile writes the .sdb image",
    ),
    (
        "artifact.bytes",
        "B",
        "no served metric today; setup_s on clamav once compile writes the .sdb image",
    ),
    ("load.map_s", "s", "reload_s, clamav"),
    ("load.validate_s", "s", "reload_s, clamav"),
    ("load.decode_s", "s", "reload_s, clamav"),
    (
        "load.borrowed_table_ratio",
        "ratio",
        "reload_s, peak_rss_mb, clamav",
    ),
    (
        "chunk.framing_s",
        "s",
        "throughput_mbps, logscan and clamav",
    ),
    (
        "chunk.engine_s",
        "s",
        "throughput_mbps, chunk_p50_ms, logscan and clamav",
    ),
    ("chunk.fold_s", "s", "throughput_mbps, ids"),
    ("chunk.encode_s", "s", "chunk_p50_ms, ids"),
    ("chunk.client_decode_s", "s", "chunk_p50_ms, ids"),
    (
        "chunk.reports_p50",
        "count",
        "chunk_p99_ms, ids (bounded replies)",
    ),
    (
        "chunk.reports_max",
        "count",
        "chunk_p99_ms, ids (bounded replies)",
    ),
    (
        "chunk.reply_bytes_p50",
        "B",
        "chunk_p99_ms, ids (bounded replies)",
    ),
    (
        "chunk.reply_bytes_max",
        "B",
        "chunk_p99_ms, ids (bounded replies)",
    ),
    (
        "chunk.frontier_mean",
        "count",
        "explains chunk.engine_s, logscan",
    ),
    ("session.open_ms", "ms", "throughput_mbps, clamav"),
    ("serve.queue_wait_us_mean", "us", "chunk_p50_ms, all"),
    (
        "serve.service_us_mean",
        "us",
        "chunk_p50_ms, throughput_mbps, all",
    ),
    ("serve.transport_us_mean", "us", "chunk_p50_ms, ids"),
    ("serve.backpressure_stalls", "count", "chunk_p99_ms, ids"),
    (
        "host.table_walk_mbps",
        "MB/s",
        "nothing: the calibration rates are printed beside",
    ),
    (
        "harness.tracing_overhead",
        "ratio",
        "nothing: untraced over traced served throughput",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sunder: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |key: &str| value(key).ok_or_else(|| format!("missing {key}"));
    let number = |key: &str| -> Result<f64, String> {
        required(key)?
            .parse::<f64>()
            .map_err(|e| format!("invalid {key}: {e}"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: required("--workload")?.to_string(),
        seed: required("--seed")?
            .parse()
            .map_err(|e| format!("invalid --seed: {e}"))?,
        seconds,
        trace,
        sunder: PathBuf::from(required("--sunder")?),
        work: PathBuf::from(value("--work").unwrap_or("target/perfbench-work")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kinds = if args.workload == "all" {
        Kind::ALL.to_vec()
    } else if let Some(kind) = Kind::from_name(&args.workload) {
        vec![kind]
    } else {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (use {} or all)",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut all_correct = true;
    for kind in kinds {
        let dir = args.work.join(format!(
            "{}-{}-{}",
            kind.name(),
            args.seed,
            std::process::id()
        ));
        let result = std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))
            .and_then(|()| run_workload(kind, &args, &dir));
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", kind.name());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Launches per run for the `setup_s` median; the last one serves.
/// The daemon's accept loop polls every 5 ms, so a millisecond-scale
/// set-up needs many launches for a steady median.
fn setup_launches(kind: Kind) -> usize {
    match kind {
        Kind::ClamavStride2Reload => 3,
        _ => 9,
    }
}

fn log(kind: Kind, started: Instant, what: &str) {
    eprintln!(
        "perfbench: {} +{:.2}s {what}",
        kind.name(),
        started.elapsed().as_secs_f64()
    );
}

/// Everything both modes share: traffic, product artifact, references.
struct Prepared {
    workload: Workload,
    serve_args: Vec<String>,
    sdb: PathBuf,
    header: Header,
    refs: Vec<Reference>,
    table_walk_mbps: f64,
}

fn prepare(kind: Kind, args: &Args, dir: &Path, started: Instant) -> Result<Prepared, String> {
    let (_, stream_bytes) = kind.pool();
    let workload = workload::build(kind, args.seed, stream_bytes);
    let (file, text) = workload.source.file();
    let source_path = dir.join(file);
    std::fs::write(&source_path, text).map_err(|e| format!("write {file}: {e}"))?;
    let source_args = vec![
        workload.source.flag().to_string(),
        source_path.display().to_string(),
    ];
    let mut serve_args = source_args.clone();
    if let Some(config) = kind.config_flag() {
        serve_args.extend(["--config".to_string(), config.to_string()]);
    }
    log(kind, started, "traffic generated");

    // The product's own artifact: reload target, pipeline identity for
    // the replay, and the reference pipeline.
    let sdb = dir.join("db.sdb");
    daemon::compile_db(&args.sunder, &source_args, kind.config_flag(), &sdb)?;
    let mapped = MappedDb::open(&sdb).map_err(|e| format!("open {}: {e}", sdb.display()))?;
    let header = Header::of(&mapped);
    let pipeline = CompiledPipeline::from(mapped.into_parts());
    log(kind, started, "compile-db done");
    let refs = workload
        .streams
        .iter()
        .map(|s| Reference::compute(&pipeline, s, kind.chunk_bytes()))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(i) = refs.iter().position(|r| r.total.count == 0) {
        return Err(format!(
            "stream {i} has no reports: the check would be vacuous"
        ));
    }
    let reports: u64 = refs.iter().map(|r| r.total.count).sum();
    let total: usize = workload.streams.iter().map(Vec::len).sum();
    let density = reports as f64 / total as f64;
    let (lo, hi) = kind.density_band();
    if !(lo..=hi).contains(&density) {
        return Err(format!(
            "{density} reports/B is outside the stated band [{lo}, {hi}]"
        ));
    }
    eprintln!(
        "perfbench: {}: {reports} reference reports ({} planted hits) over {total} B",
        kind.name(),
        workload.planted
    );
    log(kind, started, "references computed");
    let table_walk_mbps = table_walk_mbps(&workload.streams);
    Ok(Prepared {
        workload,
        serve_args,
        sdb,
        header,
        refs,
        table_walk_mbps,
    })
}

/// Host calibration: a naive 256-wide `u32` table walk over `bytes`.
fn table_walk_mbps(bytes: &[Vec<u8>]) -> f64 {
    const STATES: usize = 64;
    let mut rng = Rng::new(0x7AB1E, 0);
    let table: Vec<u32> = (0..STATES * 256)
        .map(|_| rng.below(STATES) as u32)
        .collect();
    let started = Instant::now();
    let mut state = 0u32;
    let mut total = 0usize;
    for b in bytes {
        for &c in std::hint::black_box(b) {
            state = table[state as usize * 256 + c as usize];
        }
        total += b.len();
    }
    std::hint::black_box(state);
    total as f64 / 1e6 / started.elapsed().as_secs_f64()
}

fn run_workload(kind: Kind, args: &Args, dir: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let p = prepare(kind, args, dir, started)?;
    println!(
        "workload {} seed {}: {} sessions, {} KiB chunks, {:.0} s window, {} pool stream(s) of {} MiB",
        kind.name(),
        args.seed,
        served::SESSIONS,
        kind.chunk_bytes() >> 10,
        args.seconds,
        p.workload.streams.len(),
        p.workload.streams[0].len() >> 20,
    );
    if args.trace {
        traced(kind, args, dir, &p, started)
    } else {
        untraced(kind, args, &p, started)
    }
}

/// On clamav, the `reload <db>.sdb` commands to issue beside the
/// traffic of a `seconds` window: one every two seconds.
fn reloads(kind: Kind, sdb: &Path, seconds: f64) -> Option<(&Path, usize)> {
    let count = ((seconds / 2.0).round() as usize).max(2);
    (kind == Kind::ClamavStride2Reload).then_some((sdb, count))
}

/// The end-to-end run.
fn untraced(kind: Kind, args: &Args, p: &Prepared, started: Instant) -> Result<bool, String> {
    let launches = setup_launches(kind);
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..launches {
        let (d, secs) = Daemon::launch(&args.sunder, &p.serve_args, false)?;
        setups.push(secs);
        if i + 1 < launches {
            d.quit()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one launch");
    log(kind, started, "daemon up");
    let window = Duration::from_secs_f64(args.seconds);
    let mut s = served::run(
        &mut daemon,
        &p.workload,
        &p.refs,
        window,
        reloads(kind, &p.sdb, args.seconds),
        None,
    );
    log(kind, started, "window done");
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.quit()?;
    check_sessions(kind, &mut s);

    // Rows marked `true` are the end-to-end metrics `BENCHMARK.json`
    // gates on, and make up the result line. The p99 and reload times
    // are printed only: their run-to-run spread on a shared two-core
    // host is wider than any bound the gate allows (see README.md).
    let n = s.rtt_ms.len();
    let rows = [
        (
            "setup_s",
            "s",
            true,
            median(&setups),
            format!("median of {launches} launches, launch to first HelloAck"),
        ),
        (
            "throughput_mbps",
            "MB/s",
            true,
            s.throughput_mbps(),
            format!(
                "{} B acked over {:.3} s, summed over {} sessions",
                s.bytes_acked, s.wall_s, s.sessions
            ),
        ),
        (
            "chunk_p50_ms",
            "ms",
            true,
            percentile(&s.rtt_ms, 0.5),
            format!("n={n} chunks, pooled over {} sessions", s.sessions),
        ),
        (
            "chunk_p99_ms",
            "ms",
            false,
            percentile(&s.rtt_ms, 0.99),
            format!(
                "n={n} chunks, {} beyond it",
                n - (n as f64 * 0.99).ceil() as usize
            ),
        ),
        (
            "reload_s",
            "s",
            false,
            median(&s.reload_s),
            format!("median of {} reloads beside traffic", s.reload_s.len()),
        ),
        (
            "peak_rss_mb",
            "MB",
            true,
            peak_rss_mb,
            "daemon VmHWM".to_string(),
        ),
        (
            "failed_chunk_ratio",
            "ratio",
            false,
            s.failed as f64 / s.attempted.max(1) as f64,
            format!("{} of {} chunks", s.failed, s.attempted),
        ),
        (
            "host.table_walk_mbps",
            "MB/s",
            false,
            p.table_walk_mbps,
            "calibration".to_string(),
        ),
    ];
    let mut gated = Vec::new();
    // Only clamav reloads.
    let rows = rows
        .iter()
        .filter(|r| r.0 != "reload_s" || !s.reload_s.is_empty());
    for (name, unit, gate, value, note) in rows {
        let how = if *gate { "gated" } else { "printed" };
        println!("  {name:<26} {value:>12.4} {unit:<6} {how:<7} ({note})");
        if *gate {
            gated.push((*name, *unit, *value));
        }
    }
    Ok(finish(&s, &gated))
}

/// Requires every session to have been checked, and on clamav at least
/// one session opened after a reload.
fn check_sessions(kind: Kind, s: &mut Served) {
    if s.sessions == 0 {
        s.errors.push("no session completed".into());
    }
    if kind == Kind::ClamavStride2Reload && s.sessions_after_reload == 0 {
        s.errors.push("no session opened after a reload".into());
    }
    println!(
        "  correctness: {} sessions checked against expected_reports ({} opened after a reload), {} error(s)",
        s.sessions,
        s.sessions_after_reload,
        s.errors.len()
    );
    for e in &s.errors {
        println!("  ERROR {e}");
    }
}

/// Prints the result line and returns whether the run was correct.
fn finish(s: &Served, metrics: &[(&str, &str, f64)]) -> bool {
    let correct = s.errors.is_empty() && s.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.attempted.max(1),
        s.failed,
        body.join(", ")
    );
    correct
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The per-layer run.
fn traced(
    kind: Kind,
    args: &Args,
    dir: &Path,
    p: &Prepared,
    started: Instant,
) -> Result<bool, String> {
    let origin = Instant::now();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let reloads = reloads(kind, &p.sdb, args.seconds / 2.0);

    // 1. Untraced, for the overhead baseline.
    let (mut plain, _) = Daemon::launch(&args.sunder, &p.serve_args, false)?;
    let mut base = served::run(&mut plain, &p.workload, &p.refs, half, reloads, None);
    plain.quit()?;
    log(kind, started, "untraced window done");

    // 2. Traced: daemon metrics on, client spans recorded.
    let (mut obs_daemon, _) = Daemon::launch(&args.sunder, &p.serve_args, true)?;
    let obs = obs_daemon
        .obs
        .ok_or("daemon has no observability listener")?;
    let scrape = || -> Result<String, String> {
        let (status, body) = http_get(obs, "/metrics", Duration::from_secs(10))?;
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("/metrics answered {status}"))
        }
    };
    let before = scrape()?;
    let mut s = served::run(
        &mut obs_daemon,
        &p.workload,
        &p.refs,
        half,
        reloads,
        Some(origin),
    );
    let after = scrape()?;
    obs_daemon.quit()?;
    log(kind, started, "traced window done");
    let delta =
        |family: &str| served::scrape_sum(&after, family) - served::scrape_sum(&before, family);
    let queue_us = delta("serve_queue_wait_us_sum") / delta("serve_queue_wait_us_count").max(1.0);
    let service_us =
        delta("serve_chunk_service_us_sum") / delta("serve_chunk_service_us_count").max(1.0);
    let rtt_us = stats::mean(&s.rtt_ms) * 1e3;

    // 3. The same calls in-process.
    let mut t = s.tracer.take().expect("traced run records spans");
    let mut ledger: Ledger = Vec::new();
    let pipeline = replay::compile(&p.workload.source, p.header, &mut t, &mut ledger)?;
    replay::load(&p.sdb, 3, &mut t, &mut ledger)?;
    replay::chunks(
        &pipeline,
        &p.workload.streams,
        &p.refs,
        kind.chunk_bytes(),
        &mut t,
        &mut ledger,
    )?;
    log(kind, started, "in-process replay done");

    ledger.push(("session.open_ms", median(&s.open_ms)));
    ledger.push(("serve.queue_wait_us_mean", queue_us));
    ledger.push(("serve.service_us_mean", service_us));
    ledger.push(("serve.transport_us_mean", rtt_us - queue_us - service_us));
    ledger.push((
        "serve.backpressure_stalls",
        delta("serve_backpressure_stalls_total"),
    ));
    ledger.push(("host.table_walk_mbps", p.table_walk_mbps));
    ledger.push((
        "harness.tracing_overhead",
        base.throughput_mbps() / s.throughput_mbps(),
    ));

    let spans_path =
        dir.parent()
            .unwrap_or(dir)
            .join(format!("trace-{}-{}.jsonl", kind.name(), args.seed));
    t.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!(
        "  spans: {} written to {}",
        t.spans.len(),
        spans_path.display()
    );
    println!(
        "  served: untraced {:.3} MB/s, traced {:.3} MB/s over {} + {} chunks",
        base.throughput_mbps(),
        s.throughput_mbps(),
        base.rtt_ms.len(),
        s.rtt_ms.len()
    );

    let mut rows = Vec::new();
    for (name, unit, moves) in PER_LAYER {
        let value = ledger
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("ledger is missing {name}"))?;
        println!("  {name:<26} {value:>14.6} {unit:<6} moves: {moves}");
        rows.push((name, unit, value));
    }
    // Both served windows count toward attempts and failures.
    base.errors.append(&mut s.errors);
    base.attempted += s.attempted;
    base.failed += s.failed;
    base.sessions += s.sessions;
    base.sessions_after_reload += s.sessions_after_reload;
    check_sessions(kind, &mut base);
    Ok(finish(&base, &rows))
}
