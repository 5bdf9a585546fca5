//! Sharded multi-stream throughput sweep: splits each suite workload
//! into N independent streams, runs them through the `sunder-shard`
//! batch service across a shards × workers grid, verifies every point
//! against the monolithic trace (the sharded-vs-monolithic equality
//! gate), and writes `BENCH_throughput.json`.
//!
//! Usage: `cargo run -p sunder-bench --release --bin throughput --
//! [--small | --paper] [--streams N] [--shards A,B,...]
//! [--sweep-workers A,B,...] [--config NAME] [--wall-floor X|off]
//! [--runs N] [--out PATH] [--only NAMES | --only~=SUB]
//! [--telemetry PATH] [--scrape-hz N] [--quiet]`
//!
//! `--scrape-hz N` runs a concurrent thread taking a metrics snapshot
//! and rendering the Prometheus exposition N times a second for the
//! whole sweep — the in-process cost a `/metrics` scraper imposes on a
//! live daemon. CI compares `mbps_wall` with and without it to gate
//! scrape overhead.
//!
//! Defaults: small scale, 8 streams, shards 1,4,8, workers 1,2,4,8,
//! nibble pipeline, `auto` engine, wall floor 0.85.
//!
//! The gated metric is `mbps_wall`: per benchmark, the observed
//! wall-clock speedup of the widest point (max workers) over the
//! 1-worker point must be at least the floor. On single-core hosts this
//! defends against scheduling-overhead regressions; `--wall-floor off`
//! disables the gate. `mbps_modeled` (measured per-stream costs
//! list-scheduled over W workers) is reported for reference only.
//!
//! Exit codes: 0 all gates passed, 1 a trace-equality or wall-clock
//! gate failed, 2 usage or I/O error.

use std::process::ExitCode;

use sunder_bench::args::BenchArgs;
use sunder_bench::error::{bench_main, BenchError, Context};
use sunder_bench::throughput::{render_json, render_table, run_throughput, ThroughputOptions};
use sunder_oracle::PipelineConfig;
use sunder_telemetry::progress;

fn parse_usize_list(value: &str, flag: &str) -> Result<Vec<usize>, BenchError> {
    let list: Result<Vec<usize>, _> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::parse::<usize>)
        .collect();
    let list =
        list.with_context(|| format!("invalid {flag} value {value:?}: expected integers"))?;
    if list.is_empty() {
        return Err(BenchError::msg(format!(
            "{flag} requires at least one value"
        )));
    }
    Ok(list)
}

fn parse_config(name: &str) -> Result<PipelineConfig, BenchError> {
    PipelineConfig::ALL
        .into_iter()
        .find(|c| c.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            BenchError::msg(format!(
                "unknown --config {name:?}: expected identity, nibble, stride2, or stride4"
            ))
        })
}

fn run() -> Result<u8, BenchError> {
    let args = BenchArgs::from_env()?;
    if args.print_help(
        "throughput",
        "Sharded multi-stream throughput sweep gated on trace equality and\n\
         wall-clock speedup. Extra flags: --streams N, --shards A,B,...,\n\
         --sweep-workers A,B,..., --config identity|nibble|stride2|stride4,\n\
         --wall-floor X|off (default 0.85), --scrape-hz N (concurrent\n\
         snapshot+exposition renders, for the scrape-overhead gate).",
    ) {
        return Ok(0);
    }
    args.init_telemetry();
    let (scale, scale_name) = args.scale_small_default();

    let mut opts = ThroughputOptions {
        scale,
        scale_name: scale_name.to_string(),
        runs: args.runs.unwrap_or(1),
        only: args.only.clone(),
        wall_floor: Some(0.85),
        ..ThroughputOptions::default()
    };
    let mut scrape_hz: u32 = 0;
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        let mut value = |flag: &str| {
            rest.next()
                .cloned()
                .with_context(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--streams" => {
                let v = value("--streams")?;
                opts.streams = v
                    .parse()
                    .with_context(|| format!("invalid --streams value {v:?}"))?;
            }
            "--shards" => opts.shard_counts = parse_usize_list(&value("--shards")?, "--shards")?,
            "--sweep-workers" => {
                opts.worker_counts =
                    parse_usize_list(&value("--sweep-workers")?, "--sweep-workers")?;
            }
            "--config" => opts.config = parse_config(&value("--config")?)?,
            "--scrape-hz" => {
                let v = value("--scrape-hz")?;
                scrape_hz = v
                    .parse()
                    .with_context(|| format!("invalid --scrape-hz value {v:?}"))?;
            }
            "--wall-floor" => {
                let v = value("--wall-floor")?;
                opts.wall_floor = if v.eq_ignore_ascii_case("off") {
                    None
                } else {
                    Some(
                        v.parse()
                            .with_context(|| format!("invalid --wall-floor value {v:?}"))?,
                    )
                };
            }
            other => {
                return Err(BenchError::msg(format!(
                    "unknown argument {other:?} (see --help)"
                )));
            }
        }
    }

    let out_path = args.out.as_deref().unwrap_or("BENCH_throughput.json");
    progress(&format!(
        "Throughput sweep: {} streams x shards {:?} x workers {:?} ({} pipeline, {scale_name} scale)",
        opts.streams, opts.shard_counts, opts.worker_counts, opts.config.name(),
    ));

    // The simulated scraper: snapshot + render at the requested rate on
    // its own thread, exactly the work a /metrics request costs the
    // serving process (minus the socket).
    let scrape_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = (scrape_hz > 0).then(|| {
        let stop = std::sync::Arc::clone(&scrape_stop);
        let period = std::time::Duration::from_secs_f64(1.0 / f64::from(scrape_hz));
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let snap = sunder_telemetry::snapshot();
                std::hint::black_box(sunder_telemetry::render_prometheus(&snap));
                scrapes += 1;
                std::thread::sleep(period);
            }
            scrapes
        })
    });

    let report = run_throughput(&opts).map_err(BenchError::msg)?;

    scrape_stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(handle) = scraper {
        let scrapes = handle.join().expect("scraper thread panicked");
        progress(&format!(
            "Concurrent scraper: {scrapes} exposition renders at {scrape_hz} Hz"
        ));
    }
    print!("{}", render_table(&report));
    std::fs::write(out_path, render_json(&report))
        .with_context(|| format!("write JSON summary {out_path:?}"))?;
    progress(&format!("Machine-readable summary written to {out_path}"));

    if !report.all_traces_equal() {
        eprintln!("ERROR: a sharded run diverged from its monolithic trace");
    }
    if !report.wall_gate_ok() {
        eprintln!(
            "ERROR: wall-clock speedup {:?} fell below the floor {:?}",
            report.min_speedup_wall(),
            report.wall_floor
        );
    }
    args.finish_telemetry()?;
    Ok(report.exit_code())
}

fn main() -> ExitCode {
    bench_main(run)
}
