//! Engine comparison sweep: runs the full 19-benchmark suite on both
//! functional engines (sparse, dense bit-parallel) under the
//! panic-isolating supervisor, verifies that both produce a
//! byte-identical report trace, measures per-engine throughput, records
//! the compile-time selector's pick and reason, and writes a
//! machine-readable summary to `BENCH_engine.json`.
//!
//! Usage: `cargo run -p sunder-bench --release --bin suite
//! [--small | --paper] [--workers N] [--out PATH] [--runs N]
//! [--deadline-ms N] [--fault-plan FILE] [--only A,B,...] [--only~=SUB]
//! [--telemetry PATH] [--quiet]` (`--only` matches exact names,
//! `--only~=` matches substrings; see `--help`)
//!
//! Default scale is `--small` (seconds, not minutes). Benchmarks fan out
//! across supervised worker threads; a benchmark that panics, times out,
//! or fails is reported by name while the rest of the suite completes.
//! The JSON and table are merged in benchmark order, identical for any
//! worker count. With `--telemetry PATH` (or `SUNDER_TELEMETRY`) the run
//! also records spans, metrics, and cycle-model stall attribution to a
//! JSON-lines artifact — render it with `sunder telemetry-report`.
//!
//! Exit codes: 0 all ok, 1 engines disagreed on a report trace, 2 usage
//! or I/O error, 3 suite completed with failed jobs (partial results).

use std::process::ExitCode;

use sunder_bench::args::BenchArgs;
use sunder_bench::error::{bench_main, BenchError, Context};
use sunder_bench::suite::{render_json, render_table, run_suite, select_benchmarks, SuiteOptions};
use sunder_telemetry::progress;

fn run() -> Result<u8, BenchError> {
    let args = BenchArgs::from_env()?;
    if args.print_help(
        "suite",
        "Engine comparison sweep across the full benchmark suite.",
    ) {
        return Ok(0);
    }
    args.init_telemetry();
    let (scale, scale_name) = args.scale_small_default();
    let benches = select_benchmarks(&args.only).map_err(BenchError::msg)?;
    let out_path = args.out.as_deref().unwrap_or("BENCH_engine.json");

    let opts = SuiteOptions {
        scale,
        scale_name: scale_name.to_string(),
        runs: args.runs.unwrap_or(if args.paper { 1 } else { 7 }),
        workers: args.workers,
        deadline: args.deadline,
        plan: args.plan.clone(),
        only: args.only.clone(),
    };

    progress(&format!(
        "Engine suite: {} benchmarks x 2 engines ({scale_name} scale, {} workers{})",
        benches.len(),
        opts.workers,
        if opts.plan.is_empty() {
            String::new()
        } else {
            format!(", {} injected faults", opts.plan.faults.len())
        }
    ));
    let report = run_suite(&opts);

    print!("{}", render_table(&report));
    std::fs::write(out_path, render_json(&report))
        .with_context(|| format!("write JSON summary {out_path:?}"))?;
    progress(&format!("Machine-readable summary written to {out_path}"));

    if !report.traces_all_equal() {
        eprintln!("ERROR: engines disagreed on at least one report trace");
    }
    if !report.summary.no_failures() {
        eprintln!("WARNING: suite completed with failures: {}", report.summary);
    }
    args.finish_telemetry()?;
    Ok(report.exit_code())
}

fn main() -> ExitCode {
    bench_main(run)
}
