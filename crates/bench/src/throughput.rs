//! Sharded multi-stream throughput sweep (library form of the
//! `throughput` binary).
//!
//! The paper's scalability claim is that aggregate throughput grows with
//! subarray count because the automaton is spatially partitioned and
//! streams are processed in parallel. This module sweeps streams ×
//! shards × workers over the suite workloads through the
//! `sunder-shard` batch service and reports aggregate throughput per
//! point — every point gated by the sharded-vs-monolithic trace-equality
//! check ([`sunder_shard::verify_stream`]): a point that fails the gate
//! is recorded as such and fails the whole run.
//!
//! ## Wall clock is the gated truth
//!
//! `mbps_wall` — observed aggregate wall-clock throughput — is the
//! metric the sweep gates on: with a `wall_floor` set, the worst
//! per-benchmark wall-clock speedup (max workers vs 1 worker at the
//! widest shard count) must stay at or above the floor, or the run
//! fails. On a single-core host parallel speedup is not achievable, so
//! the floor defends against *regressions* (per-batch scheduling
//! overhead growing with worker count) rather than demanding scaling.
//!
//! `mbps_modeled` is still reported alongside: per-stream busy costs are
//! measured on a sequential (1-worker) run, then list-scheduled greedily
//! (each stream, in submission order, onto the least-loaded worker) to
//! obtain the modeled makespan for W workers — the figure a W-core host
//! would converge to. It no longer gates anything.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sunder_oracle::PipelineConfig;
use sunder_shard::{verify_stream, BatchOptions, BatchService, ShardSpec};
use sunder_sim::EngineChoice;
use sunder_workloads::Scale;

use crate::args::OnlyFilter;
use crate::suite::select_benchmarks;
use crate::table::TextTable;

/// Stream chunks are aligned to this many bytes so every chunk frames
/// cleanly under all pipeline configurations (stride-4 consumes 4 nibbles
/// = 2 bytes per cycle; 4 covers every config with margin).
const STREAM_ALIGN: usize = 4;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ThroughputOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Scale name recorded in the JSON output.
    pub scale_name: String,
    /// Number of independent input streams per batch.
    pub streams: usize,
    /// Shard counts to sweep (`ShardSpec::MaxShards`).
    pub shard_counts: Vec<usize>,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Pipeline configuration every point compiles under.
    pub config: PipelineConfig,
    /// Engine request (`auto` resolves per compiled pipeline).
    pub engine: EngineChoice,
    /// Timing passes per point (best-of).
    pub runs: u32,
    /// Benchmark filter; empty runs the whole suite.
    pub only: Vec<OnlyFilter>,
    /// Wall-clock gate: minimum acceptable per-benchmark wall speedup
    /// (max workers vs 1 worker). `None` disables the gate.
    pub wall_floor: Option<f64>,
}

impl Default for ThroughputOptions {
    fn default() -> Self {
        ThroughputOptions {
            scale: Scale::small(),
            scale_name: "small".to_string(),
            streams: 8,
            shard_counts: vec![1, 4, 8],
            worker_counts: vec![1, 2, 4, 8],
            config: PipelineConfig::Nibble,
            engine: EngineChoice::Auto,
            runs: 1,
            only: Vec::new(),
            wall_floor: None,
        }
    }
}

/// One measured (shards, workers) point for one benchmark.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Requested shard count (`ShardSpec::MaxShards`).
    pub shards_requested: usize,
    /// Shards the partitioner actually produced (≤ requested).
    pub shards: usize,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Best-of-runs wall clock for the batch.
    pub wall: Duration,
    /// Sum of per-stream busy time (the sequential cost).
    pub busy: Duration,
    /// Modeled makespan: sequential per-stream costs list-scheduled
    /// greedily over `workers`.
    pub makespan: Duration,
    /// Aggregate throughput from the modeled makespan (headline).
    pub mbps_modeled: f64,
    /// Aggregate throughput from observed wall clock.
    pub mbps_wall: f64,
    /// Streams executed off a victim's queue.
    pub steals: u64,
    /// Streams whose merge completed.
    pub streams_ok: usize,
    /// The trace-equality gate: every stream's merged trace was
    /// byte-identical to the monolithic run.
    pub trace_equal: bool,
}

/// One benchmark's sweep results.
#[derive(Debug, Clone)]
pub struct BenchThroughput {
    /// Benchmark name.
    pub name: &'static str,
    /// Total input bytes across all streams.
    pub total_bytes: usize,
    /// Streams the input was split into.
    pub streams: usize,
    /// States of the transformed (executable) automaton.
    pub states: usize,
    /// Pipeline-cache hits across the sweep (worker re-submissions).
    pub cache_hits: u64,
    /// Pipeline-cache misses (= compilations; one per shard count).
    pub cache_misses: u64,
    /// Measured points, in (shards, workers) sweep order.
    pub points: Vec<ThroughputPoint>,
}

impl BenchThroughput {
    /// The widest point (max shards, max workers) and the 1-worker point
    /// at the same shard count; `None` when the sweep has a single
    /// worker count.
    fn wide_and_base(&self) -> Option<(&ThroughputPoint, &ThroughputPoint)> {
        let max_shards = self.points.iter().map(|p| p.shards_requested).max()?;
        let wide = self
            .points
            .iter()
            .filter(|p| p.shards_requested == max_shards)
            .max_by_key(|p| p.workers)?;
        let base = self
            .points
            .iter()
            .find(|p| p.shards_requested == max_shards && p.workers == 1)?;
        if wide.workers == 1 {
            return None;
        }
        Some((wide, base))
    }

    /// Modeled speedup of the widest point (max shards, max workers)
    /// over the 1-worker point at the same shard count; `None` when the
    /// sweep has a single worker count.
    pub fn speedup_modeled(&self) -> Option<f64> {
        let (wide, base) = self.wide_and_base()?;
        Some(base.makespan.as_secs_f64() / wide.makespan.as_secs_f64().max(1e-12))
    }

    /// Observed wall-clock speedup of the widest point over the 1-worker
    /// point at the same shard count — the gated metric. `None` when the
    /// sweep has a single worker count.
    pub fn speedup_wall(&self) -> Option<f64> {
        let (wide, base) = self.wide_and_base()?;
        Some(base.wall.as_secs_f64() / wide.wall.as_secs_f64().max(1e-12))
    }
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Scale name (`small`/`paper`).
    pub scale_name: String,
    /// Pipeline configuration name.
    pub config: &'static str,
    /// Engine request name.
    pub engine: &'static str,
    /// Streams per batch.
    pub streams: usize,
    /// Per-benchmark results.
    pub rows: Vec<BenchThroughput>,
    /// Wall clock for the whole sweep.
    pub wall: Duration,
    /// The wall-clock gate this sweep ran under (from the options).
    pub wall_floor: Option<f64>,
}

impl ThroughputReport {
    /// `true` when every measured point passed the trace-equality gate.
    pub fn all_traces_equal(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.points.iter().all(|p| p.trace_equal))
    }

    /// The smallest per-benchmark modeled speedup (max workers vs 1
    /// worker), or `None` when the sweep has no multi-worker points.
    pub fn min_speedup_modeled(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(BenchThroughput::speedup_modeled)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The smallest per-benchmark observed wall-clock speedup (max
    /// workers vs 1 worker) — the gated metric — or `None` when the
    /// sweep has no multi-worker points.
    pub fn min_speedup_wall(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(BenchThroughput::speedup_wall)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The wall-clock gate: `true` when no floor is set, the sweep has
    /// no multi-worker points, or every benchmark's wall speedup meets
    /// the floor.
    pub fn wall_gate_ok(&self) -> bool {
        match (self.wall_floor, self.min_speedup_wall()) {
            (Some(floor), Some(min)) => min >= floor,
            _ => true,
        }
    }

    /// Exit code: 0 all gates passed, 1 a trace-equality or wall-clock
    /// gate failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.all_traces_equal() || !self.wall_gate_ok())
    }
}

/// Splits `input` into up to `streams` chunks aligned to
/// [`STREAM_ALIGN`] bytes so every chunk frames cleanly under every
/// pipeline configuration. Short inputs yield fewer (never empty)
/// streams.
pub fn split_streams(input: &[u8], streams: usize) -> Vec<Vec<u8>> {
    let streams = streams.max(1);
    let chunk = input.len().div_ceil(streams);
    let chunk = chunk.div_ceil(STREAM_ALIGN) * STREAM_ALIGN;
    if chunk == 0 {
        return Vec::new();
    }
    input.chunks(chunk).map(<[u8]>::to_vec).collect()
}

/// Greedy list scheduling: each stream cost, in submission order, goes to
/// the least-loaded worker; the makespan is the heaviest worker's load.
/// With one worker this is exactly the sequential cost.
pub fn list_schedule_makespan(costs: &[Duration], workers: usize) -> Duration {
    let workers = workers.max(1);
    let mut load = vec![Duration::ZERO; workers];
    for &c in costs {
        let min = load
            .iter_mut()
            .min_by_key(|l| **l)
            .expect("at least one worker");
        *min += c;
    }
    load.into_iter().max().unwrap_or(Duration::ZERO)
}

fn mbps(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12)
}

/// Runs the sweep.
///
/// # Errors
///
/// Returns the failure message on selector, compilation, or verification
/// infrastructure errors. A failed trace-equality gate is *not* an error
/// here — it is recorded in the report and reflected by
/// [`ThroughputReport::exit_code`].
pub fn run_throughput(opts: &ThroughputOptions) -> Result<ThroughputReport, String> {
    let started = Instant::now();
    let benches = select_benchmarks(&opts.only)?;
    let runs = opts.runs.max(1);
    let mut rows = Vec::with_capacity(benches.len());

    for bench in benches {
        let _span = sunder_telemetry::span("throughput.benchmark").field("bench", bench.name());
        let w = bench.build(opts.scale);
        let streams = Arc::new(split_streams(&w.input, opts.streams));
        let total_bytes: usize = streams.iter().map(Vec::len).sum();
        let mut points = Vec::new();
        let mut states = 0;
        let (mut cache_hits, mut cache_misses) = (0, 0);
        // One persistent helper pool sized for the widest worker count:
        // batches reuse parked threads instead of spawning per batch.
        let max_workers = opts.worker_counts.iter().copied().max().unwrap_or(1);

        for &shards in &opts.shard_counts {
            let service = BatchService::with_pool(
                ShardSpec::MaxShards(shards),
                opts.engine,
                max_workers.saturating_sub(1),
            );
            // Sequential per-stream costs: the cost model every worker
            // count of this shard count is scheduled from.
            let mut seq_costs: Vec<Duration> = Vec::new();
            for &workers in &opts.worker_counts {
                let batch_opts = BatchOptions::with_workers(workers);
                let mut best: Option<(Duration, sunder_shard::BatchReport)> = None;
                for _ in 0..runs {
                    let report = service
                        .submit_arc(&w.nfa, opts.config, &streams, &batch_opts)
                        .map_err(|e| format!("{}: pipeline compilation: {e}", bench.name()))?;
                    let wall = report.wall;
                    if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                        best = Some((wall, report));
                    }
                }
                let (wall, report) = best.expect("runs >= 1");
                if workers <= 1 || seq_costs.is_empty() {
                    seq_costs = report.streams.iter().map(|s| s.elapsed).collect();
                }

                let pipeline = service
                    .cache()
                    .get_or_compile(&w.nfa, opts.config)
                    .map_err(|e| format!("{}: cache lookup: {e}", bench.name()))?;
                states = pipeline.nfa.num_states();
                let mut trace_equal = true;
                for s in &report.streams {
                    let ok = verify_stream(&pipeline, s, &streams[s.stream])
                        .map_err(|e| format!("{}: verification: {e}", bench.name()))?;
                    trace_equal &= ok;
                }

                let makespan = list_schedule_makespan(&seq_costs, workers);
                points.push(ThroughputPoint {
                    shards_requested: shards,
                    shards: report.shards,
                    workers,
                    wall,
                    busy: report.busy(),
                    makespan,
                    mbps_modeled: mbps(total_bytes, makespan),
                    mbps_wall: mbps(total_bytes, wall),
                    steals: report.steals,
                    streams_ok: report.ok_count(),
                    trace_equal,
                });
            }
            // The verifying get_or_compile calls above count as hits too;
            // subtract nothing — hits measure skipped re-transformations.
            cache_hits += service.cache().hits();
            cache_misses += service.cache().misses();
        }

        rows.push(BenchThroughput {
            name: bench.name(),
            total_bytes,
            streams: streams.len(),
            states,
            cache_hits,
            cache_misses,
            points,
        });
    }

    Ok(ThroughputReport {
        scale_name: opts.scale_name.clone(),
        config: opts.config.name(),
        engine: opts.engine.name(),
        streams: opts.streams,
        rows,
        wall: started.elapsed(),
        wall_floor: opts.wall_floor,
    })
}

/// Renders the machine-readable summary (the `BENCH_throughput.json`
/// payload).
pub fn render_json(report: &ThroughputReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sunder-throughput-v2\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", report.scale_name));
    out.push_str(&format!("  \"config\": \"{}\",\n", report.config));
    out.push_str(&format!("  \"engine\": \"{}\",\n", report.engine));
    out.push_str(&format!("  \"streams\": {},\n", report.streams));
    out.push_str(&format!(
        "  \"all_traces_equal\": {},\n",
        report.all_traces_equal()
    ));
    // Wall clock is the gated truth; the modeled figure is advisory.
    match report.min_speedup_wall() {
        Some(s) => out.push_str(&format!("  \"min_speedup_wall\": {s:.3},\n")),
        None => out.push_str("  \"min_speedup_wall\": null,\n"),
    }
    match report.wall_floor {
        Some(f) => out.push_str(&format!("  \"wall_floor\": {f:.3},\n")),
        None => out.push_str("  \"wall_floor\": null,\n"),
    }
    out.push_str(&format!("  \"wall_gate_ok\": {},\n", report.wall_gate_ok()));
    match report.min_speedup_modeled() {
        Some(s) => out.push_str(&format!("  \"min_speedup_modeled\": {s:.3},\n")),
        None => out.push_str("  \"min_speedup_modeled\": null,\n"),
    }
    out.push_str("  \"benchmarks\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"total_bytes\": {}, \"streams\": {}, \
             \"states\": {}, \"cache_hits\": {}, \"cache_misses\": {},\n",
            row.name, row.total_bytes, row.streams, row.states, row.cache_hits, row.cache_misses,
        ));
        match row.speedup_wall() {
            Some(s) => out.push_str(&format!("     \"speedup_wall\": {s:.3},\n")),
            None => out.push_str("     \"speedup_wall\": null,\n"),
        }
        match row.speedup_modeled() {
            Some(s) => out.push_str(&format!("     \"speedup_modeled\": {s:.3},\n")),
            None => out.push_str("     \"speedup_modeled\": null,\n"),
        }
        out.push_str("     \"points\": [\n");
        for (j, p) in row.points.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"shards_requested\": {}, \"shards\": {}, \"workers\": {}, \
                 \"wall_ms\": {:.3}, \"busy_ms\": {:.3}, \"modeled_makespan_ms\": {:.3}, \
                 \"mbps_modeled\": {:.3}, \"mbps_wall\": {:.3}, \"steals\": {}, \
                 \"streams_ok\": {}, \"trace_equal\": {}}}{}\n",
                p.shards_requested,
                p.shards,
                p.workers,
                p.wall.as_secs_f64() * 1e3,
                p.busy.as_secs_f64() * 1e3,
                p.makespan.as_secs_f64() * 1e3,
                p.mbps_modeled,
                p.mbps_wall,
                p.steals,
                p.streams_ok,
                p.trace_equal,
                if j + 1 < row.points.len() { "," } else { "" },
            ));
        }
        out.push_str("     ]}");
        out.push_str(if i + 1 < report.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the human-readable sweep table.
pub fn render_table(report: &ThroughputReport) -> String {
    let mut table = TextTable::new([
        "Benchmark",
        "Shards",
        "Workers",
        "Wall ms",
        "Makespan ms",
        "MB/s (model)",
        "MB/s (wall)",
        "Steals",
        "TraceEq",
    ]);
    for row in &report.rows {
        for p in &row.points {
            table.row([
                row.name.to_string(),
                format!("{}/{}", p.shards, p.shards_requested),
                format!("{}", p.workers),
                format!("{:.2}", p.wall.as_secs_f64() * 1e3),
                format!("{:.2}", p.makespan.as_secs_f64() * 1e3),
                format!("{:.1}", p.mbps_modeled),
                format!("{:.1}", p.mbps_wall),
                format!("{}", p.steals),
                format!("{}", p.trace_equal),
            ]);
        }
    }
    let mut out = table.render();
    if let Some(s) = report.min_speedup_wall() {
        out.push_str(&format!(
            "\nmin wall-clock speedup (max workers vs 1, gated): {s:.2}x across {} benchmarks",
            report.rows.len()
        ));
        match report.wall_floor {
            Some(floor) => out.push_str(&format!(
                " — floor {floor:.2}x: {}\n",
                if report.wall_gate_ok() { "OK" } else { "FAIL" }
            )),
            None => out.push('\n'),
        }
    }
    if let Some(s) = report.min_speedup_modeled() {
        out.push_str(&format!(
            "min modeled speedup (max workers vs 1, advisory): {s:.2}x\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_streams_aligns_and_covers() {
        let input: Vec<u8> = (0..100).collect();
        let chunks = split_streams(&input, 8);
        assert!(chunks.len() <= 8 && !chunks.is_empty());
        let glued: Vec<u8> = chunks.iter().flatten().copied().collect();
        assert_eq!(glued, input, "chunks must cover the input exactly");
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.len() % STREAM_ALIGN, 0, "non-final chunks are aligned");
        }
        assert!(split_streams(&[], 4).is_empty());
    }

    #[test]
    fn list_schedule_matches_sequential_and_parallel_bounds() {
        let costs: Vec<Duration> = (1..=8).map(Duration::from_millis).collect();
        let seq = list_schedule_makespan(&costs, 1);
        assert_eq!(seq, Duration::from_millis(36));
        let par = list_schedule_makespan(&costs, 8);
        // Every stream on its own worker: makespan = max cost.
        assert_eq!(par, Duration::from_millis(8));
        assert_eq!(list_schedule_makespan(&[], 4), Duration::ZERO);
    }

    #[test]
    fn sweep_runs_gated_and_models_speedup() {
        let opts = ThroughputOptions {
            shard_counts: vec![1, 4],
            worker_counts: vec![1, 8],
            only: vec![OnlyFilter::exact("ExactMatch")],
            ..ThroughputOptions::default()
        };
        let report = run_throughput(&opts).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.points.len(), 4);
        assert!(report.all_traces_equal(), "gate must pass on a clean run");
        assert_eq!(report.exit_code(), 0);
        // One compilation per shard count; re-submissions hit the cache.
        assert_eq!(row.cache_misses, 2);
        assert!(row.cache_hits >= 2);
        let json = render_json(&report);
        assert!(json.contains("\"schema\": \"sunder-throughput-v2\""));
        assert!(json.contains("\"trace_equal\": true"));
        assert!(json.contains("\"min_speedup_wall\""));
        assert!(json.contains("\"speedup_wall\""));
        let speedup = row.speedup_modeled().expect("multi-worker sweep");
        assert!(
            speedup >= 1.0,
            "modeled speedup must not regress: {speedup}"
        );
        row.speedup_wall().expect("wall speedup must be measured");
    }

    #[test]
    fn wall_floor_gates_the_exit_code() {
        let opts = ThroughputOptions {
            shard_counts: vec![1],
            worker_counts: vec![1, 2],
            only: vec![OnlyFilter::exact("ExactMatch")],
            // An unreachable floor must fail the gate...
            wall_floor: Some(1e9),
            ..ThroughputOptions::default()
        };
        let report = run_throughput(&opts).unwrap();
        assert!(report.all_traces_equal());
        assert!(!report.wall_gate_ok());
        assert_eq!(report.exit_code(), 1);
        let json = render_json(&report);
        assert!(json.contains("\"wall_gate_ok\": false"));
        // ...and a trivially low floor must pass it.
        let passing = ThroughputReport {
            wall_floor: Some(1e-9),
            ..report
        };
        assert!(passing.wall_gate_ok());
        assert_eq!(passing.exit_code(), 0);
    }
}
