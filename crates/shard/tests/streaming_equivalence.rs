//! The chunking-equivalence suite: a suspended/resumed streaming session
//! must be report-identical to a whole-input run — across every suite
//! workload, every pipeline configuration, every engine kind, and shard
//! counts {1, 4} — no matter where the chunk boundaries fall.
//!
//! Chunk boundaries are drawn from a seeded splitmix64 stream and
//! deliberately include 1-byte chunks, so stride-2 and stride-4 cycles
//! (and nibble pairs) are split mid-vector constantly. The session's
//! `SymbolFramer` must carry that partial state across the boundary
//! without ever padding mid-stream.

use std::sync::Arc;

use sunder_oracle::PipelineConfig;
use sunder_resilience::{Budget, SplitMix64};
use sunder_shard::{expected_reports, CompiledPipeline, ShardSpec, StreamSession};
use sunder_sim::{EngineChoice, EngineKind};
use sunder_workloads::{Benchmark, Scale};

/// Splits `input` into chunks whose sizes are drawn from `rng`, biased
/// toward small (1..=9 byte) chunks so mid-stride splits dominate.
fn random_chunks<'a>(input: &'a [u8], rng: &mut SplitMix64) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < input.len() {
        let size = if rng.next().is_multiple_of(4) {
            // Occasionally a big chunk so multi-cycle runs happen too.
            1 + (rng.next() % 64) as usize
        } else {
            1 + (rng.next() % 9) as usize
        };
        let end = (pos + size).min(input.len());
        chunks.push(&input[pos..end]);
        pos = end;
    }
    chunks
}

#[test]
fn chunked_sessions_match_whole_runs_across_the_suite() {
    let scale = Scale::tiny();
    for bench in [Benchmark::Snort, Benchmark::Ranges05, Benchmark::ExactMatch] {
        let w = bench.build(scale);
        for engine in EngineKind::ALL {
            for shards in [1usize, 4] {
                for config in PipelineConfig::ALL {
                    let pipeline = Arc::new(
                        CompiledPipeline::compile(
                            &w.nfa,
                            config,
                            ShardSpec::MaxShards(shards),
                            engine,
                        )
                        .unwrap_or_else(|e| {
                            panic!("{}/{}/{shards}: {e}", bench.name(), config.name())
                        }),
                    );
                    let expected = expected_reports(&pipeline, &w.input).unwrap();
                    let mut rng = SplitMix64::new(0xC0FFEE ^ (shards as u64) << 8 ^ engine as u64);
                    let mut session = StreamSession::new(Arc::clone(&pipeline), 1);
                    let mut got = Vec::new();
                    for chunk in random_chunks(&w.input, &mut rng) {
                        got.extend(session.feed(chunk, &Budget::unlimited()).unwrap());
                    }
                    let (tail, summary) = session.finish(&Budget::unlimited()).unwrap();
                    got.extend(tail);
                    assert_eq!(
                        got,
                        expected,
                        "{}/{}/{engine}/{shards} shards: chunked stream diverged \
                         from the whole-input run",
                        bench.name(),
                        config.name(),
                    );
                    assert_eq!(summary.bytes, w.input.len() as u64);
                }
            }
        }
    }
}

/// Degenerate chunkings — all-1-byte and single-chunk — bracket the
/// random suite above on the densest-reporting workload.
#[test]
fn extreme_chunkings_agree_on_a_dense_reporter() {
    let w = Benchmark::ExactMatch.build(Scale::tiny());
    for config in PipelineConfig::ALL {
        let pipeline = Arc::new(
            CompiledPipeline::compile(&w.nfa, config, ShardSpec::MaxShards(4), EngineChoice::Auto)
                .unwrap(),
        );
        let expected = expected_reports(&pipeline, &w.input).unwrap();
        for chunk_size in [1usize, w.input.len()] {
            let mut session = StreamSession::new(Arc::clone(&pipeline), 1);
            let mut got = Vec::new();
            for chunk in w.input.chunks(chunk_size) {
                got.extend(session.feed(chunk, &Budget::unlimited()).unwrap());
            }
            let (tail, _) = session.finish(&Budget::unlimited()).unwrap();
            got.extend(tail);
            assert_eq!(got, expected, "{} chunk_size={chunk_size}", config.name());
        }
    }
}
