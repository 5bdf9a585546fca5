//! Round-trip conformance: for fuzz-generated automata crossed with
//! every pipeline configuration and every engine kind, compiling to a
//! `.sdb` image, validating/mapping it back, and executing from the
//! borrowed tables must be *byte-identical* to the in-memory pipeline —
//! same report trace, same sink aggregates, same encoding telemetry.
//!
//! On divergence the test writes a self-contained `.anml` reproducer
//! (the oracle harness format, replayable with `parse_reproducer`) and
//! panics with its path.

use std::sync::atomic::{AtomicU64, Ordering};

use sunder_artifact::{db_bytes, write_db, CompiledPipeline, MappedDb, SpecParams};
use sunder_automata::anml;
use sunder_automata::input::InputView;
use sunder_oracle::fuzz::{generate_case, render_reproducer, FuzzOptions};
use sunder_oracle::{Divergence, Failure, PipelineConfig};
use sunder_sim::{CountSink, EngineKind, ReportEvent, ShardedEngine};

const CASES: u64 = 24;

static REPRO_SEQ: AtomicU64 = AtomicU64::new(0);

fn write_reproducer(failure: &Failure) -> std::path::PathBuf {
    let seq = REPRO_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "sunder-artifact-repro-{}-{}-{}.anml",
        std::process::id(),
        failure.case,
        seq
    ));
    std::fs::write(&path, render_reproducer(failure)).expect("write reproducer");
    path
}

fn diverge(
    failure_case: u64,
    nfa: &sunder_automata::Nfa,
    input: &[u8],
    config: PipelineConfig,
    engine: EngineKind,
    detail: String,
) -> ! {
    let failure = Failure {
        case: failure_case,
        nfa: nfa.clone(),
        input: input.to_vec(),
        divergence: Box::new(Divergence {
            config: config.name(),
            engine: engine.name(),
            detail,
            missing: Vec::new(),
            spurious: Vec::new(),
        }),
    };
    let path = write_reproducer(&failure);
    panic!(
        "mapped database diverged from in-memory pipeline \
         (case {failure_case}, {}/{}); reproducer written to {}",
        config.name(),
        engine.name(),
        path.display()
    );
}

fn counts(engine: &ShardedEngine, input: &[u8]) -> (u64, u64) {
    let view = InputView::new(input, engine.symbol_bits(), engine.stride())
        .expect("framing accepted by run_trace must be accepted here");
    let mut sink = CountSink::new();
    engine.run(&view, &mut sink);
    (sink.reports, sink.report_cycles)
}

#[test]
fn mapped_execution_is_byte_identical_to_in_memory() {
    let options = FuzzOptions::default();
    let mut pipelines = 0u64;
    for case in 0..CASES {
        let (nfa, input) = generate_case(&options, case);
        let spec = SpecParams::MaxShards((case as usize % 4) + 1);
        for &config in PipelineConfig::ALL.iter() {
            for &engine in EngineKind::ALL.iter() {
                let db = CompiledPipeline::compile(&nfa, config, spec, engine)
                    .expect("fuzz-generated automata must compile under every config");
                let source_anml = anml::serialize(&nfa);
                let reference = db.parts(spec, &source_anml);

                let bytes = db_bytes(&reference);
                let mapped = match MappedDb::load_bytes(&bytes) {
                    Ok(m) => m,
                    Err(e) => diverge(
                        case,
                        &nfa,
                        &input,
                        config,
                        engine,
                        format!("writer-produced image rejected by loader: {e}"),
                    ),
                };

                // Zero-deserialization really happened: engine tables
                // borrow from the mapping instead of owning copies
                // (vacuous only for shard-less, i.e. empty, automata).
                assert!(
                    mapped.borrowed_tables() > 0 || mapped.num_shards() == 0,
                    "loader must borrow tables from the mapping"
                );
                assert_eq!(mapped.key(), reference.key);
                assert_eq!(mapped.config(), config);
                assert_eq!(mapped.spec(), spec);
                assert_eq!(mapped.engine(), engine);
                assert_eq!(mapped.num_shards(), reference.sharded.num_shards());

                let expected: Vec<ReportEvent> = reference
                    .sharded
                    .run_trace(&input)
                    .expect("in-memory trace");
                let actual = match mapped.sharded().run_trace(&input) {
                    Ok(t) => t,
                    Err(e) => diverge(
                        case,
                        &nfa,
                        &input,
                        config,
                        engine,
                        format!("mapped execution failed: {e}"),
                    ),
                };
                if actual != expected {
                    diverge(
                        case,
                        &nfa,
                        &input,
                        config,
                        engine,
                        format!(
                            "trace mismatch: in-memory {} events, mapped {} events",
                            expected.len(),
                            actual.len()
                        ),
                    );
                }

                // Sink aggregates agree too (the counting path does not
                // go through TraceSink).
                assert_eq!(
                    counts(reference.sharded, &input),
                    counts(mapped.sharded(), &input),
                    "count-sink aggregates diverged (case {case})"
                );

                // Telemetry parity: the stored per-shard encoding
                // histograms equal what the in-memory build counted.
                for s in 0..mapped.num_shards() {
                    assert_eq!(
                        mapped.sharded().shard_sparse(s).encoding_counts,
                        reference.sharded.shard_sparse(s).encoding_counts,
                        "encoding histogram diverged (case {case}, shard {s})"
                    );
                    if engine == EngineKind::Dense {
                        assert!(
                            mapped.sharded().shard_dense(s).is_some(),
                            "dense engine must load dense tables"
                        );
                    }
                }
                pipelines += 1;
            }
        }
    }
    assert_eq!(
        pipelines,
        CASES * PipelineConfig::ALL.len() as u64 * EngineKind::ALL.len() as u64
    );
}

#[test]
fn file_round_trip_through_disk_matches_load_bytes() {
    let (nfa, input) = generate_case(&FuzzOptions::default(), 7);
    let spec = SpecParams::MaxShards(2);
    let db = CompiledPipeline::compile(&nfa, PipelineConfig::ALL[0], spec, EngineKind::ALL[0])
        .expect("compile");
    let source_anml = anml::serialize(&nfa);
    let parts = db.parts(spec, &source_anml);

    let dir = std::env::temp_dir().join(format!("sunder-artifact-rt-{}", std::process::id()));
    let path = dir.join("round-trip.sdb");
    write_db(&parts, &path).expect("write .sdb");

    let from_disk = MappedDb::open(&path).expect("open written database");
    let from_bytes = MappedDb::load_bytes(&db_bytes(&parts)).expect("load bytes");
    assert_eq!(from_disk.key(), from_bytes.key());
    assert_eq!(
        from_disk.sharded().run_trace(&input).expect("disk trace"),
        from_bytes.sharded().run_trace(&input).expect("bytes trace"),
    );
    // The engines stay runnable while the mapping is live; drop order is
    // exercised implicitly when the test ends.
    std::fs::remove_dir_all(&dir).ok();
}
