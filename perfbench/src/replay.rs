//! The traced in-process replay: the same public calls the daemon
//! makes, each timed from outside as a span.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sunder_artifact::format::SectionKind;
use sunder_artifact::validate::validate_bytes;
use sunder_artifact::{db_bytes, DbParts, MappedDb, Mapping, SpecParams};
use sunder_oracle::PipelineConfig;
use sunder_resilience::{Budget, CancelToken};
use sunder_shard::frame::{decode_server, read_raw};
use sunder_shard::{pipeline_key, CompiledPipeline, ServerFrame, ShardSpec, SymbolFramer};
use sunder_sim::{EngineKind, ShardedEngine, TraceSink};

use crate::served::Reference;
use crate::stats::{mean, median, percentile, Digest};
use crate::trace::Tracer;
use crate::workload::Source;

/// Named per-layer values in ledger order.
pub type Ledger = Vec<(&'static str, f64)>;

/// `(span, metric)` for each compile stage.
const COMPILE_STAGES: [(&str, &str); 5] = [
    ("compile.parse", "compile.parse_s"),
    ("compile.key", "compile.key_s"),
    ("compile.transform", "compile.transform_s"),
    ("compile.partition", "compile.partition_s"),
    ("compile.tables", "compile.tables_s"),
];

/// `(span, metric)` for each per-chunk stage.
const CHUNK_STAGES: [(&str, &str); 5] = [
    ("chunk.framing", "chunk.framing_s"),
    ("chunk.engine", "chunk.engine_s"),
    ("chunk.fold", "chunk.fold_s"),
    ("chunk.encode", "chunk.encode_s"),
    ("chunk.client_decode", "chunk.client_decode_s"),
];

/// The pipeline identity a default-flag `compile-db` chose.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Transformation configuration.
    pub config: PipelineConfig,
    /// Sharding parameters.
    pub spec: SpecParams,
    /// Per-shard engine kind.
    pub engine: EngineKind,
}

impl Header {
    /// Reads the identity from a mapped artifact.
    pub fn of(db: &MappedDb) -> Header {
        Header {
            config: db.config(),
            spec: db.spec(),
            engine: db.engine(),
        }
    }
}

/// Compiles `source` stage by stage, as `MatchServer::start` does on a
/// cache miss, then serializes it as `compile-db` would.
pub fn compile(
    source: &Source,
    h: Header,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<CompiledPipeline, String> {
    let id = 1;
    let start = Instant::now();
    let nfa = t.time(id, "compile.parse", Some("compile"), || source.parse())?;
    let spec = ShardSpec::from(h.spec);
    // A cache miss keys the automaton twice: in `get_or_compile` and in
    // `CompiledPipeline::compile`.
    let key = t.time(id, "compile.key", Some("compile"), || {
        pipeline_key(&nfa, h.config, spec, h.engine);
        pipeline_key(&nfa, h.config, spec, h.engine)
    });
    let (transformed, map) = t
        .time(id, "compile.transform", Some("compile"), || {
            h.config.apply(&nfa)
        })
        .map_err(|e| e.to_string())?;
    let plan = t
        .time(id, "compile.partition", Some("compile"), || {
            h.spec.apply(&transformed)
        })
        .map_err(|e| e.to_string())?;
    let sharded = t.time(id, "compile.tables", Some("compile"), || {
        ShardedEngine::from_plan(&transformed, plan, h.engine)
    });
    t.record(id, "compile", None, start, Instant::now());
    let source_anml = sunder_automata::anml::serialize(&nfa);
    let parts = DbParts {
        key: key.0,
        config: h.config,
        spec: h.spec,
        engine: h.engine,
        source_anml: &source_anml,
        nfa: &transformed,
        map,
        sharded: &sharded,
    };
    let image = t.time(2, "artifact.write", None, || db_bytes(&parts));
    for (span, metric) in COMPILE_STAGES {
        ledger.push((metric, t.total(span)));
    }
    ledger.push(("compile.states_in", nfa.num_states() as f64));
    ledger.push(("compile.states_out", transformed.num_states() as f64));
    ledger.push(("compile.shards", sharded.num_shards() as f64));
    ledger.push(("artifact.write_s", t.total("artifact.write")));
    ledger.push(("artifact.bytes", image.len() as f64));
    Ok(CompiledPipeline {
        key,
        config: h.config,
        nfa: transformed,
        map,
        sharded,
    })
}

/// Loads the `compile-db` artifact `reps` times, stage by stage, as a
/// `reload <db>.sdb` does; reports per-stage medians.
pub fn load(sdb: &Path, reps: usize, t: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
    let (mut map_s, mut validate_s, mut decode_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut ratio = 0.0;
    for rep in 0..reps {
        let id = 10 + rep as u64;
        let t0 = Instant::now();
        let mapping = Arc::new(Mapping::open(sdb).map_err(|e| e.to_string())?);
        let t1 = Instant::now();
        let raw = validate_bytes(mapping.as_bytes()).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let tables = raw
            .sections
            .iter()
            .filter(|s| s.kind as u32 >= SectionKind::SpSuccOff as u32)
            .count();
        let t3 = Instant::now();
        let db = MappedDb::from_mapping(Arc::clone(&mapping)).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        map_s.push(t.record(id, "load.map", Some("load"), t0, t1));
        let validate = t.record(id, "load.validate", Some("load"), t1, t2);
        validate_s.push(validate);
        // `from_mapping` validates again before it decodes.
        let from_mapping = t.record(id, "load.from_mapping", Some("load"), t3, t4);
        decode_s.push(from_mapping - validate);
        t.record(id, "load", None, t0, t4);
        ratio = db.borrowed_tables() as f64 / tables.max(1) as f64;
    }
    ledger.push(("load.map_s", median(&map_s)));
    ledger.push(("load.validate_s", median(&validate_s)));
    ledger.push(("load.decode_s", median(&decode_s)));
    ledger.push(("load.borrowed_table_ratio", ratio));
    Ok(())
}

/// Replays one pass over each of `streams` through the per-chunk
/// session path (`StreamSession::feed`, then the reply encode and the
/// client's decode), checking every pass against its reference.
pub fn chunks(
    pipeline: &CompiledPipeline,
    streams: &[Vec<u8>],
    refs: &[Reference],
    chunk: usize,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let stride = pipeline.nfa.stride();
    let (mut reports, mut reply_bytes, mut frontier) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire = Vec::new();
    for (si, (stream, reference)) in streams.iter().zip(refs).enumerate() {
        let mut framer =
            SymbolFramer::new(pipeline.nfa.symbol_bits(), stride).map_err(|e| e.to_string())?;
        let mut state = pipeline.sharded.initial_state();
        let mut digest = Digest::default();
        let pieces: Vec<Option<&[u8]>> = stream.chunks(chunk).map(Some).chain([None]).collect();
        for (k, piece) in pieces.into_iter().enumerate() {
            let id = (1 << 62) | ((si as u64) << 32) | k as u64;
            let start = Instant::now();
            let view = t.time(id, "chunk.framing", Some("chunk"), || match piece {
                Some(bytes) => framer.push(bytes),
                None => framer.finish(),
            });
            let mut out = Vec::new();
            if let Some(view) = view {
                // The daemon's per-chunk budget: cancellable, checked
                // every 64 cycles.
                let budget = Budget::with_cancel(CancelToken::new()).check_every(64);
                let mut trace = TraceSink::new();
                t.time(id, "chunk.engine", Some("chunk"), || {
                    pipeline
                        .sharded
                        .run_chunk(&view, &mut trace, &mut state, &budget)
                });
                out = t
                    .time(id, "chunk.fold", Some("chunk"), || {
                        trace
                            .events
                            .iter()
                            .map(|e| {
                                pipeline
                                    .map
                                    .to_original(e.symbol_position(stride))
                                    .map(|pos| (pos, e.info.id))
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|m| m.to_string())?;
            }
            let n = out.len();
            wire.clear();
            t.time(id, "chunk.encode", Some("chunk"), || {
                ServerFrame::Reports(out).write_to(&mut wire)
            })
            .map_err(|e| e.to_string())?;
            let decoded = t.time(id, "chunk.client_decode", Some("chunk"), || {
                read_raw(&mut Cursor::new(&wire), u32::MAX)
                    .ok()
                    .flatten()
                    .and_then(|body| decode_server(&body).ok())
            });
            t.record(id, "chunk", None, start, Instant::now());
            match decoded {
                Some(ServerFrame::Reports(r)) => digest.extend(&r),
                other => return Err(format!("replay decoded {other:?}")),
            }
            if piece.is_some() {
                reports.push(n as f64);
                reply_bytes.push(wire.len() as f64);
                frontier.push(state.frontier_len() as f64);
            }
        }
        if digest != reference.total {
            return Err(format!(
                "in-process replay of stream {si} gave {} reports, reference {}",
                digest.count, reference.total.count
            ));
        }
    }
    for (span, metric) in CHUNK_STAGES {
        ledger.push((metric, t.total(span)));
    }
    ledger.push(("chunk.reports_p50", median(&reports)));
    ledger.push(("chunk.reports_max", percentile(&reports, 1.0)));
    ledger.push(("chunk.reply_bytes_p50", median(&reply_bytes)));
    ledger.push(("chunk.reply_bytes_max", percentile(&reply_bytes, 1.0)));
    ledger.push(("chunk.frontier_mean", mean(&frontier)));
    Ok(())
}
