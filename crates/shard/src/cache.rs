//! Content-addressed cache of compiled execution pipelines.
//!
//! Compiling a pipeline — FlexAmata nibble decomposition, temporal
//! striding, partitioning into shards — dominates the setup cost of a
//! batch submission and depends only on the automaton and the pipeline
//! configuration, never on the input streams. The cache keys a compiled
//! artifact by a 64-bit FNV-1a hash over the canonical textual (ANML)
//! serialization of the source automaton, the configuration name, and
//! the sharding spec, so repeated stream submissions against the same
//! rule set skip re-transformation entirely.
//!
//! The canonical serialization makes the key *content*-addressed: two
//! structurally identical automata hash identically no matter how they
//! were built. Hits and misses are exported as the
//! `pipeline_cache_hits_total` / `pipeline_cache_misses_total` telemetry
//! counters.
//!
//! With [`PipelineCache::with_disk`] the cache gains a second,
//! process-crossing tier: every compilation is written through as a
//! `<key>.sdb` artifact (`sunder-artifact` format), and a memory miss
//! first tries to *map* `dir/<key>.sdb` — validated, zero-copy — before
//! falling back to compilation. A stale, corrupt, or mismatched file is
//! simply ignored (the loader's typed rejection is the safety gate), so
//! the disk tier can never make a lookup fail that compilation would
//! have satisfied. Disk hits are counted separately
//! (`pipeline_cache_disk_hits_total`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sunder_artifact::{DbParts, LoadedPipeline, MappedDb, SpecParams};
use sunder_automata::partition::{partition, partition_into, PartitionOptions, ShardPlan};
use sunder_automata::{anml, AutomataError, Nfa};
use sunder_oracle::PipelineConfig;
use sunder_sim::{EngineChoice, Selection, ShardedEngine};
use sunder_transform::PositionMap;

/// How a cached pipeline is sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Balance into at most this many shards
    /// ([`sunder_automata::partition::partition_into`]).
    MaxShards(usize),
    /// Pack toward a per-shard STE budget
    /// ([`sunder_automata::partition::partition`]).
    Budget(PartitionOptions),
}

impl ShardSpec {
    fn apply(self, nfa: &Nfa) -> Result<ShardPlan, AutomataError> {
        match self {
            ShardSpec::MaxShards(k) => partition_into(nfa, k),
            ShardSpec::Budget(opts) => partition(nfa, &opts),
        }
    }

    /// The artifact-layer form of this spec (what `.sdb` files persist).
    pub fn params(self) -> SpecParams {
        match self {
            ShardSpec::MaxShards(k) => SpecParams::MaxShards(k),
            ShardSpec::Budget(opts) => SpecParams::Budget(opts),
        }
    }

    /// Stable text folded into the cache key. Delegates to
    /// [`SpecParams::key_text`] so the in-memory key and the on-disk
    /// artifact key can never drift apart.
    pub fn key_text(self) -> String {
        self.params().key_text()
    }
}

impl From<SpecParams> for ShardSpec {
    fn from(params: SpecParams) -> ShardSpec {
        match params {
            SpecParams::MaxShards(k) => ShardSpec::MaxShards(k),
            SpecParams::Budget(opts) => ShardSpec::Budget(opts),
        }
    }
}

/// A 64-bit content hash identifying one compiled pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineKey(pub u64);

impl std::fmt::Display for PipelineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(parts: &[&str]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Separator byte so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Computes the content-addressed key for (automaton, config, sharding,
/// engine request). Exposed so artifacts can be correlated across
/// processes. The key covers the request (`auto`, `sparse` or `dense`),
/// not the engine `auto` resolves to, so it is known before compiling.
pub fn pipeline_key(
    nfa: &Nfa,
    config: PipelineConfig,
    spec: ShardSpec,
    engine: impl Into<EngineChoice>,
) -> PipelineKey {
    let engine = engine.into();
    PipelineKey(fnv1a(&[
        config.name(),
        &spec.key_text(),
        engine.name(),
        &anml::serialize(nfa),
    ]))
}

/// One compiled pipeline: the transformed automaton, the position map
/// folding its reports back to original-symbol coordinates, and the
/// sharded engine ready to execute it.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The content hash this artifact is cached under.
    pub key: PipelineKey,
    /// The configuration that produced it.
    pub config: PipelineConfig,
    /// The transformed (executable) automaton.
    pub nfa: Nfa,
    /// Folds transformed report positions to original-symbol coordinates.
    pub map: PositionMap,
    /// Sharded execution over the transformed automaton.
    pub sharded: ShardedEngine,
}

impl CompiledPipeline {
    /// Compiles `nfa` under `config`, shards per `spec`, and resolves
    /// the engine request once (see `sunder_sim::select`), without
    /// caching.
    ///
    /// # Errors
    ///
    /// Propagates transformation and partitioning failures.
    pub fn compile(
        nfa: &Nfa,
        config: PipelineConfig,
        spec: ShardSpec,
        engine: impl Into<EngineChoice>,
    ) -> Result<CompiledPipeline, AutomataError> {
        let engine = engine.into();
        let key = pipeline_key(nfa, config, spec, engine);
        let (transformed, map) = config.apply(nfa)?;
        let plan = spec.apply(&transformed)?;
        let sharded = ShardedEngine::from_plan(&transformed, plan, engine);
        Ok(CompiledPipeline {
            key,
            config,
            nfa: transformed,
            map,
            sharded,
        })
    }

    /// Number of shards in the compiled plan.
    pub fn num_shards(&self) -> usize {
        self.sharded.num_shards()
    }

    /// The engine the pipeline runs, and why it was chosen.
    pub fn selection(&self) -> Selection {
        self.sharded.selection()
    }
}

impl From<LoadedPipeline> for CompiledPipeline {
    /// Adopts a pipeline loaded from a `.sdb` mapping: the engines keep
    /// borrowing their tables from the mapping (pinned inside the
    /// `ShardedEngine`), no recompilation happens.
    fn from(lp: LoadedPipeline) -> CompiledPipeline {
        CompiledPipeline {
            key: PipelineKey(lp.key),
            config: lp.config,
            nfa: lp.nfa,
            map: lp.map,
            sharded: lp.sharded,
        }
    }
}

/// Thread-safe content-addressed cache of [`CompiledPipeline`]s.
#[derive(Debug)]
pub struct PipelineCache {
    spec: ShardSpec,
    engine: EngineChoice,
    entries: Mutex<HashMap<u64, Arc<CompiledPipeline>>>,
    /// Artifact directory for the disk tier; `None` keeps the cache
    /// memory-only.
    disk: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    // One (hit, miss) counter-handle pair per PipelineConfig, interned
    // at construction: the lookup fast path records one atomic per hit
    // instead of allocating a label set under the registry lock.
    counters: [(
        sunder_telemetry::CounterHandle,
        sunder_telemetry::CounterHandle,
    ); PipelineConfig::ALL.len()],
    /// The `pipeline_engine_info` series last set to 1.
    engine_info: Mutex<Option<sunder_telemetry::GaugeHandle>>,
}

impl PipelineCache {
    /// An empty cache compiling with the given sharding spec and engine
    /// request.
    pub fn new(spec: ShardSpec, engine: impl Into<EngineChoice>) -> PipelineCache {
        PipelineCache {
            spec,
            engine: engine.into(),
            entries: Mutex::new(HashMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            counters: PipelineConfig::ALL.map(|config| {
                let labels = [("config", config.name())];
                (
                    sunder_telemetry::counter_handle("pipeline_cache_hits_total", &labels),
                    sunder_telemetry::counter_handle("pipeline_cache_misses_total", &labels),
                )
            }),
            engine_info: Mutex::new(None),
        }
    }

    /// A cache with a disk tier rooted at `dir`: compilations are
    /// written through as `<key>.sdb` artifacts and memory misses try to
    /// map an existing artifact before compiling. The directory is
    /// created if absent; artifact i/o failures silently degrade to
    /// memory-only behavior (compilation is always the fallback).
    pub fn with_disk(
        spec: ShardSpec,
        engine: impl Into<EngineChoice>,
        dir: impl Into<PathBuf>,
    ) -> PipelineCache {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        let mut cache = PipelineCache::new(spec, engine);
        cache.disk = Some(dir);
        cache
    }

    /// The on-disk artifact path for `key`, when a disk tier is set.
    pub fn disk_path(&self, key: PipelineKey) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(format!("{key}.sdb")))
    }

    /// Tries the disk tier: map, validate, and adopt `dir/<key>.sdb`.
    /// Any failure — absent file, corruption, stale hash, or a database
    /// whose identity does not match the requested key — returns `None`.
    fn load_from_disk(&self, key: PipelineKey) -> Option<CompiledPipeline> {
        let path = self.disk_path(key)?;
        let mapped = match MappedDb::open(&path) {
            Ok(db) => db,
            Err(e) => {
                if path.exists() {
                    sunder_telemetry::instant(
                        "pipeline_cache.disk_rejected",
                        &[
                            ("key", key.to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
                return None;
            }
        };
        // The loader proved the content hash; this guards the *file
        // name* (a db renamed to the wrong key, or parameters drifting
        // from the cache's own spec/engine request).
        if mapped.key() != key.0 {
            return None;
        }
        Some(CompiledPipeline::from(mapped.into_parts()))
    }

    /// Best-effort write-through of a fresh compilation.
    fn store_to_disk(&self, source_anml: &str, compiled: &CompiledPipeline) {
        let Some(path) = self.disk_path(compiled.key) else {
            return;
        };
        let parts = DbParts {
            key: compiled.key.0,
            config: compiled.config,
            spec: self.spec.params(),
            engine: compiled.sharded.kind(),
            source_anml,
            nfa: &compiled.nfa,
            map: compiled.map,
            sharded: &compiled.sharded,
        };
        if let Err(e) = sunder_artifact::write_db(&parts, &path) {
            sunder_telemetry::instant(
                "pipeline_cache.disk_write_failed",
                &[("error", e.to_string().into())],
            );
        }
    }

    /// The pre-interned (hit, miss) counter handles for `config`.
    fn config_counters(
        &self,
        config: PipelineConfig,
    ) -> &(
        sunder_telemetry::CounterHandle,
        sunder_telemetry::CounterHandle,
    ) {
        let idx = PipelineConfig::ALL
            .iter()
            .position(|c| *c == config)
            .expect("every PipelineConfig is in ALL");
        &self.counters[idx]
    }

    /// The sharding spec used for compilation.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The engine request used for compilation.
    pub fn engine(&self) -> EngineChoice {
        self.engine
    }

    /// Publishes `pipeline_engine_info{engine,reason}`: 1 for
    /// `selection`, 0 for the series published before it. The cache
    /// calls this for every pipeline it hands out; a server calls it
    /// again when it adopts a pipeline from elsewhere (an `.sdb` reload).
    pub(crate) fn publish_selection(&self, selection: Selection) {
        let handle = sunder_telemetry::gauge_handle(
            "pipeline_engine_info",
            &[
                ("engine", selection.kind.name()),
                ("reason", selection.reason.name()),
            ],
        );
        let mut last = self.engine_info.lock().unwrap();
        if let Some(prev) = last.replace(handle.clone()) {
            prev.set(0.0);
        }
        handle.set(1.0);
    }

    /// Returns the cached pipeline for (automaton, config), compiling
    /// and inserting it on a miss, and publishes its engine selection.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures (nothing is cached on error).
    pub fn get_or_compile(
        &self,
        nfa: &Nfa,
        config: PipelineConfig,
    ) -> Result<Arc<CompiledPipeline>, AutomataError> {
        let pipeline = self.lookup(nfa, config)?;
        self.publish_selection(pipeline.selection());
        Ok(pipeline)
    }

    fn lookup(
        &self,
        nfa: &Nfa,
        config: PipelineConfig,
    ) -> Result<Arc<CompiledPipeline>, AutomataError> {
        let key = pipeline_key(nfa, config, self.spec, self.engine);
        let (hits_total, misses_total) = self.config_counters(config);
        if let Some(hit) = self.entries.lock().unwrap().get(&key.0) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hits_total.add(1);
            return Ok(Arc::clone(hit));
        }
        // Disk tier: map a persisted artifact instead of recompiling.
        if let Some(loaded) = self.load_from_disk(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            sunder_telemetry::counter_add(
                "pipeline_cache_disk_hits_total",
                &[("config", config.name())],
                1,
            );
            let loaded = Arc::new(loaded);
            self.entries
                .lock()
                .unwrap()
                .insert(key.0, Arc::clone(&loaded));
            return Ok(loaded);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        misses_total.add(1);
        let compiled = Arc::new(CompiledPipeline::compile(
            nfa,
            config,
            self.spec,
            self.engine,
        )?);
        debug_assert_eq!(compiled.key, key);
        if self.disk.is_some() {
            self.store_to_disk(&anml::serialize(nfa), &compiled);
        }
        // Two racing compilers produce identical artifacts (compilation
        // is deterministic), so last-insert-wins is safe.
        self.entries
            .lock()
            .unwrap()
            .insert(key.0, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Disk-tier hits (artifacts mapped instead of recompiled) so far.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached pipelines.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;
    use sunder_sim::EngineKind;

    fn cache() -> PipelineCache {
        PipelineCache::new(ShardSpec::MaxShards(4), EngineChoice::Auto)
    }

    #[test]
    fn repeated_submissions_hit_the_cache() {
        let nfa = compile_rule_set(&["abc", "de+f"]).unwrap();
        let c = cache();
        let a = c.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        let b = c.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must not recompile");
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
    }

    #[test]
    fn key_is_content_addressed_not_identity_addressed() {
        // Build the same automaton twice through different calls: the
        // canonical serialization makes the keys collide (that's the point).
        let a = compile_rule_set(&["xy", "z{2}"]).unwrap();
        let b = compile_rule_set(&["xy", "z{2}"]).unwrap();
        let spec = ShardSpec::MaxShards(2);
        assert_eq!(
            pipeline_key(&a, PipelineConfig::Stride2, spec, EngineKind::Dense),
            pipeline_key(&b, PipelineConfig::Stride2, spec, EngineKind::Dense),
        );
    }

    #[test]
    fn distinct_configs_get_distinct_artifacts() {
        let nfa = compile_rule_set(&["abc"]).unwrap();
        let c = cache();
        for config in PipelineConfig::ALL {
            c.get_or_compile(&nfa, config).unwrap();
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.misses(), 4);
        let keys: std::collections::HashSet<u64> = PipelineConfig::ALL
            .iter()
            .map(|&cfg| pipeline_key(&nfa, cfg, ShardSpec::MaxShards(4), EngineChoice::Auto).0)
            .collect();
        assert_eq!(keys.len(), 4, "keys must not collide across configs");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "sunder-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn cache_key_matches_artifact_key() {
        // The disk tier only works if the in-memory key and the artifact
        // key are bit-identical — pin the cross-crate contract.
        let nfa = compile_rule_set(&["ab+c", ".*net"]).unwrap();
        for (spec, engine) in [
            (ShardSpec::MaxShards(3), EngineKind::Sparse.into()),
            (
                ShardSpec::Budget(PartitionOptions {
                    ste_budget: 64,
                    oversize: sunder_automata::partition::OversizePolicy::Dedicate,
                }),
                EngineChoice::Auto,
            ),
        ] {
            for config in PipelineConfig::ALL {
                assert_eq!(
                    pipeline_key(&nfa, config, spec, engine).0,
                    sunder_artifact::db_key(&nfa, config, &spec.params(), engine),
                    "shard cache key and artifact key diverged"
                );
            }
        }
    }

    #[test]
    fn disk_tier_maps_instead_of_recompiling() {
        let dir = temp_dir("disk");
        let nfa = compile_rule_set(&["abc", "de+f"]).unwrap();

        // First cache: compiles and writes through.
        let c1 = PipelineCache::with_disk(ShardSpec::MaxShards(2), EngineKind::Sparse, &dir);
        let a = c1.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert_eq!((c1.misses(), c1.disk_hits()), (1, 0));
        let path = c1.disk_path(a.key).unwrap();
        assert!(path.exists(), "write-through must persist {path:?}");

        // Fresh cache, same dir: the artifact satisfies the lookup.
        let c2 = PipelineCache::with_disk(ShardSpec::MaxShards(2), EngineKind::Sparse, &dir);
        let b = c2.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert_eq!(
            (c2.misses(), c2.disk_hits()),
            (0, 1),
            "must map, not compile"
        );
        assert_eq!(a.key, b.key);
        let input = b"xxabcxdeefxx";
        assert_eq!(
            a.sharded.run_trace(input).unwrap(),
            b.sharded.run_trace(input).unwrap(),
            "mapped pipeline must execute identically"
        );
        // Second lookup on the same cache is a plain memory hit.
        let c = c2.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(c2.hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_tier_keeps_an_auto_selection() {
        let dir = temp_dir("auto");
        let nfa = compile_rule_set(&[".*a.*b", ".*c.*d", ".*e"]).unwrap();
        let c1 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineChoice::Auto, &dir);
        let a = c1.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        assert_eq!(a.selection().kind, EngineKind::Dense);
        let c2 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineChoice::Auto, &dir);
        let b = c2.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        assert_eq!(c2.disk_hits(), 1, "must map, not compile");
        assert_eq!(a.selection(), b.selection());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_artifact_falls_back_to_compilation() {
        let dir = temp_dir("corrupt");
        let nfa = compile_rule_set(&["xy+z"]).unwrap();
        let c1 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineKind::Sparse, &dir);
        let a = c1.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        let path = c1.disk_path(a.key).unwrap();

        // Flip a payload byte: the mapped load must be rejected and the
        // lookup must silently recompile (and repair the artifact).
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();

        let c2 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineKind::Sparse, &dir);
        let b = c2.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        assert_eq!(
            (c2.misses(), c2.disk_hits()),
            (1, 0),
            "corrupt file must not hit"
        );
        assert_eq!(a.key, b.key);
        // The write-through replaced the corrupt file with a good one.
        let c3 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineKind::Sparse, &dir);
        c3.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        assert_eq!(c3.disk_hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_and_engine_are_part_of_the_key() {
        let nfa = compile_rule_set(&["abc"]).unwrap();
        let k1 = pipeline_key(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(2),
            EngineKind::Sparse,
        );
        let k2 = pipeline_key(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(4),
            EngineKind::Sparse,
        );
        let k3 = pipeline_key(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(2),
            EngineKind::Dense,
        );
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1.to_string().len(), 16, "zero-padded hex rendering");
    }
}
