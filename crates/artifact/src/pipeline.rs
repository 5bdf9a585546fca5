//! The compiled pipeline: its content key and the one compile path that
//! builds it.
//!
//! A [`CompiledPipeline`] is the same value whether it was compiled in
//! memory ([`CompiledPipeline::compile`]) or loaded from a `.sdb` file
//! ([`crate::MappedDb::into_parts`]); only where its engine tables live
//! differs. It is persisted through [`CompiledPipeline::parts`] and
//! [`crate::db_bytes`] / [`crate::write_db`].

use sunder_automata::{anml, AutomataError, Nfa};
use sunder_oracle::PipelineConfig;
use sunder_sim::{EngineChoice, Selection, ShardedEngine};
use sunder_transform::PositionMap;

use crate::write::DbParts;
use crate::{fnv1a_parts, SpecParams};

/// A 64-bit content hash identifying one compiled pipeline: the `.sdb`
/// header key and the pipeline cache's key alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineKey(pub u64);

impl PipelineKey {
    /// The key over already-serialized source ANML: FNV-1a over the
    /// configuration name, the spec's key text, the engine request and
    /// the canonical ANML, each part separated. The key covers the
    /// request (`auto`, `sparse` or `dense`), not the engine `auto`
    /// resolves to, so it is known before compiling.
    pub fn of_anml(
        source_anml: &str,
        config: PipelineConfig,
        spec: SpecParams,
        engine: EngineChoice,
    ) -> PipelineKey {
        PipelineKey(fnv1a_parts(&[
            config.name(),
            &spec.key_text(),
            engine.name(),
            source_anml,
        ]))
    }
}

impl std::fmt::Display for PipelineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The content-addressed key of `(source automaton, config, sharding
/// spec, engine request)`. The canonical ANML serialization makes it
/// *content*-addressed: two structurally identical automata key alike
/// however they were built.
pub fn pipeline_key(
    nfa: &Nfa,
    config: PipelineConfig,
    spec: SpecParams,
    engine: impl Into<EngineChoice>,
) -> PipelineKey {
    PipelineKey::of_anml(&anml::serialize(nfa), config, spec, engine.into())
}

/// One compiled pipeline: the transformed automaton, the position map
/// folding its reports back to original-symbol coordinates, and the
/// sharded engine ready to execute it.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The content hash of the source automaton and parameters.
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
    /// Compiles `source` under `config`, shards it per `spec`, and
    /// resolves the engine request once (see `sunder_sim::select`; a
    /// dense selection builds the dense matrices here).
    ///
    /// # Errors
    ///
    /// Propagates transformation and partitioning failures.
    pub fn compile(
        source: &Nfa,
        config: PipelineConfig,
        spec: SpecParams,
        engine: impl Into<EngineChoice>,
    ) -> Result<CompiledPipeline, AutomataError> {
        let engine = engine.into();
        let key = pipeline_key(source, config, spec, engine);
        CompiledPipeline::compile_keyed(key, source, config, spec, engine)
    }

    /// [`CompiledPipeline::compile`] for a caller that has already keyed
    /// `source` (a cache lookup): `key` must be its [`pipeline_key`].
    ///
    /// # Errors
    ///
    /// Propagates transformation and partitioning failures.
    pub fn compile_keyed(
        key: PipelineKey,
        source: &Nfa,
        config: PipelineConfig,
        spec: SpecParams,
        engine: EngineChoice,
    ) -> Result<CompiledPipeline, AutomataError> {
        debug_assert_eq!(key, pipeline_key(source, config, spec, engine));
        let (nfa, map) = config.apply(source)?;
        let plan = spec.apply(&nfa)?;
        let sharded = ShardedEngine::from_plan(&nfa, plan, engine);
        Ok(CompiledPipeline {
            key,
            config,
            nfa,
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

    /// The writer's view of this pipeline: it plus the sharding spec and
    /// the canonical ANML of the source it was compiled (and keyed) from.
    pub fn parts<'a>(&'a self, spec: SpecParams, source_anml: &'a str) -> DbParts<'a> {
        DbParts {
            key: self.key.0,
            config: self.config,
            spec,
            engine: self.sharded.kind(),
            source_anml,
            nfa: &self.nfa,
            map: self.map,
            sharded: &self.sharded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::partition::{OversizePolicy, PartitionOptions};
    use sunder_automata::regex::compile_rule_set;
    use sunder_sim::EngineKind;

    /// Every `.sdb` on disk is filed and validated under these values, so
    /// they may never change without a format version bump. The rules
    /// are `ci/serve-rules.txt`'s; its `stride2`, 4-shard, `auto` key is
    /// the one `sunder compile-db` prints for that file.
    #[test]
    fn pipeline_keys_are_pinned() {
        let nfa = compile_rule_set(&["ab+c", "[0-9]{3}", ".*net", "xy?z"]).unwrap();
        let shards = SpecParams::MaxShards(4);
        let budget = SpecParams::Budget(PartitionOptions {
            ste_budget: 64,
            oversize: OversizePolicy::Dedicate,
        });
        let auto = EngineChoice::Auto;
        let sparse = EngineChoice::from(EngineKind::Sparse);
        let requests = [
            (shards, auto),
            (shards, sparse),
            (budget, auto),
            (budget, sparse),
        ];
        let golden = [
            (
                PipelineConfig::Identity,
                [
                    0x90c0908193441618,
                    0x21b50c1d836dcc1b,
                    0x59617ac787715d33,
                    0x14d7d37077aa47a8,
                ],
            ),
            (
                PipelineConfig::Nibble,
                [
                    0x74e47bbc420f37f4,
                    0xf13c031d9de53f67,
                    0xc8d7c9d94197aa4f,
                    0x92ea2b3f4fc0b744,
                ],
            ),
            (
                PipelineConfig::Stride2,
                [
                    0xa6c87e69ae98a735,
                    0xc0f0e8898196e962,
                    0x1eece6ea7b2e3e74,
                    0x44dc7e46298aa9e7,
                ],
            ),
            (
                PipelineConfig::Stride4,
                [
                    0x8414a2d486f6c123,
                    0x6c26958d74dd7ed8,
                    0xf029159c06e4e8fa,
                    0x3df6e23a29db8d2d,
                ],
            ),
        ];
        assert_eq!(golden.map(|(config, _)| config), PipelineConfig::ALL);
        for (config, keys) in golden {
            for ((spec, engine), want) in requests.into_iter().zip(keys) {
                let key = pipeline_key(&nfa, config, spec, engine);
                assert_eq!(
                    key,
                    PipelineKey(want),
                    "{} / {spec} / {engine}: key {key} changed",
                    config.name()
                );
            }
        }
        assert_eq!(
            pipeline_key(&nfa, PipelineConfig::Stride2, shards, auto).to_string(),
            "a6c87e69ae98a735"
        );
    }
}
