//! Zero-copy mmap-able compiled pattern databases (`.sdb`).
//!
//! Compiling a pipeline — FlexAmata nibble decomposition, temporal
//! striding, partitioning, per-shard engine tables — is the expensive
//! half of deploying a rule set; executing it is the cheap half. This
//! crate serializes the *compiled* form into a versioned, offset-based,
//! checksummed on-disk format so a process can [`MappedDb::open`] a
//! database and start matching without re-running any of the
//! compilation: every flat engine table (CSR successors, charset
//! arenas, prefilter LUT, dense accept/successor matrices) is borrowed
//! straight out of the mapping via `sunder_sim::TableBuf`, not
//! deserialized.
//!
//! The trust model is explicit: a `.sdb` file is *data*, not code, and
//! may be truncated, bit-flipped, or adversarial. The loader therefore
//! validates in two phases — byte-level ([`validate::validate_bytes`]:
//! magic, version, endianness, checksum, section bounds/alignment/
//! overlap) before any typed slice exists, then typed semantic checks
//! (tag ranges, monotone offset tables, state-id bounds, checked size
//! arithmetic) before any table reaches an engine. Every rejection is a
//! typed [`ArtifactError`]; the corruption conformance suite locks down
//! that no mutation panics or escapes validation.
//!
//! The database is content-addressed: the header carries the same
//! FNV-1a pipeline key the in-memory `PipelineCache` uses, recomputed
//! at load from the embedded source automaton and rejected on mismatch
//! ([`ArtifactError::StaleHash`]), so a cache can trust `<key>.sdb`
//! files on disk as a second tier.

#![warn(missing_docs)]

pub mod corrupt;
pub mod error;
pub mod format;
pub mod mapped;
pub mod validate;
pub mod write;

use sunder_automata::partition::{partition, partition_into, PartitionOptions, ShardPlan};
use sunder_automata::{AutomataError, Nfa};
use sunder_oracle::PipelineConfig;
use sunder_sim::{EngineChoice, EngineKind};

pub use error::ArtifactError;
pub use mapped::{LoadedPipeline, MappedDb, Mapping};
pub use write::{db_bytes, write_db, CompiledDb, DbParts};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain FNV-1a over a byte string — the payload checksum.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over separated parts, bit-compatible with the pipeline-cache
/// key in `sunder-shard`: a 0xff separator is folded in after each part
/// so `("ab", "c")` and `("a", "bc")` hash differently.
pub fn fnv1a_parts(parts: &[&str]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The sharding parameters of a compiled pipeline, as persisted in a
/// database. Mirrors `sunder-shard`'s `ShardSpec` (which converts to
/// and from this type); lives here so the artifact format does not
/// depend on the service layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecParams {
    /// Balance into at most this many shards.
    MaxShards(usize),
    /// Pack toward a per-shard STE budget.
    Budget(PartitionOptions),
}

impl SpecParams {
    /// Stable text folded into the pipeline key. Must stay bit-identical
    /// to `sunder-shard`'s cache-key text (a cross-crate test pins this).
    pub fn key_text(&self) -> String {
        match self {
            SpecParams::MaxShards(k) => format!("max-shards={k}"),
            SpecParams::Budget(o) => format!("budget={} policy={:?}", o.ste_budget, o.oversize),
        }
    }

    /// Partitions `nfa` under these parameters.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures.
    pub fn apply(&self, nfa: &Nfa) -> Result<ShardPlan, AutomataError> {
        match self {
            SpecParams::MaxShards(k) => partition_into(nfa, *k),
            SpecParams::Budget(opts) => partition(nfa, opts),
        }
    }

    /// The `(spec_tag, spec_value, oversize_tag)` triple stored in
    /// [`format::GlobalMeta`].
    pub fn tags(&self) -> (u64, u64, u64) {
        use sunder_automata::partition::OversizePolicy;
        match self {
            SpecParams::MaxShards(k) => (0, *k as u64, 0),
            SpecParams::Budget(o) => (
                1,
                o.ste_budget as u64,
                match o.oversize {
                    OversizePolicy::Error => 0,
                    OversizePolicy::Dedicate => 1,
                },
            ),
        }
    }

    /// Reconstructs the parameters from stored tags; `None` for any
    /// out-of-range tag or value.
    pub fn from_tags(spec_tag: u64, spec_value: u64, oversize_tag: u64) -> Option<SpecParams> {
        use sunder_automata::partition::OversizePolicy;
        let value = usize::try_from(spec_value).ok()?;
        match (spec_tag, oversize_tag) {
            (0, 0) => Some(SpecParams::MaxShards(value)),
            (1, 0) => Some(SpecParams::Budget(PartitionOptions {
                ste_budget: value,
                oversize: OversizePolicy::Error,
            })),
            (1, 1) => Some(SpecParams::Budget(PartitionOptions {
                ste_budget: value,
                oversize: OversizePolicy::Dedicate,
            })),
            _ => None,
        }
    }
}

impl std::fmt::Display for SpecParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key_text())
    }
}

/// The content-addressed pipeline key over already-serialized source
/// ANML — bit-compatible with `sunder-shard`'s `pipeline_key` (which
/// serializes the automaton and calls the same FNV-1a fold). The key
/// covers the engine *request*, not the resolved kind, so it is known
/// before compiling.
pub fn db_key_from_anml(
    config: PipelineConfig,
    spec: &SpecParams,
    engine: EngineChoice,
    source_anml: &str,
) -> u64 {
    fnv1a_parts(&[config.name(), &spec.key_text(), engine.name(), source_anml])
}

/// The content-addressed pipeline key of `(source automaton, config,
/// sharding spec, engine request)`.
pub fn db_key(
    source: &Nfa,
    config: PipelineConfig,
    spec: &SpecParams,
    engine: EngineChoice,
) -> u64 {
    db_key_from_anml(
        config,
        spec,
        engine,
        &sunder_automata::anml::serialize(source),
    )
}

/// Index of `config` in `PipelineConfig::ALL` (the stored tag).
pub(crate) fn config_tag(config: PipelineConfig) -> u64 {
    PipelineConfig::ALL
        .iter()
        .position(|c| *c == config)
        .expect("every config is in ALL") as u64
}

/// Index of `engine` in `EngineKind::ALL` (the stored tag).
pub(crate) fn engine_tag(engine: EngineKind) -> u64 {
    EngineKind::ALL
        .iter()
        .position(|e| *e == engine)
        .expect("every engine is in ALL") as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::partition::OversizePolicy;

    #[test]
    fn spec_tags_round_trip() {
        let specs = [
            SpecParams::MaxShards(0),
            SpecParams::MaxShards(7),
            SpecParams::Budget(PartitionOptions {
                ste_budget: 256,
                oversize: OversizePolicy::Error,
            }),
            SpecParams::Budget(PartitionOptions {
                ste_budget: 1,
                oversize: OversizePolicy::Dedicate,
            }),
        ];
        for spec in specs {
            let (t, v, o) = spec.tags();
            assert_eq!(SpecParams::from_tags(t, v, o), Some(spec));
        }
        assert_eq!(SpecParams::from_tags(2, 0, 0), None);
        assert_eq!(SpecParams::from_tags(0, 1, 1), None);
    }

    #[test]
    fn key_matches_the_separated_fold() {
        // The parts fold must differ from hashing the concatenation.
        assert_ne!(fnv1a_parts(&["ab", "c"]), fnv1a_parts(&["a", "bc"]));
        assert_ne!(fnv1a_parts(&["abc"]), fnv1a_bytes(b"abc"));
    }
}
