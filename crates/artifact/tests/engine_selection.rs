//! The engine selection travels with the artifact: an `auto` compile
//! records the resolved kind and the reason in the global metadata, the
//! loader restores both without re-selecting, and a record whose reason
//! cannot produce its kind is refused.

use sunder_artifact::corrupt::fix_checksum;
use sunder_artifact::format::{GlobalMeta, SectionKind};
use sunder_artifact::validate::validate_bytes;
use sunder_artifact::{
    db_bytes, pipeline_key, ArtifactError, CompiledPipeline, MappedDb, SpecParams,
};
use sunder_automata::anml;
use sunder_automata::regex::compile_rule_set;
use sunder_oracle::PipelineConfig;
use sunder_sim::{EngineChoice, EngineKind, SelectReason};

const CONFIG: PipelineConfig = PipelineConfig::Identity;
const SPEC: SpecParams = SpecParams::MaxShards(1);

/// The compiled pipeline and its `.sdb` image.
fn auto_db(rules: &[&str]) -> (CompiledPipeline, Vec<u8>) {
    let nfa = compile_rule_set(rules).expect("rules compile");
    let db = CompiledPipeline::compile(&nfa, CONFIG, SPEC, EngineChoice::Auto).expect("compile");
    assert_eq!(db.key, pipeline_key(&nfa, CONFIG, SPEC, EngineChoice::Auto));
    let bytes = db_bytes(&db.parts(SPEC, &anml::serialize(&nfa)));
    (db, bytes)
}

#[test]
fn auto_selection_round_trips_with_its_reason() {
    for (rules, kind, reason) in [
        (
            &[".*a.*b", ".*c.*d", ".*e"][..],
            EngineKind::Dense,
            SelectReason::DenseCheaper,
        ),
        (
            &["GET /index", "POST /login"][..],
            EngineKind::Sparse,
            SelectReason::SparseCheaper,
        ),
    ] {
        let (db, bytes) = auto_db(rules);
        assert_eq!(db.sharded.kind(), kind);
        let mapped = MappedDb::load_bytes(&bytes).expect("load");
        assert_eq!(mapped.selection(), db.sharded.selection());
        assert_eq!(mapped.selection().reason, reason);
        assert_eq!(mapped.selection().choice(), EngineChoice::Auto);
        assert_eq!(
            mapped.sharded().shard_dense(0).is_some(),
            kind == EngineKind::Dense
        );
        let input = b"xxGET /index a c b d e POST /login";
        assert_eq!(
            mapped.sharded().run_trace(input).unwrap(),
            db.sharded.run_trace(input).unwrap()
        );
    }
}

/// Rewrites the global metadata's `select_reason` and re-seals the file.
fn forge_reason(bytes: &[u8], reason: u64) -> Vec<u8> {
    let raw = validate_bytes(bytes).expect("base is valid");
    let section = raw.require(SectionKind::Meta, 0).expect("meta section");
    let mut meta = GlobalMeta::from_bytes(raw.payload(section)).expect("meta parses");
    meta.select_reason = reason;
    let mut out = bytes.to_vec();
    let at = section.offset;
    out[at..at + meta.to_bytes().len()].copy_from_slice(&meta.to_bytes());
    fix_checksum(&mut out);
    out
}

#[test]
fn inconsistent_or_unknown_reasons_are_refused() {
    let (_, bytes) = auto_db(&["GET /index", "POST /login"]);
    let dense_cheaper = u64::from(SelectReason::DenseCheaper.code());
    for forged in [dense_cheaper, SelectReason::ALL.len() as u64, u64::MAX] {
        let err = MappedDb::load_bytes(&forge_reason(&bytes, forged)).expect_err("refused");
        assert!(matches!(err, ArtifactError::BadValue { .. }), "{err}");
    }
    // A consistent but different reason changes the request the key
    // covers, so the content hash no longer matches.
    let requested = u64::from(SelectReason::Requested.code());
    let err = MappedDb::load_bytes(&forge_reason(&bytes, requested)).expect_err("refused");
    assert!(matches!(err, ArtifactError::StaleHash { .. }), "{err}");
}
