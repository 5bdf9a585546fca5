//! The three workloads: rule sets and seeded traffic.
//!
//! The rule sets are fixed per workload; every input byte is a pure
//! function of the seed. The daemon only ever sees these generated
//! bytes.

use sunder_automata::regex::compile_rule_set;
use sunder_automata::{anml, Nfa, StartKind};
use sunder_workloads::gen::WorkloadBuilder;
use sunder_workloads::{Benchmark, Scale};

use crate::stats::Rng;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Log/DLP regex rules over log-like text, rare reports, 64 KiB chunks.
    LogscanQuiet,
    /// Snort profile at a tenth of paper scale, ~1.7 reports/B, 4 KiB chunks.
    IdsReportStorm,
    /// Paper-scale ClamAV under stride2, file scans and `.sdb` reloads.
    ClamavStride2Reload,
}

impl Kind {
    /// Every workload, in ledger order.
    pub const ALL: [Kind; 3] = [
        Kind::LogscanQuiet,
        Kind::IdsReportStorm,
        Kind::ClamavStride2Reload,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LogscanQuiet => "logscan-quiet",
            Kind::IdsReportStorm => "ids-report-storm",
            Kind::ClamavStride2Reload => "clamav-stride2-reload",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Chunk size each session sends.
    pub fn chunk_bytes(self) -> usize {
        match self {
            Kind::LogscanQuiet => 64 << 10,
            Kind::IdsReportStorm => 4 << 10,
            Kind::ClamavStride2Reload => 256 << 10,
        }
    }

    /// The only flag the benchmark passes to `serve` and `compile-db`
    /// beyond the program: everything else is the product's default.
    pub fn config_flag(self) -> Option<&'static str> {
        match self {
            Kind::ClamavStride2Reload => Some("stride2"),
            _ => None,
        }
    }

    /// Stated report density band, reports per input byte.
    pub fn density_band(self) -> (f64, f64) {
        match self {
            Kind::LogscanQuiet => (1.0 / 5120.0, 1.0 / 4096.0),
            Kind::IdsReportStorm => (1.5, 1.9),
            // One signature hit planted per MiB of file.
            Kind::ClamavStride2Reload => (0.5 / 1_048_576.0, 2.0 / 1_048_576.0),
        }
    }

    /// Stream pool: `(streams, bytes each)`. Logscan and IDS sessions
    /// each loop over their own stream; ClamAV sessions scan the files
    /// of the pool in turn, one session per file.
    pub fn pool(self) -> (usize, usize) {
        match self {
            Kind::LogscanQuiet => (2, 32 << 20),
            Kind::IdsReportStorm => (2, 4 << 20),
            Kind::ClamavStride2Reload => (4, 4 << 20),
        }
    }
}

/// How the daemon receives the rules.
#[derive(Debug, Clone)]
pub enum Source {
    /// One regex per line (`serve --rules`).
    Rules(Vec<String>),
    /// ANML program text (`serve --program`).
    Program(String),
}

impl Source {
    /// File name and contents to hand the daemon.
    pub fn file(&self) -> (&'static str, String) {
        match self {
            Source::Rules(rules) => ("rules.txt", rules.join("\n") + "\n"),
            Source::Program(text) => ("program.anml", text.clone()),
        }
    }

    /// The CLI flag naming that file.
    pub fn flag(&self) -> &'static str {
        match self {
            Source::Rules(_) => "--rules",
            Source::Program(_) => "--program",
        }
    }

    /// Parses the rules the way the daemon does (the `compile.parse_s`
    /// stage).
    pub fn parse(&self) -> Result<Nfa, String> {
        match self {
            Source::Rules(rules) => compile_rule_set(rules).map_err(|e| e.to_string()),
            Source::Program(text) => anml::parse(text).map_err(|e| e.to_string()),
        }
    }
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which one.
    pub kind: Kind,
    /// Rules as the daemon gets them.
    pub source: Source,
    /// The stream pool (see [`Kind::pool`]).
    pub streams: Vec<Vec<u8>>,
    /// Hits planted into the pool (0 where reports come from the
    /// traffic itself, as in the Snort profile).
    pub planted: u64,
}

/// Builds `kind`'s workload for `seed`, with streams of `stream_bytes`
/// (the full run uses [`Kind::pool`]; tests pass less).
pub fn build(kind: Kind, seed: u64, stream_bytes: usize) -> Workload {
    let (count, _) = kind.pool();
    match kind {
        Kind::LogscanQuiet => {
            let mut planted = 0;
            let streams = (0..count)
                .map(|s| {
                    let (bytes, n) = log_text(&mut Rng::new(seed, s as u64), stream_bytes);
                    planted += n;
                    bytes
                })
                .collect();
            Workload {
                kind,
                source: Source::Rules(LOG_RULES.iter().map(|r| r.to_string()).collect()),
                streams,
                planted,
            }
        }
        Kind::IdsReportStorm => {
            // The rule set is the Snort profile's own (its builder pins
            // its seed); the traffic is filler from a builder seeded
            // here, which the profile's hot classes match densely.
            let nfa = Benchmark::Snort
                .build(Scale {
                    state_fraction: 0.1,
                    input_len: 1,
                })
                .nfa;
            let streams = (0..count)
                .map(|s| {
                    WorkloadBuilder::new(mix(seed, s as u64))
                        .build_input(stream_bytes)
                        .0
                })
                .collect();
            Workload {
                kind,
                source: Source::Program(anml::serialize(&nfa)),
                streams,
                planted: 0,
            }
        }
        Kind::ClamavStride2Reload => {
            let nfa = Benchmark::ClamAv.build(Scale::paper()).nfa;
            let chains = signature_literals(&nfa);
            let mut planted = 0;
            let streams = (0..count)
                .map(|s| {
                    let mut rng = Rng::new(seed, s as u64);
                    let hits = (stream_bytes >> 20).max(1);
                    let literals: Vec<Vec<u8>> =
                        (0..hits).map(|_| rng.pick(&chains).clone()).collect();
                    let mut b = WorkloadBuilder::new(mix(seed, s as u64));
                    b.add_plant_stream(literals, hits as u64);
                    let (bytes, hits, _) = b.build_input(stream_bytes);
                    planted += hits;
                    bytes
                })
                .collect();
            Workload {
                kind,
                source: Source::Program(anml::serialize(&nfa)),
                streams,
                planted,
            }
        }
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64()
}

/// One literal per start-to-report chain of `nfa`: from each unanchored
/// start state, follow the single successor to a reporting state and
/// take the lowest symbol of every charset on the way.
pub fn signature_literals(nfa: &Nfa) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (id, ste) in nfa.states() {
        if ste.start_kind() != StartKind::AllInput {
            continue;
        }
        let mut literal = Vec::new();
        let mut at = id;
        loop {
            let state = nfa.state(at);
            let Some(symbol) = state.charset().iter().next() else {
                break;
            };
            literal.push(symbol as u8);
            if state.is_reporting() {
                out.push(literal);
                break;
            }
            match nfa.successors(at) {
                [next] if literal.len() < 1024 => at = *next,
                _ => break,
            }
        }
    }
    out
}

/// The logscan rule set: log and data-loss-prevention signatures. Rule
/// 0 keeps a leading `.*`, whose always-on state defeats the rare-byte
/// start prefilter; several rules loop on character classes.
pub const LOG_RULES: [&str; 12] = [
    ".*password=[A-Za-z0-9]{6}",
    "ERROR [A-Z]{4}[0-9]{3}",
    "[0-9]{3}-[0-9]{2}-[0-9]{4}",
    "4[0-9]{3} [0-9]{4} [0-9]{4} [0-9]{4}",
    "AKIA[A-Z0-9]{16}",
    "-----BEGIN [A-Z]+ PRIVATE KEY",
    "token=[a-f0-9]{32}",
    "session_id=[A-Za-z0-9]+;",
    "COMMAND=/bin/(ba)?sh",
    "DROP TABLE [a-z_]+;",
    "/etc/(passwd|shadow)",
    "[a-z0-9._]+@secret\\.example\\.com",
];

const HOSTS: [&str; 6] = ["web-01", "web-02", "api-07", "db-3", "cache-1", "edge-12"];
const PROCS: [&str; 6] = ["sshd", "nginx", "kernel", "cron", "app", "postgres"];
const LEVELS: [&str; 4] = ["INFO", "INFO", "DEBUG", "WARN"];
const USERS: [&str; 6] = ["alice", "bob", "carol", "deploy", "svc_backup", "mallory"];
const WORDS: [&str; 10] = [
    "orders", "users", "cart", "search", "health", "metrics", "login", "assets", "billing",
    "report",
];
const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
const UPPER_DIGIT: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const HEX: &[u8] = b"0123456789abcdef";

fn word(rng: &mut Rng, alphabet: &[u8], len: usize) -> String {
    (0..len).map(|_| *rng.pick(alphabet) as char).collect()
}

fn digits(rng: &mut Rng, len: usize) -> String {
    word(rng, b"0123456789", len)
}

fn ip(rng: &mut Rng) -> String {
    format!(
        "10.{}.{}.{}",
        rng.below(256),
        rng.below(256),
        rng.range(1, 254)
    )
}

/// A background message no rule matches.
fn background(rng: &mut Rng) -> String {
    match rng.below(7) {
        0 => format!(
            "Accepted publickey for {} from {} port {} ssh2",
            rng.pick(&USERS),
            ip(rng),
            rng.range(1024, 65535)
        ),
        1 => format!(
            "GET /api/v1/{}/{} HTTP/1.1 200 {} \"-\" \"curl/8.4.0\"",
            rng.pick(&WORDS),
            rng.range(1, 99999),
            rng.range(100, 99999)
        ),
        2 => format!(
            "connection from {} closed after {} ms",
            ip(rng),
            rng.range(1, 9999)
        ),
        3 => format!(
            "user={} action={} status=ok",
            rng.pick(&USERS),
            rng.pick(&WORDS)
        ),
        4 => format!(
            "query took {} ms rows={}",
            rng.range(1, 999),
            rng.range(0, 5000)
        ),
        5 => format!(
            "ERROR upstream timed out while reading response header from {}",
            ip(rng)
        ),
        _ => format!(
            "cache miss key={}:{} ttl={}s",
            rng.pick(&WORDS),
            rng.range(1, 99999),
            rng.range(1, 3600)
        ),
    }
}

/// A message carrying exactly one match of one rule.
fn planted(rng: &mut Rng) -> String {
    match rng.below(LOG_RULES.len()) {
        0 => {
            let len = 6 + rng.below(5);
            format!(
                "login form posted password={} from {}",
                word(rng, ALNUM, len),
                ip(rng)
            )
        }
        1 => format!(
            "ERROR {}{} replica lag",
            word(rng, &ALNUM[..26], 4),
            digits(rng, 3)
        ),
        2 => format!(
            "export row ssn {}-{}-{} flagged",
            digits(rng, 3),
            digits(rng, 2),
            digits(rng, 4)
        ),
        3 => format!(
            "charge card 4{} {} {} {} ok",
            digits(rng, 3),
            digits(rng, 4),
            digits(rng, 4),
            digits(rng, 4)
        ),
        4 => format!("env AKIA{} leaked", word(rng, UPPER_DIGIT, 16)),
        5 => format!(
            "upload body -----BEGIN {} PRIVATE KEY-----",
            rng.pick(&["RSA", "EC", "OPENSSH", "DSA"])
        ),
        6 => format!("redirect token={} issued", word(rng, HEX, 32)),
        7 => {
            let len = rng.range(8, 24);
            format!("Set-Cookie session_id={}; path=/", word(rng, ALNUM, len))
        }
        8 => format!(
            "sudo: {} : TTY=pts/0 ; COMMAND=/bin/{}",
            rng.pick(&USERS),
            rng.pick(&["sh", "bash"])
        ),
        9 => format!(
            "statement DROP TABLE {}_{}; rolled back",
            rng.pick(&WORDS),
            rng.pick(&["old", "backup", "tmp"])
        ),
        10 => format!(
            "GET /static/../../etc/{} HTTP/1.1 403",
            rng.pick(&["passwd", "shadow"])
        ),
        _ => format!(
            "mail queued for {}.{}@secret.example.com",
            rng.pick(&USERS),
            rng.range(1, 99)
        ),
    }
}

/// Seeded log lines, `len` bytes exactly, with one planted hit every
/// 4–5 KiB. Returns the text and the number of hits planted whole.
fn log_text(rng: &mut Rng, len: usize) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(len + 256);
    let mut next_plant = rng.range(4096, 5120);
    let mut hits = 0;
    let mut clock = rng.below(86_400_000);
    while out.len() < len {
        clock += rng.range(1, 40);
        let plant = out.len() >= next_plant;
        let message = if plant {
            next_plant = out.len() + rng.range(4096, 5120);
            planted(rng)
        } else {
            background(rng)
        };
        let line = format!(
            "2026-10-17T{:02}:{:02}:{:02}.{:03}Z {} {}[{}]: {} {}\n",
            clock / 3_600_000 % 24,
            clock / 60_000 % 60,
            clock / 1000 % 60,
            clock % 1000,
            rng.pick(&HOSTS),
            rng.pick(&PROCS),
            rng.range(100, 32000),
            if plant { "WARN" } else { *rng.pick(&LEVELS) },
            message
        );
        if plant && out.len() + line.len() <= len {
            hits += 1;
        }
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(len);
    (out, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::served::Reference;
    use sunder_oracle::PipelineConfig;
    use sunder_shard::{CompiledPipeline, ShardSpec};
    use sunder_sim::EngineKind;

    /// Reports land in original coordinates whatever the pipeline, so
    /// the cheapest one serves as reference here.
    fn references(w: &Workload) -> Vec<Reference> {
        let nfa = w.source.parse().unwrap();
        let pipeline = CompiledPipeline::compile(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(1),
            EngineKind::Sparse,
        )
        .unwrap();
        w.streams
            .iter()
            .map(|s| Reference::compute(&pipeline, s, w.kind.chunk_bytes()).unwrap())
            .collect()
    }

    #[test]
    fn seeds_fix_bytes_and_digests_and_keep_density_in_band() {
        for kind in Kind::ALL {
            let bytes = match kind {
                Kind::IdsReportStorm => 64 << 10,
                _ => 1 << 20,
            };
            let a = build(kind, 7, bytes);
            let again = build(kind, 7, bytes);
            let other = build(kind, 8, bytes);
            assert_eq!(a.streams, again.streams, "{kind:?}");
            assert_ne!(a.streams, other.streams, "{kind:?}");
            assert_ne!(a.streams[0], a.streams[1], "{kind:?}: sessions share bytes");
            let refs = references(&a);
            assert_eq!(refs, references(&again), "{kind:?}");
            let (lo, hi) = kind.density_band();
            for w in [&a, &other] {
                let refs = references(w);
                let reports: u64 = refs.iter().map(|r| r.total.count).sum();
                let total: usize = w.streams.iter().map(Vec::len).sum();
                let density = reports as f64 / total as f64;
                assert!(
                    (lo..=hi).contains(&density),
                    "{kind:?}: {density} reports/B outside [{lo}, {hi}]"
                );
                if kind != Kind::IdsReportStorm {
                    // Each planted hit reports exactly once, and nothing
                    // else in the traffic matches.
                    assert_eq!(reports, w.planted, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn clamav_literals_follow_the_automatons_own_chains() {
        let nfa = Benchmark::ClamAv.build(Scale::tiny()).nfa;
        let literals = signature_literals(&nfa);
        assert_eq!(literals.len(), nfa.report_states().len());
        assert!(literals.iter().all(|l| l.len() >= 2));
    }
}
