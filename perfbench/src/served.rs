//! Closed-loop sessions against a running daemon, with every session's
//! reports checked against the whole-input reference.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sunder_shard::frame::decode_server;
use sunder_shard::{expected_reports, ClientFrame, CompiledPipeline, ServerFrame};

use crate::client::Conn;
use crate::daemon::Daemon;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workload::{Kind, Workload};

/// Closed-loop sessions per run (the host has two cores).
pub const SESSIONS: usize = 2;

/// The whole-input reference for one stream: the digest of every
/// report at an offset before each chunk boundary, and of the whole
/// stream (padded tail included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// `prefix[k]`: reports before the end of chunk `k`.
    pub prefix: Vec<Digest>,
    /// Every report of the stream.
    pub total: Digest,
}

impl Reference {
    /// Runs `sunder_shard::expected_reports` over `stream` and folds it
    /// at `chunk`-byte boundaries.
    pub fn compute(
        pipeline: &CompiledPipeline,
        stream: &[u8],
        chunk: usize,
    ) -> Result<Reference, String> {
        let reports = expected_reports(pipeline, stream).map_err(|e| e.to_string())?;
        let mut prefix = Vec::new();
        let mut digest = Digest::default();
        let mut at = 0;
        for end in (chunk..stream.len() + chunk).step_by(chunk) {
            let end = end.min(stream.len()) as u64;
            while at < reports.len() && reports[at].0 < end {
                digest.push(reports[at].0, reports[at].1);
                at += 1;
            }
            prefix.push(digest);
        }
        digest.extend(&reports[at..]);
        Ok(Reference {
            prefix,
            total: digest,
        })
    }
}

/// What one served window measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Chunk round trips, ms, pooled over sessions.
    pub rtt_ms: Vec<f64>,
    /// `Hello` → `HelloAck`, ms, per session.
    pub open_ms: Vec<f64>,
    /// Input bytes acknowledged by a `Reports` frame.
    pub bytes_acked: u64,
    /// First send to last reply, seconds.
    pub wall_s: f64,
    /// Chunks sent (or, for a refused session, about to be sent).
    pub attempted: u64,
    /// Chunks answered with `Error`, lost to a cut session, or never
    /// sent because the session was refused.
    pub failed: u64,
    /// Sessions run.
    pub sessions: u64,
    /// Sessions whose `HelloAck` pinned an epoch after the first.
    pub sessions_after_reload: u64,
    /// Seconds per reload, in order.
    pub reload_s: Vec<f64>,
    /// Every correctness failure.
    pub errors: Vec<String>,
    /// Client spans (`session.open`, `client.send`, `client.wait`,
    /// `client.decode`) when traced.
    pub tracer: Option<Tracer>,
}

impl Served {
    /// Acknowledged input MB (10^6 B) per second of streaming wall time.
    pub fn throughput_mbps(&self) -> f64 {
        self.bytes_acked as f64 / 1e6 / self.wall_s
    }
}

/// Which pool stream session `session` scans on its `pass`-th pass.
fn stream_for(kind: Kind, streams: usize, session: usize, pass: usize) -> usize {
    match kind {
        Kind::ClamavStride2Reload => (session + SESSIONS * pass) % streams,
        _ => session % streams,
    }
}

/// Drives [`SESSIONS`] closed-loop sessions for `window`, then lets
/// each finish the chunk in flight and close its session by the
/// protocol. When `reloads` is given, the calling thread issues that
/// many `reload` commands spread over the window.
pub fn run(
    daemon: &mut Daemon,
    workload: &Workload,
    refs: &[Reference],
    window: Duration,
    reloads: Option<(&Path, usize)>,
    traced: Option<Instant>,
) -> Served {
    let chunk = workload.kind.chunk_bytes();
    let addr = daemon.addr;
    let barrier = Barrier::new(SESSIONS + 1);
    let mut total = Served {
        tracer: traced.map(Tracer::new),
        ..Served::default()
    };
    let results: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut out = Served {
                        tracer: traced.map(Tracer::new),
                        ..Served::default()
                    };
                    let mut last = start;
                    let mut pass = 0;
                    while Instant::now() < start + window {
                        let idx = stream_for(workload.kind, refs.len(), s, pass);
                        let id = ((s as u64) << 40) | ((pass as u64) << 20);
                        if let Some(end) = session_pass(
                            addr,
                            s,
                            &workload.streams[idx],
                            &refs[idx],
                            chunk,
                            start + window,
                            id,
                            &mut out,
                        ) {
                            last = end;
                        }
                        pass += 1;
                        if out.failed > 0 {
                            // The run is already incorrect; stop loading it.
                            break;
                        }
                    }
                    out.wall_s = (last - start).as_secs_f64();
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        if let Some((sdb, count)) = reloads {
            for i in 0..count {
                let at = start + window.mul_f64((i + 1) as f64 / (count + 1) as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                match daemon.reload(sdb) {
                    Ok((_, secs)) => total.reload_s.push(secs),
                    Err(e) => total.errors.push(e),
                }
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    for r in results {
        total.rtt_ms.extend(r.rtt_ms);
        total.open_ms.extend(r.open_ms);
        total.bytes_acked += r.bytes_acked;
        total.wall_s = total.wall_s.max(r.wall_s);
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.sessions += r.sessions;
        total.sessions_after_reload += r.sessions_after_reload;
        total.errors.extend(r.errors);
        if let (Some(t), Some(rt)) = (&mut total.tracer, r.tracer) {
            t.absorb(rt);
        }
    }
    total
}

/// One session over one stream; returns when its last reply arrived
/// (`None` if the session was refused or cut).
#[allow(clippy::too_many_arguments)]
fn session_pass(
    addr: std::net::SocketAddr,
    session: usize,
    stream: &[u8],
    reference: &Reference,
    chunk: usize,
    deadline: Instant,
    id: u64,
    out: &mut Served,
) -> Option<Instant> {
    let opened = Instant::now();
    let refused = |out: &mut Served, e: String| {
        out.attempted += 1;
        out.failed += 1;
        out.errors.push(format!("session {session}: {e}"));
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            refused(out, e);
            return None;
        }
    };
    let epoch = match conn.hello(&format!("bench-{session}")) {
        Ok(epoch) => epoch,
        Err(e) => {
            refused(out, e);
            return None;
        }
    };
    let acked = Instant::now();
    out.open_ms.push((acked - opened).as_secs_f64() * 1e3);
    if let Some(t) = &mut out.tracer {
        t.record(id, "session.open", None, opened, acked);
    }
    out.sessions += 1;
    if epoch > 1 {
        out.sessions_after_reload += 1;
    }

    let mut digest = Digest::default();
    let mut sent = 0usize;
    let mut bytes = 0u64;
    for (k, piece) in stream.chunks(chunk).enumerate() {
        if k > 0 && Instant::now() >= deadline {
            break;
        }
        out.attempted += 1;
        let t0 = Instant::now();
        let reply = conn
            .send(&ClientFrame::Chunk(piece.to_vec()))
            .and_then(|()| {
                let t_sent = Instant::now();
                let body = conn.read_body()?;
                let t_read = Instant::now();
                let frame = decode_server(&body).map_err(|e| e.to_string());
                Ok((t_sent, t_read, frame?))
            });
        let t1 = Instant::now();
        match reply {
            Ok((t_sent, t_read, ServerFrame::Reports(reports))) => {
                digest.extend(&reports);
                out.rtt_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if let Some(t) = &mut out.tracer {
                    let cid = id | k as u64;
                    t.record(cid, "client.send", Some("client.chunk"), t0, t_sent);
                    t.record(cid, "client.wait", Some("client.chunk"), t_sent, t_read);
                    t.record(cid, "client.decode", Some("client.chunk"), t_read, t1);
                    t.record(cid, "client.chunk", None, t0, t1);
                }
                sent += 1;
                bytes += piece.len() as u64;
                out.bytes_acked += piece.len() as u64;
            }
            Ok((_, _, other)) => {
                out.failed += 1;
                out.errors
                    .push(format!("session {session} chunk {k}: {other:?}"));
                return None;
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("session {session} chunk {k}: {e}"));
                return None;
            }
        }
    }

    let close = conn.send(&ClientFrame::Finish).and_then(|()| {
        let tail = conn.recv()?;
        let done = conn.recv()?;
        Ok((tail, done))
    });
    let finished = Instant::now();
    let (expected, what) = if sent == reference.prefix.len() {
        (reference.total, "whole stream")
    } else {
        (reference.prefix[sent - 1], "stream prefix")
    };
    match close {
        Ok((
            ServerFrame::Reports(tail),
            ServerFrame::Done {
                chunks,
                bytes: done_bytes,
                reports,
                epoch: done_epoch,
            },
        )) => {
            digest.extend(&tail);
            if digest != expected
                || reports != digest.count
                || done_bytes != bytes
                || chunks != sent as u64
                || done_epoch != epoch
            {
                out.errors.push(format!(
                    "session {session} (epoch {epoch}): {what} of {sent} chunks gave {} reports \
                     (digest {:016x}, daemon says {reports}), reference {} ({:016x})",
                    digest.count, digest.hash, expected.count, expected.hash
                ));
            }
        }
        Ok(other) => out.errors.push(format!(
            "session {session}: unexpected close replies {other:?}"
        )),
        Err(e) => out.errors.push(format!("session {session}: close: {e}")),
    }
    Some(finished)
}

/// Sums the samples of every series of `family` in a `/metrics` text
/// (all label sets).
pub fn scrape_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            let bare = name.split('{').next()?;
            (bare == family).then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_every_label_set() {
        let text = "# TYPE serve_queue_wait_us histogram\n\
                    serve_queue_wait_us_sum{tenant=\"bench-0\"} 120\n\
                    serve_queue_wait_us_sum{tenant=\"bench-1\"} 30\n\
                    serve_queue_wait_us_count{tenant=\"bench-0\"} 4\n\
                    serve_backpressure_stalls_total 2\n";
        assert_eq!(scrape_sum(text, "serve_queue_wait_us_sum"), 150.0);
        assert_eq!(scrape_sum(text, "serve_queue_wait_us_count"), 4.0);
        assert_eq!(scrape_sum(text, "serve_backpressure_stalls_total"), 2.0);
        assert_eq!(scrape_sum(text, "serve_missing"), 0.0);
    }
}
