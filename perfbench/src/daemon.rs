//! Launches and drives a real `sunder serve` process.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunder_shard::ClientFrame;

use crate::client::Conn;

/// How long a daemon may take to compile and bind.
const START_TIMEOUT: Duration = Duration::from_secs(150);
/// How long a reload or a drain may take.
const COMMAND_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `sunder serve`.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    stderr_reader: Option<JoinHandle<()>>,
    /// Protocol listener.
    pub addr: SocketAddr,
    /// Observability listener, when launched with one.
    pub obs: Option<SocketAddr>,
}

impl Daemon {
    /// Starts `sunder serve` with `args` on loopback ports the OS picks
    /// and opens one session. Returns the daemon and its set-up time:
    /// launch to the first `HelloAck`.
    pub fn launch(sunder: &Path, args: &[String], with_obs: bool) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut cmd = Command::new(sunder);
        cmd.arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if with_obs {
            cmd.args(["--obs-addr", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", sunder.display()))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, lines) = channel();
        let stderr_reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child,
            stdin,
            lines,
            stderr_reader: Some(stderr_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            obs: None,
        };
        let deadline = started + START_TIMEOUT;
        let listening = daemon.wait_line(deadline, |l| l.contains("listening on "))?;
        daemon.addr = parse_addr(&listening, "listening on ")?;
        if with_obs {
            let obs = daemon.wait_line(deadline, |l| l.contains("observability on http://"))?;
            daemon.obs = Some(parse_addr(&obs, "observability on http://")?);
        }
        let mut conn = Conn::connect(daemon.addr)?;
        conn.hello("bench-setup")?;
        let setup = started.elapsed().as_secs_f64();
        // Close the probe session by the protocol: Finish → tail → Done.
        conn.send(&ClientFrame::Finish)?;
        conn.recv()?;
        conn.recv()?;
        Ok((daemon, setup))
    }

    /// Waits for a stderr line satisfying `want`.
    fn wait_line(
        &mut self,
        deadline: Instant,
        want: impl Fn(&str) -> bool,
    ) -> Result<String, String> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if want(&line) => return Ok(line),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err("daemon did not answer in time".into())
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("daemon exited: {:?}", self.child.wait()))
                }
            }
        }
    }

    fn command(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write daemon stdin: {e}"))
    }

    /// `reload <sdb>` on stdin; returns the new epoch and the seconds
    /// from the write to the daemon's confirmation. A refused reload is
    /// an error.
    pub fn reload(&mut self, sdb: &Path) -> Result<(u64, f64), String> {
        let started = Instant::now();
        self.command(&format!("reload {}", sdb.display()))?;
        let line = self.wait_line(started + COMMAND_TIMEOUT, |l| {
            l.starts_with("reloaded ") || l.starts_with("reload failed")
        })?;
        let elapsed = started.elapsed().as_secs_f64();
        let epoch = line
            .rsplit_once("now epoch ")
            .and_then(|(_, e)| e.trim().parse().ok())
            .ok_or_else(|| format!("reload refused: {line}"))?;
        Ok((epoch, elapsed))
    }

    /// The daemon's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read daemon status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in daemon status")?;
        Ok(kb * 1024.0 / 1e6)
    }

    /// `quit`, then waits for a clean drain and exit.
    pub fn quit(mut self) -> Result<(), String> {
        self.command("quit")?;
        self.stdin = None;
        let deadline = Instant::now() + COMMAND_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            if Instant::now() >= deadline {
                return Err("daemon did not drain in time".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stdin = None;
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
    }
}

fn parse_addr(line: &str, after: &str) -> Result<SocketAddr, String> {
    line.split_once(after)
        .and_then(|(_, rest)| rest.split([' ', '(', ')']).next())
        .and_then(|a| a.trim().parse().ok())
        .ok_or_else(|| format!("no address in daemon line {line:?}"))
}

/// Runs `sunder compile-db` with the product's defaults (plus `config`
/// when given), writing the artifact to `out`.
pub fn compile_db(
    sunder: &Path,
    source_args: &[String],
    config: Option<&str>,
    out: &Path,
) -> Result<(), String> {
    let mut cmd = Command::new(sunder);
    cmd.arg("compile-db").args(source_args).arg("-o").arg(out);
    if let Some(config) = config {
        cmd.args(["--config", config]);
    }
    let output = cmd
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("spawn compile-db: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "compile-db failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_from_daemon_banners() {
        let l = "sunder serve: listening on 127.0.0.1:40123 (epoch 1); stdin commands: reload";
        assert_eq!(
            parse_addr(l, "listening on ").unwrap(),
            "127.0.0.1:40123".parse().unwrap()
        );
        let o = "sunder serve: observability on http://127.0.0.1:40124 (/metrics /healthz)";
        assert_eq!(
            parse_addr(o, "observability on http://").unwrap(),
            "127.0.0.1:40124".parse().unwrap()
        );
    }
}
