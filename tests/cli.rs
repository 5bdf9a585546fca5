//! End-to-end tests of the `sunder` CLI binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sunder"))
}

fn write_temp(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sunder-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents).unwrap();
    path
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("explode").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn run_reports_matches() {
    let rules = write_temp("rules.txt", b"# comment line\ncat\ndog[0-9]\n");
    let input = write_temp("input.bin", b"the cat met dog7 and another cat");
    let out = bin()
        .args(["run", "--rules"])
        .arg(&rules)
        .arg("--input")
        .arg(&input)
        .args(["--fifo", "--summarize"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reports: 3"), "{stdout}");
    assert!(stdout.contains("matched_rules: 0,1"), "{stdout}");
    assert!(stdout.contains("summarized_rules: 0,1"), "{stdout}");
    assert!(stdout.contains("overhead: 1.0000"), "{stdout}");
}

#[test]
fn trace_mode_lists_cycle_rule_pairs() {
    let rules = write_temp("trace-rules.txt", b"ab\n");
    let input = write_temp("trace-input.bin", b"abab");
    let out = bin()
        .args(["run", "--rules"])
        .arg(&rules)
        .arg("--input")
        .arg(&input)
        .args(["--trace", "--rate", "8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 8-bit rate: one byte per cycle; matches end at cycles 1 and 3.
    assert_eq!(
        stdout.trim().lines().collect::<Vec<_>>(),
        vec!["1\t0", "3\t0"]
    );
}

#[test]
fn compile_then_run_precompiled_program() {
    let rules = write_temp("c-rules.txt", b"net[0-9]+\n");
    let program = write_temp("program.saml", b"");
    let out = bin()
        .args(["compile", "--rules"])
        .arg(&rules)
        .args(["--rate", "16", "-o"])
        .arg(&program)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&program).unwrap();
    assert!(text.starts_with("automaton bits=4 stride=4"));

    let input = write_temp("c-input.bin", b"net42 online");
    let out = bin()
        .args(["run", "--program"])
        .arg(&program)
        .arg("--input")
        .arg(&input)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matched_rules: 0"), "{stdout}");
}

#[test]
fn stats_prints_both_static_and_transform() {
    let rules = write_temp("s-rules.txt", b"abc\nxyz\n");
    let out = bin().args(["run", "--rules"]).output().unwrap();
    assert!(!out.status.success()); // missing --input

    let out = bin()
        .args(["stats", "--rules"])
        .arg(&rules)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("static: 6 states"), "{stdout}");
    assert!(stdout.contains("transform overheads:"), "{stdout}");
}

#[test]
fn bench_command_reports_measured_stats() {
    let out = bin()
        .args(["bench", "--benchmark", "bro217", "--small"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("benchmark: Bro217"), "{stdout}");
    assert!(stdout.contains("measured:"), "{stdout}");
}

#[test]
fn bad_rate_is_rejected() {
    let rules = write_temp("r-rules.txt", b"a\n");
    let out = bin()
        .args(["compile", "--rules"])
        .arg(&rules)
        .args(["--rate", "12"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rate"));
}

#[test]
fn serve_daemon_takes_stdin_commands_and_drains() {
    use std::process::Stdio;
    let rules = write_temp("serve-rules.txt", b"ab+c\n[0-9]{3}\n");
    let rules2 = write_temp("serve-rules2.txt", b"ab+c\n[0-9]{3}\nq{2}\n");
    let mut child = bin()
        .args(["serve", "--rules"])
        .arg(&rules)
        .args(["--addr", "127.0.0.1:0", "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    write!(stdin, "status\nreload {}\nstatus\nquit\n", rules2.display()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("listening on 127.0.0.1:"), "{stderr}");
    assert!(stderr.contains("now epoch 2"), "{stderr}");
    assert!(stderr.contains("drained: 0 finished, 0 forced"), "{stderr}");
    // `status` prints the /statusz JSON document on stdout — one line
    // per invocation, epoch advancing across the reload.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(docs.len(), 2, "{stdout}");
    assert!(docs[0].contains("\"epoch\":1"), "{stdout}");
    assert!(docs[1].contains("\"epoch\":2"), "{stdout}");
    assert!(docs[0].contains("\"active\":0"), "{stdout}");
}

/// With no `--shards` or `--engine`, `serve` runs one shard on an engine
/// resolved at compile time, and a default-flag `compile-db` artifact
/// hot-reloads into it.
#[test]
fn serve_defaults_to_one_shard_and_a_resolved_engine() {
    use std::process::Stdio;
    let rules = write_temp(
        "default-rules.txt",
        b".*password=[a-z]{4}\n[0-9]{3}\nab+c\nxyz\n",
    );
    let sdb = write_temp("default-rules.sdb", b"");
    let out = bin()
        .args(["compile-db", "--rules"])
        .arg(&rules)
        .arg("-o")
        .arg(&sdb)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains(", 1 shards,"), "{stderr}");
    let out = bin().arg("inspect-db").arg(&sdb).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("(requested auto)"), "{stdout}");
    assert!(!stdout.contains("engine           auto"), "{stdout}");

    let mut child = bin()
        .args(["serve", "--rules"])
        .arg(&rules)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    write!(stdin, "status\nreload {}\nquit\n", sdb.display()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("now epoch 2"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("status line");
    assert!(doc.contains("\"shards\":1"), "{doc}");
    assert!(doc.contains("\"request\":\"auto\""), "{doc}");
    assert!(
        doc.contains("\"engine\":\"sparse\"") || doc.contains("\"engine\":\"dense\""),
        "{doc}"
    );
}

#[test]
fn serve_chaos_clean_run_exits_zero() {
    let rules = write_temp("chaos-rules.txt", b"ab+c\n[0-9]{3}\n");
    let out = bin()
        .args(["serve-chaos", "--rules"])
        .arg(&rules)
        .args(["--sessions", "4", "--config", "stride2", "--shards", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for i in 0..4 {
        assert!(stdout.contains(&format!("s{i}\tcompleted\tok")), "{stdout}");
    }
    assert!(
        stderr.contains("0 divergence(s), 0 unattributed"),
        "{stderr}"
    );
}

#[test]
fn serve_chaos_attributes_faults_and_exits_three() {
    let rules = write_temp("chaos3-rules.txt", b"ab+c\n[0-9]{3}\n");
    let plan = write_temp("chaos3.plan", b"panic 1\nmalformed-frame 2 3\n");
    let artifact = write_temp("chaos3.jsonl", b"");
    let out = bin()
        .args(["serve-chaos", "--rules"])
        .arg(&rules)
        .args(["--sessions", "4", "--fault-plan"])
        .arg(&plan)
        .arg("--artifact")
        .arg(&artifact)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s1\terrored\tattributed"), "{stdout}");
    assert!(stdout.contains("s2\terrored\tattributed"), "{stdout}");
    assert!(stdout.contains("s0\tcompleted\tok"), "{stdout}");
    assert!(stderr.contains("2 attributed victim(s)"), "{stderr}");
    // The artifact is a valid telemetry JSONL with session attribution.
    let text = std::fs::read_to_string(&artifact).unwrap();
    assert!(text.contains("serve.session_fault"), "{text}");
    assert!(text.contains("chaos.session_outcome"), "{text}");
}

#[test]
fn serve_chaos_usage_error_exits_two() {
    let out = bin()
        .args(["serve-chaos", "--rules", "/nonexistent/rules.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}
