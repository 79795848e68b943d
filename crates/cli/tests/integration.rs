//! End-to-end tests of the `rtc-study` binary: every subcommand is invoked
//! as a real process and judged on its exit code and stdout/stderr, the
//! contract scripts and CI consume. Campaigns are kept to one app × one
//! network so the suite stays inside the tier-1 budget.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rtc-study")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn rtc-study")
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(bin())
        .args(args)
        .envs(env.iter().map(|(k, v)| (k.to_string(), v.to_string())))
        .output()
        .expect("spawn rtc-study")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtc-study-it-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Save a one-call campaign with `run --save` and return its directory.
fn saved_campaign(dir: &Path) {
    let out = run(&[
        "run",
        "--secs",
        "15",
        "--repeats",
        "1",
        "--seed",
        "3",
        "--apps",
        "zoom",
        "--networks",
        "wifi-relay",
        "--save",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "run --save failed: {}", stderr(&out));
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("USAGE"), "{text}");
    assert!(text.contains("rtc-study oracle"), "{text}");
}

#[test]
fn unknown_command_exits_two_with_usage_on_stderr() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
    assert!(stdout(&out).is_empty());
}

#[test]
fn run_rejects_unknown_apps_and_networks() {
    for (flag, value, message) in
        [("--apps", "zom", "unknown app 'zom'"), ("--networks", "wifi", "unknown network 'wifi'")]
    {
        let out = run(&["run", flag, value, "--secs", "5", "--scale", "0.05", "--repeats", "1"]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = stderr(&out);
        assert!(err.contains(message), "{err}");
        assert!(stdout(&out).is_empty(), "nothing runs: {}", stdout(&out));
    }
}

#[test]
fn run_renders_tables_and_exports_artifacts() {
    let dir = scratch("run");
    let export = dir.join("artifacts");
    let out = run(&[
        "run",
        "--secs",
        "15",
        "--repeats",
        "1",
        "--seed",
        "3",
        "--apps",
        "zoom",
        "--networks",
        "wifi-relay",
        "--out",
        export.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("running 1 calls"), "{text}");
    assert!(text.contains("Table 1"), "{text}");
    assert!(text.contains("Table 3"), "{text}");
    assert!(export.join("summary.json").exists());
    assert!(export.join("table1.csv").exists());
    let summary: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(export.join("summary.json")).unwrap()).unwrap();
    assert!(summary["calls"].as_u64().is_some(), "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_batch_and_stream_agree_on_rendered_tables() {
    let dir = scratch("analyze");
    saved_campaign(&dir);

    let batch = run(&["analyze", dir.to_str().unwrap()]);
    assert_eq!(batch.status.code(), Some(0), "{}", stderr(&batch));
    let batch = stdout(&batch);
    assert!(batch.contains("batch analysis"), "{batch}");

    let streamed = run(&["analyze", dir.to_str().unwrap(), "--stream", "--chunk", "64"]);
    assert_eq!(streamed.status.code(), Some(0), "{}", stderr(&streamed));
    let streamed = stdout(&streamed);
    assert!(streamed.contains("streaming analysis"), "{streamed}");
    assert!(streamed.contains("[1/1]"), "{streamed}");

    // The drivers must render byte-identical tables; only the preamble and
    // trailing pipeline timings legitimately differ.
    let tables = |s: &str| s[s.find("Table 1").unwrap()..s.rfind("pipeline:").unwrap()].to_string();
    assert_eq!(tables(&batch), tables(&streamed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_corrupt_capture_exits_one() {
    let dir = scratch("analyze-fail");
    saved_campaign(&dir);
    let pcap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pcap"))
        .unwrap();
    std::fs::write(&pcap, b"not a pcap").unwrap();
    // The streaming driver records the failure per call and exits 1 after
    // listing it (the batch loader aborts with an IO error instead).
    let out = run(&["analyze", dir.to_str().unwrap(), "--stream"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    // The progress line names the call by its display name, as the
    // report's failure list does.
    assert!(text.contains("[1/1] Zoom / wifi-relay #0: FAILED: "), "{text}");
    assert!(text.contains("call(s) failed analysis"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_then_dissect_reports_compliance() {
    let dir = scratch("dissect");
    let pcap = dir.join("call.pcap");
    let out = run(&["generate", "discord", "wifi-p2p", pcap.to_str().unwrap(), "--secs", "15", "--seed", "5"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(pcap.exists());
    assert!(pcap.with_extension("json").exists());

    let out = run(&["dissect", pcap.to_str().unwrap(), "--threads", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("decodable packets"), "{text}");
    // `dpi: N candidates (stun a, channeldata b, rtp c, rtcp d, quic e), K kept, M validated (x.x %)`
    let line = text.lines().find(|l| l.starts_with("dpi: ") && l.contains(" candidates (")).expect(&text);
    let numbers: Vec<u64> =
        line.split(|c: char| !c.is_ascii_digit()).filter(|w| !w.is_empty()).map(|w| w.parse().unwrap()).collect();
    let (total, per_matcher, kept, validated) = (numbers[0], &numbers[1..6], numbers[6], numbers[7]);
    assert!(line.contains("(stun ") && line.contains(", rtp ") && line.contains(" kept, "), "{line}");
    assert!(line.contains(" validated ("), "{line}");
    assert_eq!(per_matcher.iter().sum::<u64>(), total, "{line}");
    // The noise cut drops RTP candidates only, and keeps every one that validates.
    assert!(total - per_matcher[2] <= kept && kept < total, "{line}");
    assert!(0 < validated && validated <= kept, "{line}");
    let share = format!("({:.1} %)", 100.0 * validated as f64 / total as f64);
    assert!(line.ends_with(&share), "{line}");
    assert!(text.contains("volume compliance"), "{text}");
    assert!(text.contains("compliant"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Two `dissect` runs on one pcap print the same bytes: the per-protocol
/// message lines come out in protocol order, not hash order.
#[test]
fn dissect_output_is_deterministic() {
    let dir = scratch("dissect-determinism");
    let pcap = dir.join("call.pcap");
    let out = run(&["generate", "meet", "wifi-relay", pcap.to_str().unwrap(), "--secs", "15", "--seed", "5"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let first = run(&["dissect", pcap.to_str().unwrap()]);
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));
    let text = stdout(&first);
    let protocols: Vec<&str> =
        text.lines().filter(|l| l.ends_with(" messages") && !l.contains("compliance")).collect();
    assert_eq!(protocols.len(), 3, "STUN/TURN, RTP and RTCP lines expected: {text}");
    assert!(protocols[0].contains("STUN/TURN") && protocols[1].contains("RTP") && protocols[2].contains("RTCP"));
    for _ in 0..3 {
        let again = run(&["dissect", pcap.to_str().unwrap()]);
        assert_eq!(again.stdout, first.stdout, "dissect output differs between runs");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dissect_missing_file_exits_one() {
    let out = run(&["dissect", "/nonexistent/capture.pcap"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
}

/// CI-sized shrink of the paper tier: 18 calls of 8 emulated seconds at
/// 5% traffic scale (~350–420 pcap records per call). The plan resolves
/// these overrides once, at `--dir` time, so resumes are immune to them.
const SMALL_TIER: [(&str, &str); 3] =
    [("RTC_STUDY_SECS", "8"), ("RTC_STUDY_SCALE", "0.05"), ("RTC_STUDY_REPEATS", "1")];

#[test]
fn scale_campaign_merges_verifies_and_survives_kill_resume() {
    let base = scratch("scale");
    let ref_dir = base.join("ref");
    let killed_dir = base.join("killed");
    let ref_report = base.join("ref-report.txt");
    let killed_report = base.join("killed-report.txt");

    // Uninterrupted sharded campaign; --verify-batch re-analyzes the
    // corpus single-process in the same invocation and byte-compares.
    let out = run_env(
        &[
            "scale",
            "--tier",
            "paper",
            "--dir",
            ref_dir.to_str().unwrap(),
            "--shards",
            "2",
            "--seed",
            "5",
            "--record-interval",
            "300",
            "--chunk",
            "64",
            "--oracle-sample",
            "7",
            "--verify-batch",
            "--report",
            ref_report.to_str().unwrap(),
        ],
        &SMALL_TIER,
    );
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("planned 18 calls"), "{text}");
    assert!(text.contains("verify-batch: merged report is byte-identical"), "{text}");
    assert!(text.contains("oracle sample:"), "{text}");
    assert!(ref_dir.join("plan.json").exists());
    assert!(ref_dir.join("shard-0.done.json").exists());

    // Re-planning over an existing campaign is refused, with the way out.
    let out = run_env(&["scale", "--tier", "paper", "--dir", ref_dir.to_str().unwrap()], &SMALL_TIER);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stderr(&out).contains("--resume"), "{}", stderr(&out));

    // Same campaign, but shard 0 is SIGTERM-ed after ~1000 decoded
    // records (call 3 of 9) — past its first checkpoints, before the end.
    let mut kill_env = SMALL_TIER.to_vec();
    kill_env.push(("RTC_STUDY_KILL_SHARD", "0"));
    kill_env.push(("RTC_STUDY_KILL_AFTER_RECORDS", "1000"));
    let out = run_env(
        &[
            "scale",
            "--tier",
            "paper",
            "--dir",
            killed_dir.to_str().unwrap(),
            "--shards",
            "2",
            "--seed",
            "5",
            "--record-interval",
            "300",
            "--chunk",
            "64",
            "--oracle-sample",
            "7",
        ],
        &kill_env,
    );
    assert_eq!(out.status.code(), Some(1), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("campaign interrupted"), "{text}");
    assert!(killed_dir.join("shard-0.ckpt.json").exists(), "killed shard should leave a checkpoint behind");
    assert!(!killed_dir.join("shard-0.done.json").exists());

    // Resume (no kill hook this time): the finished shard is skipped, the
    // killed one continues from its checkpoint, and the merged report is
    // byte-identical to the uninterrupted campaign's.
    let out = run(&[
        "scale",
        "--resume",
        killed_dir.to_str().unwrap(),
        "--record-interval",
        "300",
        "--chunk",
        "64",
        "--oracle-sample",
        "7",
        "--report",
        killed_report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("resuming paper tier campaign"), "{text}");
    assert!(text.contains("shard 1: already finished, skipping"), "{text}");
    assert!(
        text.lines().any(|l| l.starts_with("shard 0: 9/9 call(s)") && l.ends_with(" (resumed)")),
        "the killed shard must finish from its checkpoint: {text}"
    );
    assert_eq!(
        std::fs::read_to_string(&ref_report).unwrap(),
        std::fs::read_to_string(&killed_report).unwrap(),
        "kill-and-resume changed the merged report bytes"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn scale_resume_rejects_plans_naming_unknown_apps_or_networks() {
    for (field, name) in [("apps", "zom"), ("networks", "wifi")] {
        let dir = scratch(&format!("resume-{name}"));
        let mut experiment = rtc_core::capture::ExperimentConfig::smoke(5);
        match field {
            "apps" => experiment.apps = vec![name.into()],
            _ => experiment.networks = vec![name.into()],
        }
        let plan = rtc_shard::CorpusPlan { tier: "paper".into(), shards: 1, experiment };
        std::fs::write(rtc_shard::CorpusPlan::path(&dir), plan.to_json().to_string()).unwrap();
        let out = run(&["scale", "--resume", dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{field} {name}: {}", stdout(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("'{name}'")), "{err}");
        assert!(!stdout(&out).contains("calls over"), "nothing runs: {}", stdout(&out));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn oracle_reduced_matrix_is_clean() {
    // One app keeps the 4-configuration sweep cheap; the full matrix and
    // golden comparison run in the CI `oracle` job.
    let out = run(&["oracle", "--apps", "zoom", "--threads", "2", "--skip-golden", "--seed", "5"]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("differential matrix"), "{text}");
    assert_eq!(text.matches("no divergences").count(), 1, "{text}");
}

#[test]
fn oracle_stale_golden_dir_exits_one() {
    // Pointing --golden-dir at an empty directory must fail the check and
    // name every missing snapshot. The matrix stage is kept minimal; only
    // the golden verdict matters here.
    let dir = scratch("oracle-golden");
    let out =
        run(&["oracle", "--apps", "zoom", "--threads", "2", "--seed", "5", "--golden-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("missing from the golden corpus"), "{text}");
    assert!(text.contains("golden corpus out of date"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
