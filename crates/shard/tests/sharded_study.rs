//! End-to-end properties of the sharded runner: the merged report is
//! byte-identical to a single-process batch run of the same plan, and a
//! checkpoint's size does not follow the traffic its calls carried. The
//! CLI integration suite covers kill-and-resume with a real SIGTERM.

use rtc_core::capture::ExperimentConfig;
use rtc_core::report::json::study_to_json;
use rtc_core::StudyReport;
use rtc_shard::runner::{batch_reference, checkpoint_path, done_path};
use rtc_shard::{merge_shards, run_shard, CheckpointHeader, CorpusPlan, ShardCheckpoint, ShardOptions};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtc-shard-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_plan(shards: usize, seed: u64) -> CorpusPlan {
    CorpusPlan { tier: "paper".into(), shards, experiment: ExperimentConfig::smoke(seed) }
}

fn options() -> ShardOptions {
    // A record interval small enough that every shard writes several
    // periodic checkpoints along the way, and a sample rate that
    // exercises the oracle path on a few calls per shard.
    ShardOptions { record_interval: 2_000, chunk_records: 64, oracle_sample: 5 }
}

fn fingerprint(report: &StudyReport) -> (String, String) {
    assert!(report.failures.is_empty(), "calls failed analysis: {:?}", report.failures);
    (serde_json::to_string(&study_to_json(&report.data)).unwrap(), report.render_all())
}

#[test]
fn merged_shards_equal_single_process_batch() {
    let dir = scratch("merge");
    let plan = small_plan(3, 7);
    plan.save(&dir).unwrap();

    for shard in 0..plan.shards {
        let outcome = run_shard(&dir, shard, &options()).unwrap();
        assert!(!outcome.resumed);
        assert_eq!(outcome.calls, outcome.calls_owned);
        assert!(outcome.records > 0, "shard {shard} decoded nothing");
        assert!(done_path(&dir, shard).exists());
        assert!(!checkpoint_path(&dir, shard).exists(), "final snapshot must clear the periodic checkpoint");
    }

    let merged = merge_shards(&dir).unwrap();
    assert_eq!(merged.shards.len(), plan.shards);
    assert!(merged.oracle_calls > 0, "oracle sample never fired");
    assert!(merged.oracle_messages > 0);

    let batch = batch_reference(&dir, 64).unwrap();
    assert_eq!(fingerprint(&merged.report), fingerprint(&batch), "sharded merge diverged from batch run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two shards whose calls differ only in duration (15 s vs 30 s) carry
/// ~1.7x the traffic apart, yet their checkpoints differ in size by a few
/// percent: a checkpoint holds per-type counts, not messages. (What does
/// grow is bounded by the type vocabulary — a longer call can show a few
/// more message types — and by the digits of the counts.)
#[test]
fn checkpoint_size_does_not_grow_with_call_duration() {
    let mut checkpoints = Vec::new();
    for secs in [15, 30] {
        let dir = scratch(&format!("size-{secs}"));
        let mut plan = small_plan(3, 23);
        plan.experiment.call_secs = secs;
        plan.save(&dir).unwrap();
        run_shard(&dir, 0, &options()).unwrap();
        let header = CheckpointHeader { tier: plan.tier.clone(), seed: 23, shards: 3, shard: 0 };
        checkpoints.push(ShardCheckpoint::load(&done_path(&dir, 0), &header).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (short, long) = (&checkpoints[0], &checkpoints[1]);
    assert_eq!(short.aggregator.len(), long.aggregator.len());
    assert!(long.records as f64 > 1.5 * short.records as f64, "{} vs {} records", long.records, short.records);
    let len = |c: &ShardCheckpoint| serde_json::to_string(&c.to_json()).unwrap().len() as f64;
    let (a, b) = (len(short), len(long));
    assert!((b - a).abs() < 0.05 * a, "checkpoint text grew from {a} to {b} bytes");
}

#[test]
fn finished_shard_rerun_is_a_no_op() {
    let dir = scratch("noop");
    small_plan(2, 13).save(&dir).unwrap();
    let first = run_shard(&dir, 0, &options()).unwrap();
    let again = run_shard(&dir, 0, &options()).unwrap();
    assert_eq!(again.calls, first.calls);
    assert_eq!(again.records, first.records);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_names_unfinished_shards() {
    let dir = scratch("missing");
    small_plan(3, 17).save(&dir).unwrap();
    run_shard(&dir, 1, &options()).unwrap();
    let e = merge_shards(&dir).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("0, 2"), "should name unfinished shards: {msg}");
    assert!(msg.contains("--resume"), "should point at the resume flag: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}
