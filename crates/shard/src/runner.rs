//! Drive one shard of the corpus, and merge all shards into the study
//! report.
//!
//! A shard's loop per owned call: deterministically regenerate the call
//! (same seed derivation as the batch driver), save it into the shared
//! corpus directory atomically, analyze it back off disk through the
//! chunk-streamed pipeline (`analyze_saved_call`, the `TraceReader`
//! arena path — peak memory stays O(chunk + one call's RTC traffic)),
//! fold the result into the shard's `Aggregator`, and checkpoint at the
//! configured record interval. A killed shard resumes from its last
//! checkpoint: completed calls are skipped (their corpus files are
//! already in place), the partial aggregation is restored, and the loop
//! continues as if never interrupted.
//!
//! The merge step validates every shard's final snapshot header, folds
//! the shards' aggregations in shard order through the commutative
//! `StudyFold::merge`, and seals a `StudyReport` whose rendering is
//! byte-identical to a single-process batch run of the same plan — the
//! property the `study-scale` and `checkpoint-resume` CI jobs pin.

use crate::checkpoint::{CheckpointHeader, ShardCheckpoint};
use crate::plan::CorpusPlan;
use rtc_core::capture::{save_call, scenario_for};
use rtc_core::pipeline::{self, StageKind};
use rtc_core::{absorb_analysis, contain, FailedCall, StreamingStudy, StudyConfig, StudyFold, StudyReport};
use std::io;
use std::path::{Path, PathBuf};

/// Knobs of one shard run.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Checkpoint after at least this many newly decoded pcap records
    /// (call-boundary granularity; `0` = only the final snapshot).
    pub record_interval: u64,
    /// Pcap records resident per read in the streaming analyzer
    /// (`0` = reader default).
    pub chunk_records: usize,
    /// Re-judge every Nth shard-local call against the reference oracle
    /// (`0` = no oracle sampling).
    pub oracle_sample: usize,
}

impl Default for ShardOptions {
    fn default() -> ShardOptions {
        ShardOptions { record_interval: 50_000, chunk_records: 0, oracle_sample: 10 }
    }
}

/// What one `run_shard` invocation accomplished.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// Shard-local calls completed in total (including resumed-over ones).
    pub calls: usize,
    /// Calls this shard owns.
    pub calls_owned: usize,
    /// Pcap records decoded in total.
    pub records: u64,
    /// Raw capture bytes analyzed in total.
    pub bytes: u64,
    /// Wall seconds accumulated across all invocations of this shard.
    pub elapsed_secs: f64,
    /// Whether this invocation picked up from an existing checkpoint.
    pub resumed: bool,
}

/// Path of a shard's periodic checkpoint.
pub fn checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.ckpt.json"))
}

/// Path of a shard's final snapshot (input of [`merge_shards`]).
pub fn done_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.done.json"))
}

fn shard_header(plan: &CorpusPlan, shard: usize) -> CheckpointHeader {
    CheckpointHeader { tier: plan.tier.clone(), seed: plan.experiment.seed, shards: plan.shards, shard }
}

/// The analysis configuration every shard (and the batch reference run)
/// uses: the plan's matrix, default filter/DPI settings, metrics off.
/// `shards` scales the intra-call DPI thread count so N shard processes
/// on one machine share the cores instead of oversubscribing N-fold;
/// analysis results are thread-count-invariant (pinned by the oracle
/// differential suite), so this cannot perturb report bytes.
pub fn shard_config(plan: &CorpusPlan, shards: usize) -> StudyConfig {
    let mut config = StudyConfig {
        experiment: plan.experiment.clone(),
        filter: Default::default(),
        dpi: Default::default(),
        obs: rtc_core::obs::MetricsRegistry::disabled(),
    };
    config.dpi.threads = rtc_core::dpi::par::share_threads(config.dpi.threads, shards);
    config
}

/// Run (or resume) one shard of the campaign under `dir`.
///
/// Exits the *process* (SIGTERM to self, exit code 143 as fallback) when
/// the `RTC_STUDY_KILL_SHARD` / `RTC_STUDY_KILL_AFTER_RECORDS`
/// fault-injection hook targets this shard — the `checkpoint-resume` CI
/// job uses this to kill a shard mid-run at a deterministic point.
pub fn run_shard(dir: &Path, shard: usize, options: &ShardOptions) -> io::Result<ShardOutcome> {
    let plan = CorpusPlan::load(dir)?;
    if shard >= plan.shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shard index {shard} out of range: plan has {} shards", plan.shards),
        ));
    }
    let header = shard_header(&plan, shard);
    let ckpt_path = checkpoint_path(dir, shard);
    let done = done_path(dir, shard);
    let owned = plan.shard_calls(shard);

    // Already finished (e.g. a resume after only some shards died):
    // report the recorded outcome without redoing anything.
    if done.exists() {
        let state = ShardCheckpoint::load(&done, &header)?;
        return Ok(outcome_of(&state, shard, owned.len(), false));
    }

    let (mut state, resumed) = if ckpt_path.exists() {
        (ShardCheckpoint::load(&ckpt_path, &header)?, true)
    } else {
        (ShardCheckpoint::fresh(header), false)
    };

    let corpus = CorpusPlan::corpus_dir(dir);
    std::fs::create_dir_all(&corpus)?;
    let config = shard_config(&plan, plan.shards);
    let kill_after = kill_after_records(shard);

    let started = std::time::Instant::now();
    let base_elapsed = state.elapsed_secs;
    let mut records_at_last_ckpt = state.records;

    for (ordinal, planned) in owned.iter().enumerate() {
        if ordinal < state.cursor {
            continue; // Done before the checkpoint; corpus file is in place.
        }

        // Regenerate deterministically and persist before analyzing: the
        // corpus is the ground truth the batch comparison re-reads.
        let scenario = scenario_for(&plan.experiment, planned.app, planned.network, planned.repeat);
        let cap = rtc_core::capture::synthesize_call(&scenario, planned.repeat);
        save_call(&corpus, &cap)?;
        let stem = format!("{}_{}_{}", cap.manifest.app, cap.manifest.network, cap.manifest.repeat);
        let pcap_path = corpus.join(format!("{stem}.pcap"));
        let manifest = cap.manifest.clone();
        drop(cap); // Only the on-disk copy feeds analysis, chunk by chunk.

        match contain(|| pipeline::analyze_saved_call(&pcap_path, &manifest, &config, options.chunk_records)) {
            Ok(Ok((analysis, call_stats))) => {
                if options.oracle_sample > 0 && ordinal % options.oracle_sample == 0 {
                    let scenario = format!("{}/{}#{}", manifest.app, manifest.network, manifest.repeat);
                    let (messages, divergences) = rtc_oracle::rejudge_call(&scenario, &analysis);
                    state.oracle_calls += 1;
                    state.oracle_messages += messages;
                    if !divergences.is_empty() {
                        return Err(io::Error::other(format!(
                            "oracle re-judgement diverged on sampled call {scenario}: {}",
                            divergences[0]
                        )));
                    }
                }
                state.records += call_stats.stage(StageKind::Decode).items_in;
                state.bytes += analysis.record.raw_bytes as u64;
                state.stats.absorb(&call_stats);
                absorb_analysis(&mut state.aggregator, &mut state.stats, analysis, &config.obs);
            }
            Ok(Err(e)) => {
                return Err(io::Error::other(format!("shard {shard}: call {stem}: {e}")));
            }
            Err(error) => state.failures.push(FailedCall::of(planned.index, &manifest, error)),
        }
        state.cursor = ordinal + 1;

        // Fault injection first: work since the last checkpoint is lost,
        // exactly like a real SIGTERM between checkpoints.
        if let Some(after) = kill_after {
            if state.records >= after {
                kill_self();
            }
        }
        if options.record_interval > 0 && state.records - records_at_last_ckpt >= options.record_interval {
            state.elapsed_secs = base_elapsed + started.elapsed().as_secs_f64();
            state.write_atomic(&ckpt_path)?;
            records_at_last_ckpt = state.records;
        }
    }

    state.elapsed_secs = base_elapsed + started.elapsed().as_secs_f64();
    state.write_atomic(&done)?;
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(outcome_of(&state, shard, owned.len(), resumed))
}

fn outcome_of(state: &ShardCheckpoint, shard: usize, calls_owned: usize, resumed: bool) -> ShardOutcome {
    ShardOutcome {
        shard,
        calls: state.cursor,
        calls_owned,
        records: state.records,
        bytes: state.bytes,
        elapsed_secs: state.elapsed_secs,
        resumed,
    }
}

fn kill_after_records(shard: usize) -> Option<u64> {
    let target: usize = std::env::var("RTC_STUDY_KILL_SHARD").ok()?.parse().ok()?;
    if target != shard {
        return None;
    }
    std::env::var("RTC_STUDY_KILL_AFTER_RECORDS").ok()?.parse().ok()
}

/// Die the way the `checkpoint-resume` CI job's victim dies: SIGTERM to
/// our own pid (via the `kill` utility — the workspace links no libc),
/// falling back to a bare `exit(143)` (128+SIGTERM) where no such
/// utility exists.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-TERM", &pid]).status();
    // Signal delivery may race `status()` returning; parking briefly
    // gives it time before the fallback exit.
    std::thread::sleep(std::time::Duration::from_millis(200));
    std::process::exit(143);
}

/// Per-shard summary carried alongside the merged report.
#[derive(Debug, Clone)]
pub struct MergedShard {
    /// Shard index.
    pub shard: usize,
    /// Calls the shard analyzed.
    pub calls: usize,
    /// Pcap records the shard decoded.
    pub records: u64,
    /// Raw capture bytes the shard analyzed.
    pub bytes: u64,
    /// Shard wall seconds (across resumes).
    pub elapsed_secs: f64,
}

/// The merged study: the report plus per-shard accounting.
#[derive(Debug)]
pub struct MergedStudy {
    /// The sealed study report.
    pub report: StudyReport,
    /// Per-shard summaries, in shard order.
    pub shards: Vec<MergedShard>,
    /// Calls re-judged by the oracle sample, summed over shards.
    pub oracle_calls: usize,
    /// Messages the oracle re-judged, summed over shards.
    pub oracle_messages: usize,
}

/// Merge every shard's final snapshot under `dir` into one study report.
///
/// Fails with a clear message naming unfinished shards (and how to
/// resume) if any final snapshot is missing; validates every snapshot's
/// version/seed header against the plan before merging.
pub fn merge_shards(dir: &Path) -> io::Result<MergedStudy> {
    let plan = CorpusPlan::load(dir)?;
    let mut missing = Vec::new();
    let mut states = Vec::with_capacity(plan.shards);
    for shard in 0..plan.shards {
        let path = done_path(dir, shard);
        if !path.exists() {
            missing.push(shard.to_string());
            continue;
        }
        states.push(ShardCheckpoint::load(&path, &shard_header(&plan, shard))?);
    }
    if !missing.is_empty() {
        return Err(io::Error::other(format!(
            "shard(s) {} did not finish — resume the campaign with `rtc-study scale --resume {}`",
            missing.join(", "),
            dir.display(),
        )));
    }

    let mut fold = StudyFold::default();
    let mut shards = Vec::with_capacity(states.len());
    let mut oracle_calls = 0;
    let mut oracle_messages = 0;
    for state in states {
        shards.push(MergedShard {
            shard: state.header.shard,
            calls: state.cursor,
            records: state.records,
            bytes: state.bytes,
            elapsed_secs: state.elapsed_secs,
        });
        oracle_calls += state.oracle_calls;
        oracle_messages += state.oracle_messages;
        fold.merge(StudyFold { aggregate: state.aggregator, stats: state.stats, failures: state.failures });
    }
    let report = fold.seal(Default::default());
    Ok(MergedStudy { report, shards, oracle_calls, oracle_messages })
}

/// The single-process batch reference for a sharded campaign: stream the
/// same corpus directory through the one-process driver with the same
/// analysis configuration. `StudyReport::render_all` of this and of
/// [`merge_shards`]'s report must agree byte for byte — the acceptance
/// property of the whole sharded runner.
pub fn batch_reference(dir: &Path, chunk_records: usize) -> io::Result<StudyReport> {
    let plan = CorpusPlan::load(dir)?;
    let config = shard_config(&plan, 1);
    StreamingStudy::analyze_dir(CorpusPlan::corpus_dir(dir), &config, chunk_records, None)
}
