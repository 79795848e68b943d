//! Command-line interface logic for `rtc-study` — kept in a library so the
//! argument parsing and command dispatch are unit-testable.
//!
//! Subcommands:
//!
//! * `run` — execute the study matrix and print/export every artifact,
//! * `generate` — emit one emulated call as a pcap + JSON manifest,
//! * `dissect` — analyze an arbitrary pcap/pcapng capture,
//! * `oracle` — run the differential reference-oracle suite,
//! * `serve` — run the multi-tenant live-analysis service,
//! * `scale` — run a paper- or city-scale campaign sharded over worker
//!   processes, with checkpointed resume (`scale-shard` is the hidden
//!   per-shard child entry point),
//! * `tables` — list the artifacts and the paper sections they reproduce.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rtc_core::capture::check_names;
use rtc_core::{Artifact, Study, StudyConfig};
use std::path::PathBuf;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the study matrix.
    Run {
        /// Call duration in seconds.
        call_secs: u64,
        /// Traffic scale in (0, 1].
        scale: f64,
        /// Repeats per (app, network) cell.
        repeats: usize,
        /// Experiment seed.
        seed: u64,
        /// Restrict to these app slugs (empty = all six).
        apps: Vec<String>,
        /// Restrict to these network labels (empty = all three).
        networks: Vec<String>,
        /// Export directory for CSV/JSON artifacts.
        out: Option<PathBuf>,
        /// Save the generated captures (pcap + manifest per call) here.
        save: Option<PathBuf>,
        /// Dump the metrics snapshot here at exit (`.json` = JSON, else
        /// Prometheus text exposition).
        metrics: Option<PathBuf>,
    },
    /// Analyze a saved experiment directory.
    Analyze {
        /// Directory written by `run --save` (one `.pcap` + `.json` per call).
        dir: PathBuf,
        /// Drive the chunked streaming engine instead of the batch loader.
        stream: bool,
        /// Records per read chunk in streaming mode (0 = default).
        chunk: usize,
        /// Dump the metrics snapshot here at exit (`.json` = JSON, else
        /// Prometheus text exposition).
        metrics: Option<PathBuf>,
        /// Print a metrics summary line after every streamed call.
        progress_metrics: bool,
    },
    /// Generate one emulated call capture.
    Generate {
        /// Application slug.
        app: String,
        /// Network label.
        network: String,
        /// Output pcap path (a sibling `.json` manifest is written too).
        out: PathBuf,
        /// Call duration in seconds.
        call_secs: u64,
        /// Experiment seed.
        seed: u64,
    },
    /// Dissect a capture file.
    Dissect {
        /// pcap or pcapng path.
        path: PathBuf,
        /// Optional call window (seconds) to enable filtering.
        window: Option<(u64, u64)>,
        /// DPI extraction worker threads (0 = one per available core;
        /// `RTC_DPI_THREADS` overrides autodetection).
        threads: usize,
    },
    /// Run the differential oracle suite (production pipeline vs the
    /// RFC-literal reference decoders) and the golden-corpus check.
    Oracle {
        /// Experiment seed for the differential matrix.
        seed: u64,
        /// Restrict the matrix to these app slugs (empty = all six).
        apps: Vec<String>,
        /// DPI worker threads for the multi-threaded configurations.
        threads: usize,
        /// Skip the golden-corpus comparison (matrix only).
        skip_golden: bool,
        /// Compare against this snapshot directory instead of the
        /// committed corpus.
        golden_dir: Option<PathBuf>,
    },
    /// Run the multi-tenant live-analysis service.
    Serve {
        /// Listen address (`host:port`; port 0 picks a free port).
        listen: String,
        /// Session-shard (worker-thread) count.
        shards: usize,
        /// Per-shard bounded ingest-queue capacity, in messages.
        queue: usize,
        /// Idle-session eviction timeout in seconds (0 disables idle eviction).
        idle_secs: u64,
        /// Records per shard message on the ingest path (0 = reader default).
        chunk: usize,
        /// Study seed; also seeds the synthetic fleet schedule.
        seed: u64,
        /// Drive this many synthetic calls through the HTTP front-end
        /// (0 = just serve).
        fleet: usize,
        /// Tenants the synthetic fleet is spread over.
        tenants: usize,
        /// Emulated duration of each fleet call, seconds.
        call_secs: u64,
        /// Traffic scale for fleet calls, in (0, 1].
        scale: f64,
        /// Concurrent fleet upload workers.
        workers: usize,
        /// Write the live per-tenant rendered reports here at shutdown.
        report_dir: Option<PathBuf>,
        /// Also analyze the fleet offline (batch) and write those renders
        /// here, for diffing against the live reports.
        batch_dir: Option<PathBuf>,
        /// Dump the metrics snapshot here at exit (`.json` = JSON, else
        /// Prometheus text exposition).
        metrics: Option<PathBuf>,
        /// Shut down as soon as the fleet drive completes.
        exit_after_fleet: bool,
    },
    /// Run a sharded multi-process study campaign.
    Scale {
        /// Scale tier (`paper` or `city`); `None` when resuming (the
        /// persisted plan fixes it).
        tier: Option<String>,
        /// Number of shard worker processes; `None` when resuming.
        shards: Option<usize>,
        /// Fresh campaign directory (plan + corpus + checkpoints + report).
        dir: Option<PathBuf>,
        /// Resume an interrupted campaign from this directory instead.
        resume: Option<PathBuf>,
        /// Campaign seed.
        seed: u64,
        /// Checkpoint after this many newly decoded records per shard
        /// (0 = final snapshot only).
        record_interval: u64,
        /// Records per read chunk in the streaming analyzer (0 = default).
        chunk: usize,
        /// Re-judge every Nth shard-local call against the reference
        /// oracle (0 = no sampling).
        oracle_sample: usize,
        /// After merging, re-analyze the corpus single-process and assert
        /// the merged report is byte-identical.
        verify_batch: bool,
        /// Write the merged rendered report here.
        report: Option<PathBuf>,
    },
    /// Hidden: run one shard of a campaign (spawned by `scale`).
    ScaleShard {
        /// Campaign directory holding `plan.json`.
        dir: PathBuf,
        /// Shard index in `0..plan.shards`.
        shard: usize,
        /// Checkpoint record interval (0 = final snapshot only).
        record_interval: u64,
        /// Records per read chunk (0 = default).
        chunk: usize,
        /// Oracle sampling period (0 = off).
        oracle_sample: usize,
    },
    /// Run the coverage-guided differential fuzzer, or replay one input.
    Fuzz {
        /// Executions per target.
        budget: u64,
        /// Base RNG seed (every target derives its own stream).
        seed: u64,
        /// Target labels (empty = all targets).
        targets: Vec<String>,
        /// Persist the corpus, findings and `stats.json` here.
        out: Option<PathBuf>,
        /// Run both arms on the same budget and print the comparison.
        head_to_head: bool,
        /// Replay this hex input under the oracles instead of fuzzing
        /// (requires exactly one `--target`).
        replay: Option<String>,
    },
    /// List artifacts.
    Tables,
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
rtc-study — the RTC protocol-compliance study pipeline

USAGE:
  rtc-study run [--secs N] [--scale F] [--repeats N] [--seed N]
                [--apps a,b] [--networks x,y] [--out DIR] [--save DIR]
                [--metrics PATH]
  rtc-study analyze <dir> [--stream] [--chunk N] [--metrics PATH]
                          [--progress-metrics]
  rtc-study generate <app> <network> <out.pcap> [--secs N] [--seed N]
  rtc-study dissect <capture.pcap[ng]> [--window START END] [--threads N]
  rtc-study oracle [--seed N] [--apps a,b] [--threads N] [--skip-golden]
                   [--golden-dir DIR]
  rtc-study serve [--listen HOST:PORT] [--shards N] [--queue N]
                  [--idle-secs N] [--chunk N] [--seed N]
                  [--fleet N] [--tenants N] [--secs N] [--scale F]
                  [--workers N] [--report-dir DIR] [--batch-dir DIR]
                  [--metrics PATH] [--exit-after-fleet]
  rtc-study scale --tier paper|city --dir DIR [--shards N] [--seed N]
                  [--record-interval N] [--chunk N] [--oracle-sample N]
                  [--verify-batch] [--report FILE]
  rtc-study scale --resume DIR [--record-interval N] [--chunk N]
                  [--oracle-sample N] [--verify-batch] [--report FILE]
  rtc-study fuzz [--budget N] [--seed N] [--target T]... [--out DIR]
                 [--head-to-head]
  rtc-study fuzz --target T --replay HEX
  rtc-study tables
  rtc-study help

`analyze` re-analyzes an experiment saved with `run --save`. With
`--stream` the captures are read in bounded chunks through the staged
streaming engine (peak memory bounded across calls, and linear in one
call's retained RTC bytes) and one progress line per call reports the
per-stage counters and timings.

`--chunk N` sets the records per read and, like `--progress-metrics`,
needs `--stream`.

`--metrics PATH` dumps the observability registry when the study is done:
Prometheus text exposition by default, JSON when PATH ends in `.json`.
With `--stream --progress-metrics` a compact metrics summary line follows
every per-call progress line.

`oracle` replays the app×network matrix through the production pipeline
and an independent RFC-literal reference implementation under four driver
configurations (batch/streaming × 1/N threads), re-judges every
extracted message with the reference checker, and recomputes the
committed golden snapshots. Any divergence or stale snapshot exits
nonzero. Mutated inputs are the job of `fuzz`, whose parser targets run
the same production-vs-reference comparison.

`serve` boots the multi-tenant live-analysis service: `POST
/ingest/<tenant>/<call-id>` accepts a raw pcap body (manifest in the
`X-RTC-Manifest` header) and analyzes it incrementally on one of
`--shards` session-owning worker threads; `GET /report/<tenant>` renders
the tenant's live report, `GET /metrics` exposes the Prometheus scrape
surface (service gauges included), and `POST /shutdown` — or SIGINT —
drains every live session and exits. With `--fleet N` the service drives
N staggered synthetic calls through its own HTTP front-end; adding
`--batch-dir` writes the equivalent offline batch renders next to the
live ones so they can be diffed byte for byte.

`scale` runs a full study campaign sharded over worker processes: the
experiment matrix is resolved once into `DIR/plan.json` (versioned;
`RTC_STUDY_SECS` / `RTC_STUDY_SCALE` / `RTC_STUDY_REPEATS` size it down
for CI), partitioned round-robin into `--shards` child processes, each of
which generates, saves, and chunk-stream-analyzes its calls, writing an
atomic resume checkpoint every `--record-interval` decoded records. A
killed campaign continues with `--resume DIR`; finished shards are
skipped and interrupted ones restart from their last checkpoint. When
all shards finish, their snapshots merge into one report — byte-identical
to a single-process batch run of the same plan (`--verify-batch` proves
it in-process). The `paper` tier is the paper's matrix at 6 repeats,
6 x 3 x 6 = 108 calls (the paper reports about 90); `city` is the same
matrix at 10x the repeats.

`fuzz` runs the deterministic coverage-guided differential fuzzer over
the parsing stack, the workspace's one mutation loop: seeds from the
conformance golden vectors, structure-aware mutations, in-tree `rtc-cov`
probe feedback, and two oracles (panics, invariant and debug assertions;
and production-vs-reference divergence). Every finding prints a
minimized standalone replay command; `--out DIR` also persists the
corpus and a deterministic `stats.json`. `--head-to-head` also runs a
feedback-free arm (mutate-the-seeds-only) on the same budget and prints
the coverage comparison. The process exits nonzero when any finding
fires.

fuzz targets: stun channeldata rtp rtcp quic datagram pcap plan checkpoint

The process exits nonzero when any call's analysis failed.

apps:     zoom facetime whatsapp messenger discord meet
networks: wifi-p2p wifi-relay cellular
";

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tables" => Ok(Command::Tables),
        "run" => {
            let mut call_secs = 120u64;
            let mut scale = 0.25f64;
            let mut repeats = 3usize;
            let mut seed = 2025u64;
            let mut apps = Vec::new();
            let mut networks = Vec::new();
            let mut out = None;
            let mut save = None;
            let mut metrics = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--secs" => call_secs = value("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?,
                    "--scale" => scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
                    "--repeats" => repeats = value("--repeats")?.parse().map_err(|e| format!("--repeats: {e}"))?,
                    "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                    "--apps" => apps = value("--apps")?.split(',').map(|s| s.trim().to_string()).collect(),
                    "--networks" => {
                        networks = value("--networks")?.split(',').map(|s| s.trim().to_string()).collect()
                    }
                    "--out" => out = Some(PathBuf::from(value("--out")?)),
                    "--save" => save = Some(PathBuf::from(value("--save")?)),
                    "--metrics" => metrics = Some(PathBuf::from(value("--metrics")?)),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if !(0.0..=1.0).contains(&scale) || scale <= 0.0 {
                return Err("--scale must be in (0, 1]".into());
            }
            check_names(&apps, &networks)?;
            Ok(Command::Run { call_secs, scale, repeats, seed, apps, networks, out, save, metrics })
        }
        "analyze" => {
            let dir = PathBuf::from(it.next().cloned().ok_or("analyze: missing <dir>")?);
            let mut stream = false;
            let mut chunk = None;
            let mut metrics = None;
            let mut progress_metrics = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--stream" => stream = true,
                    "--chunk" => {
                        chunk = Some(
                            it.next().ok_or("--chunk needs a value")?.parse().map_err(|e| format!("--chunk: {e}"))?,
                        );
                    }
                    "--metrics" => {
                        metrics = Some(PathBuf::from(it.next().cloned().ok_or("--metrics needs a value")?));
                    }
                    "--progress-metrics" => progress_metrics = true,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if progress_metrics && !stream {
                return Err("--progress-metrics needs --stream".into());
            }
            if chunk.is_some() && !stream {
                return Err("--chunk needs --stream".into());
            }
            Ok(Command::Analyze { dir, stream, chunk: chunk.unwrap_or(0), metrics, progress_metrics })
        }
        "generate" => {
            let app = it.next().cloned().ok_or("generate: missing <app>")?;
            let network = it.next().cloned().ok_or("generate: missing <network>")?;
            let out = PathBuf::from(it.next().cloned().ok_or("generate: missing <out.pcap>")?);
            let mut call_secs = 60u64;
            let mut seed = 7u64;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--secs" => call_secs = value("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?,
                    "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            check_names(std::slice::from_ref(&app), std::slice::from_ref(&network))?;
            Ok(Command::Generate { app, network, out, call_secs, seed })
        }
        "dissect" => {
            let path = PathBuf::from(it.next().cloned().ok_or("dissect: missing <capture>")?);
            let mut window = None;
            let mut threads = 0usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--window" => {
                        let a: u64 = it
                            .next()
                            .ok_or("--window needs START END")?
                            .parse()
                            .map_err(|e| format!("--window: {e}"))?;
                        let b: u64 = it
                            .next()
                            .ok_or("--window needs START END")?
                            .parse()
                            .map_err(|e| format!("--window: {e}"))?;
                        window = Some((a, b));
                    }
                    "--threads" => {
                        threads = it
                            .next()
                            .ok_or("--threads needs a value")?
                            .parse()
                            .map_err(|e| format!("--threads: {e}"))?;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Dissect { path, window, threads })
        }
        "oracle" => {
            let mut seed = 7u64;
            let mut apps = Vec::new();
            let mut threads = 8usize;
            let mut skip_golden = false;
            let mut golden_dir = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                    "--apps" => apps = value("--apps")?.split(',').map(|s| s.trim().to_string()).collect(),
                    "--threads" => threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?,
                    "--skip-golden" => skip_golden = true,
                    "--golden-dir" => golden_dir = Some(PathBuf::from(value("--golden-dir")?)),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            check_names(&apps, &[])?;
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(Command::Oracle { seed, apps, threads, skip_golden, golden_dir })
        }
        "serve" => {
            let mut listen = "127.0.0.1:0".to_string();
            let mut shards = 4usize;
            let mut queue = 64usize;
            let mut idle_secs = 0u64;
            let mut chunk = 0usize;
            let mut seed = 2025u64;
            let mut fleet = 0usize;
            let mut tenants = 4usize;
            let mut call_secs = 6u64;
            let mut scale = 0.05f64;
            let mut workers = 8usize;
            let mut report_dir = None;
            let mut batch_dir = None;
            let mut metrics = None;
            let mut exit_after_fleet = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--listen" => listen = value("--listen")?,
                    "--shards" => shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?,
                    "--queue" => queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?,
                    "--idle-secs" => {
                        idle_secs = value("--idle-secs")?.parse().map_err(|e| format!("--idle-secs: {e}"))?
                    }
                    "--chunk" => chunk = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?,
                    "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                    "--fleet" => fleet = value("--fleet")?.parse().map_err(|e| format!("--fleet: {e}"))?,
                    "--tenants" => tenants = value("--tenants")?.parse().map_err(|e| format!("--tenants: {e}"))?,
                    "--secs" => call_secs = value("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?,
                    "--scale" => scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
                    "--workers" => workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?,
                    "--report-dir" => report_dir = Some(PathBuf::from(value("--report-dir")?)),
                    "--batch-dir" => batch_dir = Some(PathBuf::from(value("--batch-dir")?)),
                    "--metrics" => metrics = Some(PathBuf::from(value("--metrics")?)),
                    "--exit-after-fleet" => exit_after_fleet = true,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            if queue == 0 {
                return Err("--queue must be at least 1".into());
            }
            if !(0.0..=1.0).contains(&scale) || scale <= 0.0 {
                return Err("--scale must be in (0, 1]".into());
            }
            if fleet > 0 && tenants == 0 {
                return Err("--tenants must be at least 1".into());
            }
            if fleet == 0 && (exit_after_fleet || batch_dir.is_some()) {
                return Err("--exit-after-fleet and --batch-dir need --fleet".into());
            }
            Ok(Command::Serve {
                listen,
                shards,
                queue,
                idle_secs,
                chunk,
                seed,
                fleet,
                tenants,
                call_secs,
                scale,
                workers,
                report_dir,
                batch_dir,
                metrics,
                exit_after_fleet,
            })
        }
        "scale" => {
            let mut tier = None;
            let mut shards = None;
            let mut dir = None;
            let mut resume = None;
            let mut seed = 2025u64;
            let mut seed_set = false;
            let mut record_interval = 50_000u64;
            let mut chunk = 0usize;
            let mut oracle_sample = 10usize;
            let mut verify_batch = false;
            let mut report = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--tier" => tier = Some(value("--tier")?),
                    "--shards" => shards = Some(value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?),
                    "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
                    "--resume" => resume = Some(PathBuf::from(value("--resume")?)),
                    "--seed" => {
                        seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                        seed_set = true;
                    }
                    "--record-interval" => {
                        record_interval =
                            value("--record-interval")?.parse().map_err(|e| format!("--record-interval: {e}"))?
                    }
                    "--chunk" => chunk = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?,
                    "--oracle-sample" => {
                        oracle_sample =
                            value("--oracle-sample")?.parse().map_err(|e| format!("--oracle-sample: {e}"))?
                    }
                    "--verify-batch" => verify_batch = true,
                    "--report" => report = Some(PathBuf::from(value("--report")?)),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            match (&dir, &resume) {
                (None, None) => return Err("scale: need --dir DIR (fresh) or --resume DIR".into()),
                (Some(_), Some(_)) => return Err("scale: --dir and --resume are mutually exclusive".into()),
                (Some(_), None) => {
                    let t = tier.as_deref().ok_or("scale: --dir needs --tier paper|city")?;
                    if rtc_shard::Tier::parse(t).is_none() {
                        return Err(format!("unknown tier '{t}' (expected paper or city)"));
                    }
                    if shards == Some(0) {
                        return Err("--shards must be at least 1".into());
                    }
                }
                (None, Some(_)) => {
                    // The persisted plan fixes the matrix; flags that would
                    // contradict it are rejected rather than ignored.
                    if tier.is_some() || shards.is_some() || seed_set {
                        return Err("scale: --tier/--shards/--seed come from the plan when resuming".into());
                    }
                }
            }
            Ok(Command::Scale {
                tier,
                shards,
                dir,
                resume,
                seed,
                record_interval,
                chunk,
                oracle_sample,
                verify_batch,
                report,
            })
        }
        "scale-shard" => {
            let mut dir = None;
            let mut shard = None;
            let mut record_interval = 50_000u64;
            let mut chunk = 0usize;
            let mut oracle_sample = 10usize;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
                    "--shard" => shard = Some(value("--shard")?.parse().map_err(|e| format!("--shard: {e}"))?),
                    "--record-interval" => {
                        record_interval =
                            value("--record-interval")?.parse().map_err(|e| format!("--record-interval: {e}"))?
                    }
                    "--chunk" => chunk = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?,
                    "--oracle-sample" => {
                        oracle_sample =
                            value("--oracle-sample")?.parse().map_err(|e| format!("--oracle-sample: {e}"))?
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::ScaleShard {
                dir: dir.ok_or("scale-shard: missing --dir")?,
                shard: shard.ok_or("scale-shard: missing --shard")?,
                record_interval,
                chunk,
                oracle_sample,
            })
        }
        "fuzz" => {
            let mut budget = 5_000u64;
            let mut seed = 0x5EED_F077u64;
            let mut targets = Vec::new();
            let mut out = None;
            let mut head_to_head = false;
            let mut replay = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
                match flag.as_str() {
                    "--budget" => budget = value("--budget")?.parse().map_err(|e| format!("--budget: {e}"))?,
                    "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                    "--target" => targets.push(value("--target")?),
                    "--out" => out = Some(PathBuf::from(value("--out")?)),
                    "--head-to-head" => head_to_head = true,
                    "--replay" => replay = Some(value("--replay")?),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            for t in &targets {
                if rtc_fuzz::Target::parse(t).is_none() {
                    return Err(format!("unknown fuzz target '{t}' (see `rtc-study help`)"));
                }
            }
            if replay.is_some() && targets.len() != 1 {
                return Err("fuzz: --replay needs exactly one --target".into());
            }
            Ok(Command::Fuzz { budget, seed, targets, out, head_to_head, replay })
        }
        other => Err(format!("unknown command '{other}'; try `rtc-study help`")),
    }
}

/// Execute a parsed command, writing human-readable output to `out`.
/// Returns the process exit code.
pub fn execute(command: Command, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(0)
        }
        Command::Tables => {
            writeln!(out, "artifact   paper section")?;
            for (a, note) in [
                (Artifact::Table1, "Table 1 — traffic traces and filtering progress (§3.3)"),
                (Artifact::Table2, "Table 2 — message distribution by protocol (§4.1.3)"),
                (Artifact::Table3, "Table 3 — compliance ratio by message type (§5.1.2)"),
                (Artifact::Table4, "Table 4 — observed STUN/TURN message types (§5.1.2)"),
                (Artifact::Table5, "Table 5 — observed RTP payload types (§5.1.2)"),
                (Artifact::Table6, "Table 6 — observed RTCP packet types (§5.1.2)"),
                (Artifact::Figure3, "Figure 3 — standard vs proprietary datagrams (§4.1.3)"),
                (Artifact::Figure4, "Figure 4 — compliance by traffic volume (§5.1.1)"),
                (Artifact::Figure5, "Figure 5 — compliance by message type (§5.1.2)"),
            ] {
                writeln!(out, "{a:?}     {note}")?;
            }
            Ok(0)
        }
        Command::Run { call_secs, scale, repeats, seed, apps, networks, out: out_dir, save, metrics } => {
            let mut config = StudyConfig::paper_matrix(call_secs, scale, seed);
            config.experiment.repeats = repeats;
            if !apps.is_empty() {
                config.experiment.apps = apps;
            }
            if !networks.is_empty() {
                config.experiment.networks = networks;
            }
            writeln!(
                out,
                "running {} calls ({call_secs}s at scale {scale}, seed {seed}) ...",
                config.experiment.total_calls()
            )?;
            let report = if let Some(dir) = save {
                let captures = rtc_core::capture::run_experiment(&config.experiment);
                rtc_core::capture::save_experiment(&dir, &captures)?;
                writeln!(out, "captures saved to {}", dir.display())?;
                Study::analyze(&captures, &config)
            } else {
                Study::run(&config)
            };
            writeln!(out, "{}", report.render_all())?;
            if let Some(dir) = out_dir {
                std::fs::create_dir_all(&dir)?;
                for a in Artifact::ALL {
                    let name = format!("{a:?}").to_lowercase();
                    std::fs::write(dir.join(format!("{name}.csv")), report.render_csv(a))?;
                    std::fs::write(dir.join(format!("{name}.txt")), report.render_table(a))?;
                }
                let summary = rtc_core::report::json::study_to_json(&report.data);
                std::fs::write(dir.join("summary.json"), serde_json::to_string_pretty(&summary)?)?;
                writeln!(out, "artifacts exported to {}", dir.display())?;
            }
            if let Some(path) = metrics {
                write_metrics(&path, &report.metrics)?;
                writeln!(out, "metrics written to {}", path.display())?;
            }
            report_exit_code(&report, out)
        }
        Command::Analyze { dir, stream, chunk, metrics, progress_metrics } => {
            let config = StudyConfig::smoke(0);
            let report = if stream {
                writeln!(out, "streaming analysis of {} ...", dir.display())?;
                let options = rtc_core::StreamingOptions {
                    chunk_records: chunk,
                    progress: Some(&mut *out),
                    metrics_every: if progress_metrics { 1 } else { 0 },
                };
                rtc_core::StreamingStudy::analyze_dir_with(&dir, &config, options)?
            } else {
                writeln!(out, "batch analysis of {} ...", dir.display())?;
                let captures = rtc_core::capture::load_experiment(&dir)?;
                Study::analyze(&captures, &config)
            };
            writeln!(out, "{}", report.render_all())?;
            writeln!(out, "pipeline: {}", report.pipeline.summary_line())?;
            if let Some(path) = metrics {
                write_metrics(&path, &report.metrics)?;
                writeln!(out, "metrics written to {}", path.display())?;
            }
            report_exit_code(&report, out)
        }
        Command::Generate { app, network, out: path, call_secs, seed } => {
            let mut config = StudyConfig::smoke(seed);
            config.experiment.call_secs = call_secs;
            config.experiment.scale = 0.25;
            let capture = rtc_core::capture::run_call(
                &config.experiment,
                rtc_core::apps::Application::from_slug(&app).expect("validated at parse"),
                rtc_core::netemu::NetworkConfig::from_label(&network).expect("validated at parse"),
                0,
            );
            rtc_core::pcap::write_file(&path, &capture.trace).map_err(|e| std::io::Error::other(e.to_string()))?;
            let manifest_path = path.with_extension("json");
            std::fs::write(&manifest_path, serde_json::to_string_pretty(&capture.manifest)?)?;
            writeln!(
                out,
                "wrote {} ({} records) and {}",
                path.display(),
                capture.trace.records.len(),
                manifest_path.display()
            )?;
            Ok(0)
        }
        Command::Dissect { path, window, threads } => {
            let trace = rtc_core::pcap::read_file_any(&path).map_err(|e| std::io::Error::other(e.to_string()))?;
            let datagrams = trace.datagrams();
            writeln!(out, "{}: {} decodable packets", path.display(), datagrams.len())?;
            let mut config = StudyConfig::smoke(0);
            config.dpi.threads = threads;
            let rtc_udp = match window {
                Some((a, b)) => {
                    let w = (rtc_core::pcap::Timestamp::from_secs(a), rtc_core::pcap::Timestamp::from_secs(b));
                    rtc_core::filter::run(&datagrams, w, &config.filter).accepted_udp
                }
                None => datagrams
                    .into_iter()
                    .filter(|d| d.five_tuple.transport == rtc_core::wire::ip::Transport::Udp)
                    .collect(),
            };
            let planned = rtc_core::dpi::par::planned_threads(rtc_udp.len(), &config.dpi);
            let requested = if threads == 0 { "auto".to_string() } else { threads.to_string() };
            writeln!(
                out,
                "dpi: scan={}, threads={planned} (requested {requested})",
                rtc_core::dpi::ScanMode::active().label()
            )?;
            let (dissection, stats) = rtc_core::dpi::dissect_call_sampled(&rtc_udp, &config.dpi, 0);
            let candidates: u64 = stats.candidates.iter().sum();
            let per_matcher: Vec<String> = rtc_core::dpi::CandidateKind::MATCHER_LABELS
                .iter()
                .zip(stats.candidates)
                .map(|(label, n)| format!("{label} {n}"))
                .collect();
            let validated = dissection.messages().count();
            writeln!(
                out,
                "dpi: {candidates} candidates ({}), {} kept, {validated} validated ({:.1} %)",
                per_matcher.join(", "),
                stats.kept_candidates,
                100.0 * validated as f64 / candidates.max(1) as f64
            )?;
            let checked = rtc_core::compliance::check_call(&dissection);
            let (by_proto, fully) = dissection.message_distribution();
            for (p, n) in &by_proto {
                writeln!(out, "  {p}: {n} messages")?;
            }
            writeln!(out, "  fully proprietary datagrams: {fully}")?;
            for (key, n) in &dissection.rejections {
                writeln!(out, "  rejected as: {key} ({n} datagrams)")?;
            }
            writeln!(
                out,
                "  volume compliance: {:.1}% over {} messages",
                checked.volume_compliance() * 100.0,
                checked.messages.len()
            )?;
            for ((p, t), n) in checked.type_counts() {
                writeln!(out, "  {p} type {t}: {}/{} compliant", n.compliant, n.messages)?;
            }
            for profile in rtc_core::dpi::proprietary::profile_streams(&dissection, 20) {
                writeln!(out, "  header profile: {}", profile.summary())?;
            }
            for f in rtc_core::compliance::findings::detect_call(&dissection) {
                writeln!(out, "  finding: {}", f.detail)?;
            }
            Ok(0)
        }
        Command::Oracle { seed, apps, threads, skip_golden, golden_dir } => {
            let mut experiment = rtc_core::capture::ExperimentConfig::smoke(seed);
            if !apps.is_empty() {
                experiment.apps = apps;
            }
            writeln!(
                out,
                "differential matrix: {} calls under 4 driver configurations (seed {seed}) ...",
                experiment.total_calls()
            )?;
            let matrix = rtc_oracle::run_matrix(&experiment, threads)?;
            writeln!(out, "{matrix}")?;
            let mut failed = !matrix.is_clean();
            if !skip_golden {
                let dir = golden_dir.unwrap_or_else(rtc_oracle::golden_dir);
                let diffs = rtc_oracle::check_against(&dir, &rtc_oracle::pinned_config())?;
                if diffs.is_empty() {
                    writeln!(out, "golden corpus current ({})", dir.display())?;
                } else {
                    for d in &diffs {
                        write!(out, "{d}")?;
                    }
                    writeln!(out, "golden corpus out of date; re-bless with `cargo run -p rtc-oracle --bin bless`")?;
                    failed = true;
                }
            }
            Ok(if failed { 1 } else { 0 })
        }
        Command::Serve {
            listen,
            shards,
            queue,
            idle_secs,
            chunk,
            seed,
            fleet,
            tenants,
            call_secs,
            scale,
            workers,
            report_dir,
            batch_dir,
            metrics,
            exit_after_fleet,
        } => {
            use std::sync::atomic::Ordering;
            let study = StudyConfig::smoke(seed);
            let registry = study.obs.clone();
            let mut config = rtc_service::ServiceConfig::new(study);
            config.shards = shards;
            config.queue_capacity = queue;
            config.idle_timeout = std::time::Duration::from_secs(idle_secs);
            config.chunk_records = chunk;
            let engine = std::sync::Arc::new(rtc_service::Engine::start(config));
            let flags = rtc_service::ServiceFlags::new();
            rtc_service::signal::install();
            let server = rtc_service::serve(&listen, engine.clone(), flags.clone())?;
            let addr = server.local_addr();
            writeln!(out, "serving on http://{addr} ({shards} shard(s), queue {queue})")?;
            out.flush()?;
            let plan = (fleet > 0).then(|| {
                let apps: Vec<String> =
                    rtc_core::apps::Application::ALL.iter().map(|a| a.slug().to_string()).collect();
                rtc_core::netemu::fleet::FleetPlan::build(rtc_core::netemu::fleet::FleetSpec::new(
                    fleet, tenants, apps, seed,
                ))
            });
            let opts = rtc_service::FleetDriveOptions { call_secs, scale, chunk_records: chunk };
            if let Some(plan) = &plan {
                writeln!(
                    out,
                    "driving a {}-call fleet over {} tenant(s) through {} upload worker(s) ...",
                    plan.calls.len(),
                    plan.tenants().len(),
                    workers
                )?;
                out.flush()?;
                let stats = rtc_service::drive_fleet_http(addr, plan, &opts, workers)?;
                flags.fleet_done.store(true, Ordering::Release);
                writeln!(out, "fleet ingested: {} call(s), {} record(s)", stats.calls, stats.records)?;
                out.flush()?;
                if exit_after_fleet {
                    flags.shutdown.store(true, Ordering::Release);
                }
            }
            while !flags.shutdown.load(Ordering::Acquire) && !rtc_service::signal::shutdown_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            writeln!(out, "shutting down: draining live sessions ...")?;
            out.flush()?;
            server.shutdown();
            let engine = std::sync::Arc::try_unwrap(engine)
                .map_err(|_| std::io::Error::other("engine still referenced after server shutdown"))?;
            let summary = engine.shutdown();
            writeln!(
                out,
                "done: {} finished, {} evicted, {} tenant report(s)",
                summary.finished,
                summary.evicted,
                summary.reports.len()
            )?;
            if let Some(dir) = report_dir {
                std::fs::create_dir_all(&dir)?;
                for (tenant, report) in &summary.reports {
                    std::fs::write(dir.join(format!("{tenant}.txt")), report.render_all())?;
                }
                writeln!(out, "live reports written to {}", dir.display())?;
            }
            if let (Some(dir), Some(plan)) = (batch_dir, &plan) {
                // The comparator runs with a disabled registry so the
                // dumped metrics describe only the live service.
                let mut batch_study = StudyConfig::smoke(seed);
                batch_study.obs = rtc_core::obs::MetricsRegistry::disabled();
                let batch = rtc_service::batch_reports(plan, &opts, &batch_study)?;
                std::fs::create_dir_all(&dir)?;
                for (tenant, report) in &batch {
                    std::fs::write(dir.join(format!("{tenant}.txt")), report.render_all())?;
                }
                writeln!(out, "batch reports written to {}", dir.display())?;
            }
            if let Some(path) = metrics {
                write_metrics(&path, &registry.snapshot())?;
                writeln!(out, "metrics written to {}", path.display())?;
            }
            if summary.errors.is_empty() {
                return Ok(0);
            }
            for e in &summary.errors {
                writeln!(out, "SESSION ERROR: {} / {}: {}", e.key.tenant, e.key.call_id, e.error)?;
            }
            writeln!(out, "{} session(s) errored", summary.errors.len())?;
            Ok(1)
        }
        Command::Scale {
            tier,
            shards,
            dir,
            resume,
            seed,
            record_interval,
            chunk,
            oracle_sample,
            verify_batch,
            report,
        } => {
            let dir = match (dir, resume) {
                (Some(dir), None) => {
                    if rtc_shard::CorpusPlan::path(&dir).exists() {
                        return Err(std::io::Error::other(format!(
                            "{}: plan.json already exists — continue it with `rtc-study scale --resume {}`",
                            dir.display(),
                            dir.display()
                        )));
                    }
                    let tier = rtc_shard::Tier::parse(tier.as_deref().expect("validated at parse"))
                        .expect("validated at parse");
                    let plan = rtc_shard::CorpusPlan::build(tier, shards.unwrap_or(4), seed);
                    plan.save(&dir)?;
                    writeln!(
                        out,
                        "planned {} calls ({} tier, seed {seed}) over {} shard(s) in {}",
                        plan.experiment.total_calls(),
                        plan.tier,
                        plan.shards,
                        dir.display()
                    )?;
                    dir
                }
                (None, Some(dir)) => {
                    let plan = rtc_shard::CorpusPlan::load(&dir)?;
                    writeln!(
                        out,
                        "resuming {} tier campaign: {} calls over {} shard(s)",
                        plan.tier,
                        plan.experiment.total_calls(),
                        plan.shards
                    )?;
                    dir
                }
                _ => unreachable!("validated at parse"),
            };
            let plan = rtc_shard::CorpusPlan::load(&dir)?;
            out.flush()?;

            // One OS process per unfinished shard, sharing the corpus
            // directory; each child checkpoints independently, so a kill
            // of any subset leaves a resumable campaign.
            let exe = std::env::current_exe()?;
            let mut children = Vec::new();
            for shard in 0..plan.shards {
                if rtc_shard::runner::done_path(&dir, shard).exists() {
                    writeln!(out, "shard {shard}: already finished, skipping")?;
                    continue;
                }
                let child = std::process::Command::new(&exe)
                    .arg("scale-shard")
                    .arg("--dir")
                    .arg(&dir)
                    .args(["--shard", &shard.to_string()])
                    .args(["--record-interval", &record_interval.to_string()])
                    .args(["--chunk", &chunk.to_string()])
                    .args(["--oracle-sample", &oracle_sample.to_string()])
                    .spawn()?;
                children.push((shard, child));
            }
            out.flush()?;
            let mut failed = Vec::new();
            for (shard, mut child) in children {
                let status = child.wait()?;
                if !status.success() {
                    failed.push((shard, status));
                }
            }
            if !failed.is_empty() {
                for (shard, status) in &failed {
                    writeln!(out, "shard {shard} exited with {status}")?;
                }
                writeln!(out, "campaign interrupted — continue with `rtc-study scale --resume {}`", dir.display())?;
                return Ok(1);
            }

            let merged = rtc_shard::merge_shards(&dir)?;
            for s in &merged.shards {
                let mib = s.bytes as f64 / (1024.0 * 1024.0);
                let rate = if s.elapsed_secs > 0.0 { mib / s.elapsed_secs } else { 0.0 };
                writeln!(
                    out,
                    "shard {}: {} call(s), {} record(s), {mib:.1} MiB in {:.1}s ({rate:.1} MiB/s)",
                    s.shard, s.calls, s.records, s.elapsed_secs
                )?;
            }
            if merged.oracle_calls > 0 {
                writeln!(
                    out,
                    "oracle sample: {} call(s) / {} message(s) re-judged, no divergences",
                    merged.oracle_calls, merged.oracle_messages
                )?;
            }
            let rendered = merged.report.render_all();
            if let Some(path) = &report {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                std::fs::write(path, &rendered)?;
                writeln!(out, "merged report written to {}", path.display())?;
            } else {
                writeln!(out, "{rendered}")?;
            }
            if verify_batch {
                let batch = rtc_shard::runner::batch_reference(&dir, chunk)?;
                if batch.render_all() != rendered {
                    writeln!(out, "VERIFY FAILED: merged report differs from the single-process batch run")?;
                    return Ok(1);
                }
                writeln!(out, "verify-batch: merged report is byte-identical to the single-process batch run")?;
            }
            report_exit_code(&merged.report, out)
        }
        Command::ScaleShard { dir, shard, record_interval, chunk, oracle_sample } => {
            let options = rtc_shard::ShardOptions { record_interval, chunk_records: chunk, oracle_sample };
            let outcome = rtc_shard::run_shard(&dir, shard, &options)?;
            writeln!(
                out,
                "shard {shard}: {}/{} call(s), {} record(s), {} byte(s){}",
                outcome.calls,
                outcome.calls_owned,
                outcome.records,
                outcome.bytes,
                if outcome.resumed { " (resumed)" } else { "" }
            )?;
            Ok(0)
        }
        Command::Fuzz { budget, seed, targets, out: out_dir, head_to_head, replay } => {
            let targets: Vec<rtc_fuzz::Target> = if targets.is_empty() {
                rtc_fuzz::Target::ALL.to_vec()
            } else {
                targets.iter().map(|t| rtc_fuzz::Target::parse(t).expect("validated at parse")).collect()
            };
            if let Some(hex) = replay {
                let Some(bytes) = rtc_fuzz::hex_decode(&hex) else {
                    writeln!(out, "fuzz: --replay payload is not valid hex")?;
                    return Ok(2);
                };
                let (desc, bug) = rtc_fuzz::replay(targets[0], &bytes);
                writeln!(out, "{desc}")?;
                return Ok(i32::from(bug));
            }
            let config = rtc_fuzz::FuzzConfig { budget, seed, targets, ..Default::default() };
            if head_to_head {
                let (guided, base) = rtc_fuzz::head_to_head(&config);
                write!(out, "{}", rtc_fuzz::render_head_to_head(&guided, &base))?;
                if let Some(dir) = out_dir {
                    rtc_fuzz::persist(&guided, &dir.join("guided"))?;
                    rtc_fuzz::persist(&base, &dir.join("baseline"))?;
                    std::fs::write(dir.join("head-to-head.md"), rtc_fuzz::render_head_to_head(&guided, &base))?;
                    writeln!(out, "artifacts written to {}", dir.display())?;
                }
                let findings = guided.findings().count() + base.findings().count();
                return Ok(if findings > 0 { 1 } else { 0 });
            }
            let report = rtc_fuzz::fuzz(&config);
            for t in &report.targets {
                writeln!(
                    out,
                    "{:<12} execs={:>7} corpus={:>4} signatures={:>5} slots={:>4} findings={}",
                    t.target.label(),
                    t.executions,
                    t.corpus.len(),
                    t.unique_signatures,
                    t.coverage_slots,
                    t.findings.len()
                )?;
                for f in &t.findings {
                    writeln!(out, "  FINDING [{}] {}", f.kind, f.detail)?;
                    writeln!(out, "    replay: {}", f.replay_command())?;
                }
            }
            if let Some(dir) = out_dir {
                rtc_fuzz::persist(&report, &dir)?;
                writeln!(out, "artifacts written to {}", dir.display())?;
            }
            let findings = report.findings().count();
            writeln!(
                out,
                "fuzz: {} target(s), {} unique signature(s), {} finding(s)",
                report.targets.len(),
                report.total_unique_signatures(),
                findings
            )?;
            Ok(if findings > 0 { 1 } else { 0 })
        }
    }
}

/// Dump a metrics snapshot: JSON when the path ends in `.json`, Prometheus
/// text exposition otherwise.
fn write_metrics(path: &std::path::Path, snapshot: &rtc_core::obs::Snapshot) -> std::io::Result<()> {
    let body = if path.extension().is_some_and(|e| e.eq_ignore_ascii_case("json")) {
        serde_json::to_string_pretty(&snapshot.to_json())?
    } else {
        snapshot.to_prometheus()
    };
    std::fs::write(path, body)
}

/// Exit nonzero when any call's analysis failed, listing the failures.
fn report_exit_code(report: &rtc_core::StudyReport, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    if report.failures.is_empty() {
        return Ok(0);
    }
    for f in &report.failures {
        writeln!(out, "FAILED: {} / {} (call {}): {}", f.app, f.network, f.index, f.error)?;
    }
    writeln!(out, "{} call(s) failed analysis", report.failures.len())?;
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("tables")).unwrap(), Command::Tables);
    }

    #[test]
    fn parse_run_flags() {
        let c =
            parse(&args("run --secs 90 --scale 0.5 --repeats 2 --seed 9 --apps zoom,discord --out /tmp/x")).unwrap();
        match c {
            Command::Run { call_secs, scale, repeats, seed, apps, networks, out, save, metrics } => {
                assert_eq!(call_secs, 90);
                assert!((scale - 0.5).abs() < 1e-9);
                assert_eq!(repeats, 2);
                assert_eq!(seed, 9);
                assert_eq!(apps, vec!["zoom", "discord"]);
                assert!(networks.is_empty());
                assert_eq!(out, Some(PathBuf::from("/tmp/x")));
                assert_eq!(save, None);
                assert_eq!(metrics, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_analyze_flags() {
        let c = parse(&args("analyze /tmp/exp")).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                dir: PathBuf::from("/tmp/exp"),
                stream: false,
                chunk: 0,
                metrics: None,
                progress_metrics: false
            }
        );
        let c = parse(&args("analyze /tmp/exp --stream --chunk 256 --metrics m.prom --progress-metrics")).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                dir: PathBuf::from("/tmp/exp"),
                stream: true,
                chunk: 256,
                metrics: Some(PathBuf::from("m.prom")),
                progress_metrics: true
            }
        );
        assert!(parse(&args("analyze")).is_err());
        assert!(parse(&args("analyze /tmp/exp --chunk nope")).is_err());
        assert!(parse(&args("analyze /tmp/exp --bogus")).is_err());
        assert!(parse(&args("analyze /tmp/exp --metrics")).is_err());
        assert!(parse(&args("analyze /tmp/exp --progress-metrics")).is_err(), "needs --stream");
        // The batch driver reads whole captures, so a chunk size without
        // --stream would be silently ignored.
        assert_eq!(parse(&args("analyze /tmp/exp --chunk 64")), Err("--chunk needs --stream".to_string()));
        assert!(matches!(
            parse(&args("analyze /tmp/exp --chunk 64 --stream")),
            Ok(Command::Analyze { stream: true, chunk: 64, .. })
        ));
    }

    #[test]
    fn parse_fuzz_flags() {
        let c = parse(&args("fuzz")).unwrap();
        assert_eq!(
            c,
            Command::Fuzz {
                budget: 5_000,
                seed: 0x5EED_F077,
                targets: vec![],
                out: None,
                head_to_head: false,
                replay: None,
            }
        );
        let c = parse(&args("fuzz --budget 100 --seed 7 --target stun --target rtp --out /tmp/f --head-to-head"))
            .unwrap();
        match c {
            Command::Fuzz { budget, seed, targets, out, head_to_head, replay } => {
                assert_eq!(budget, 100);
                assert_eq!(seed, 7);
                assert_eq!(targets, vec!["stun", "rtp"]);
                assert_eq!(out, Some(PathBuf::from("/tmp/f")));
                assert!(head_to_head);
                assert_eq!(replay, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&args("fuzz --target datagram --replay a442")).unwrap() {
            Command::Fuzz { targets, replay, .. } => {
                assert_eq!(targets, vec!["datagram"]);
                assert_eq!(replay, Some("a442".to_string()));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("fuzz --target nonsense")).is_err());
        assert!(parse(&args("fuzz --replay a442")).is_err(), "replay needs exactly one --target");
        assert!(parse(&args("fuzz --target stun --target rtp --replay a442")).is_err());
        assert!(parse(&args("fuzz --budget nope")).is_err());
    }

    #[test]
    fn parse_run_metrics_flag() {
        match parse(&args("run --metrics /tmp/run.json")).unwrap() {
            Command::Run { metrics, .. } => assert_eq!(metrics, Some(PathBuf::from("/tmp/run.json"))),
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("run --metrics")).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args("run --scale 2.0")).is_err());
        assert!(parse(&args("run --bogus 1")).is_err());
        assert!(parse(&args("generate nosuchapp wifi-p2p out.pcap")).is_err());
        assert!(parse(&args("generate zoom nosuchnet out.pcap")).is_err());
        assert_eq!(parse(&args("run --apps zoom,zom")), Err("unknown app 'zom'".to_string()));
        assert_eq!(parse(&args("run --networks wifi-p2p,wifi")), Err("unknown network 'wifi'".to_string()));
        assert!(parse(&args("frobnicate")).is_err());
    }

    #[test]
    fn parse_generate_and_dissect() {
        let c = parse(&args("generate meet cellular /tmp/meet.pcap --secs 45 --seed 3")).unwrap();
        assert_eq!(
            c,
            Command::Generate {
                app: "meet".into(),
                network: "cellular".into(),
                out: PathBuf::from("/tmp/meet.pcap"),
                call_secs: 45,
                seed: 3
            }
        );
        let c = parse(&args("dissect /tmp/meet.pcap --window 60 105")).unwrap();
        assert_eq!(
            c,
            Command::Dissect { path: PathBuf::from("/tmp/meet.pcap"), window: Some((60, 105)), threads: 0 }
        );
        let c = parse(&args("dissect /tmp/meet.pcap --threads 4")).unwrap();
        assert_eq!(c, Command::Dissect { path: PathBuf::from("/tmp/meet.pcap"), window: None, threads: 4 });
        assert!(parse(&args("dissect /tmp/meet.pcap --threads nope")).is_err());
    }

    #[test]
    fn parse_oracle_flags() {
        let c = parse(&args("oracle")).unwrap();
        assert_eq!(c, Command::Oracle { seed: 7, apps: vec![], threads: 8, skip_golden: false, golden_dir: None });
        let c =
            parse(&args("oracle --seed 3 --apps zoom,meet --threads 2 --skip-golden --golden-dir /tmp/g")).unwrap();
        assert_eq!(
            c,
            Command::Oracle {
                seed: 3,
                apps: vec!["zoom".into(), "meet".into()],
                threads: 2,
                skip_golden: true,
                golden_dir: Some(PathBuf::from("/tmp/g"))
            }
        );
        assert!(parse(&args("oracle --apps nosuchapp")).is_err());
        assert!(parse(&args("oracle --threads 0")).is_err());
        assert!(parse(&args("oracle --bogus")).is_err());
    }

    #[test]
    fn parse_serve_flags() {
        match parse(&args("serve")).unwrap() {
            Command::Serve { listen, shards, queue, fleet, exit_after_fleet, .. } => {
                assert_eq!(listen, "127.0.0.1:0");
                assert_eq!(shards, 4);
                assert_eq!(queue, 64);
                assert_eq!(fleet, 0);
                assert!(!exit_after_fleet);
            }
            other => panic!("{other:?}"),
        }
        match parse(&args(
            "serve --listen 0.0.0.0:8080 --shards 8 --queue 32 --idle-secs 5 --chunk 128 --seed 3 \
             --fleet 40 --tenants 2 --secs 4 --scale 0.1 --workers 6 --report-dir /tmp/live \
             --batch-dir /tmp/batch --metrics /tmp/m.prom --exit-after-fleet",
        ))
        .unwrap()
        {
            Command::Serve {
                listen,
                shards,
                queue,
                idle_secs,
                chunk,
                seed,
                fleet,
                tenants,
                call_secs,
                scale,
                workers,
                report_dir,
                batch_dir,
                metrics,
                exit_after_fleet,
            } => {
                assert_eq!(listen, "0.0.0.0:8080");
                assert_eq!((shards, queue, idle_secs, chunk, seed), (8, 32, 5, 128, 3));
                assert_eq!((fleet, tenants, call_secs, workers), (40, 2, 4, 6));
                assert!((scale - 0.1).abs() < 1e-9);
                assert_eq!(report_dir, Some(PathBuf::from("/tmp/live")));
                assert_eq!(batch_dir, Some(PathBuf::from("/tmp/batch")));
                assert_eq!(metrics, Some(PathBuf::from("/tmp/m.prom")));
                assert!(exit_after_fleet);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("serve --shards 0")).is_err());
        assert!(parse(&args("serve --queue 0")).is_err());
        assert!(parse(&args("serve --scale 2.0")).is_err());
        assert!(parse(&args("serve --exit-after-fleet")).is_err(), "needs --fleet");
        assert!(parse(&args("serve --batch-dir /tmp/x")).is_err(), "needs --fleet");
        assert!(parse(&args("serve --bogus")).is_err());
    }

    #[test]
    fn parse_scale_flags() {
        let c = parse(&args(
            "scale --tier paper --dir /tmp/c --shards 3 --seed 5 --record-interval 1000 \
                             --chunk 64 --oracle-sample 4 --verify-batch --report /tmp/c/report.txt",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Scale {
                tier: Some("paper".into()),
                shards: Some(3),
                dir: Some(PathBuf::from("/tmp/c")),
                resume: None,
                seed: 5,
                record_interval: 1000,
                chunk: 64,
                oracle_sample: 4,
                verify_batch: true,
                report: Some(PathBuf::from("/tmp/c/report.txt")),
            }
        );
        match parse(&args("scale --resume /tmp/c")).unwrap() {
            Command::Scale { tier, shards, dir, resume, .. } => {
                assert_eq!((tier, shards, dir), (None, None, None));
                assert_eq!(resume, Some(PathBuf::from("/tmp/c")));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("scale")).is_err(), "needs --dir or --resume");
        assert!(parse(&args("scale --dir /tmp/c")).is_err(), "fresh run needs --tier");
        assert!(parse(&args("scale --tier block --dir /tmp/c")).is_err(), "unknown tier");
        assert!(parse(&args("scale --tier paper --dir /tmp/c --shards 0")).is_err());
        assert!(parse(&args("scale --tier paper --dir /tmp/c --resume /tmp/c")).is_err(), "exclusive");
        assert!(parse(&args("scale --resume /tmp/c --tier paper")).is_err(), "plan fixes the tier");
        assert!(parse(&args("scale --resume /tmp/c --shards 2")).is_err(), "plan fixes the shards");
        assert!(parse(&args("scale --resume /tmp/c --seed 9")).is_err(), "plan fixes the seed");
        assert!(parse(&args("scale --bogus")).is_err());

        let c = parse(&args(
            "scale-shard --dir /tmp/c --shard 2 --record-interval 100 --chunk 8 \
                             --oracle-sample 3",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::ScaleShard {
                dir: PathBuf::from("/tmp/c"),
                shard: 2,
                record_interval: 100,
                chunk: 8,
                oracle_sample: 3,
            }
        );
        assert!(parse(&args("scale-shard --shard 2")).is_err(), "needs --dir");
        assert!(parse(&args("scale-shard --dir /tmp/c")).is_err(), "needs --shard");
    }

    #[test]
    fn serve_fleet_live_reports_match_batch() {
        let dir = std::env::temp_dir().join(format!("rtc-cli-serve-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let live_dir = dir.join("live");
        let batch_dir = dir.join("batch");
        let metrics_path = dir.join("metrics.prom");
        std::fs::create_dir_all(&dir).unwrap();
        let mut buf = Vec::new();
        let code = execute(
            Command::Serve {
                listen: "127.0.0.1:0".into(),
                shards: 3,
                queue: 8,
                idle_secs: 0,
                chunk: 128,
                seed: 11,
                fleet: 12,
                tenants: 2,
                call_secs: 4,
                scale: 0.04,
                workers: 4,
                report_dir: Some(live_dir.clone()),
                batch_dir: Some(batch_dir.clone()),
                metrics: Some(metrics_path.clone()),
                exit_after_fleet: true,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("fleet ingested: 12 call(s)"), "{text}");
        // Live per-tenant renders are byte-identical to the offline batch.
        for tenant in ["tenant-0", "tenant-1"] {
            let live = std::fs::read_to_string(live_dir.join(format!("{tenant}.txt"))).unwrap();
            let batch = std::fs::read_to_string(batch_dir.join(format!("{tenant}.txt"))).unwrap();
            assert!(!live.is_empty());
            assert_eq!(live, batch, "{tenant} live vs batch render diverged");
        }
        // The dumped scrape surface includes the service gauges.
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("rtc_service_sessions_finished_total"), "{prom}");
        assert!(prom.contains("rtc_service_active_sessions"), "{prom}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_and_tables_execute() {
        let mut buf = Vec::new();
        assert_eq!(execute(Command::Help, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
        let mut buf = Vec::new();
        assert_eq!(execute(Command::Tables, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().contains("Figure 4"));
    }

    #[test]
    fn generate_then_dissect_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rtc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("call.pcap");
        let mut buf = Vec::new();
        execute(
            Command::Generate {
                app: "discord".into(),
                network: "wifi-p2p".into(),
                out: pcap.clone(),
                call_secs: 20,
                seed: 5,
            },
            &mut buf,
        )
        .unwrap();
        assert!(pcap.exists());
        // The manifest tells us the call window.
        let manifest: rtc_core::capture::CallManifest =
            serde_json::from_str(&std::fs::read_to_string(pcap.with_extension("json")).unwrap()).unwrap();
        let mut buf = Vec::new();
        execute(
            Command::Dissect {
                path: pcap.clone(),
                window: Some((manifest.call_start_us / 1_000_000, manifest.call_end_us / 1_000_000)),
                threads: 2,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("RTP"), "{text}");
        assert!(text.contains("compliant"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Save a tiny campaign to `dir` and return the number of calls.
    fn save_campaign(dir: &std::path::Path) -> usize {
        let mut config = StudyConfig::smoke(3);
        config.experiment.apps = vec!["zoom".into()];
        config.experiment.networks = vec!["wifi-relay".into()];
        config.experiment.repeats = 1;
        let captures = rtc_core::capture::run_experiment(&config.experiment);
        rtc_core::capture::save_experiment(dir, &captures).unwrap();
        captures.len()
    }

    #[test]
    fn analyze_saved_experiment_both_modes() {
        let dir = std::env::temp_dir().join(format!("rtc-cli-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let calls = save_campaign(&dir);

        let mut batch = Vec::new();
        let code = execute(
            Command::Analyze { dir: dir.clone(), stream: false, chunk: 0, metrics: None, progress_metrics: false },
            &mut batch,
        )
        .unwrap();
        assert_eq!(code, 0);
        let batch = String::from_utf8(batch).unwrap();
        assert!(batch.contains("Table 1"), "{batch}");

        let mut streamed = Vec::new();
        let code = execute(
            Command::Analyze { dir: dir.clone(), stream: true, chunk: 64, metrics: None, progress_metrics: false },
            &mut streamed,
        )
        .unwrap();
        assert_eq!(code, 0);
        let streamed = String::from_utf8(streamed).unwrap();
        // One per-stage progress line per call, plus the study-wide summary.
        assert_eq!(streamed.matches(&format!("[1/{calls}]")).count(), 1, "{streamed}");
        assert!(streamed.contains("decode"), "{streamed}");
        assert!(streamed.contains("pipeline:"), "{streamed}");
        // Both modes render the identical tables (timings on the trailing
        // pipeline summary differ, so compare up to that line).
        let tables = |s: &str| {
            let start = s.find("Table 1").unwrap();
            let end = s.rfind("pipeline:").unwrap();
            s[start..end].to_string()
        };
        assert_eq!(tables(&batch), tables(&streamed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_dumps_metrics_and_progress_lines() {
        let dir = std::env::temp_dir().join(format!("rtc-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let calls = save_campaign(&dir);

        // Prometheus text dump (default format) plus per-call metrics lines.
        let prom_path = dir.join("metrics.prom");
        let mut buf = Vec::new();
        let code = execute(
            Command::Analyze {
                dir: dir.clone(),
                stream: true,
                chunk: 64,
                metrics: Some(prom_path.clone()),
                progress_metrics: true,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("    metrics: messages=").count(), calls, "{text}");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE rtc_pipeline_stage_items_in_total counter"), "{prom}");
        assert!(prom.contains("rtc_pipeline_stage_call_nanoseconds_bucket"), "{prom}");
        assert!(prom.contains("rtc_dpi_candidates_total{matcher=\"rtp\"}"), "{prom}");

        // `.json` extension switches the dump format.
        let json_path = dir.join("metrics.json");
        let mut buf = Vec::new();
        let code = execute(
            Command::Analyze {
                dir: dir.clone(),
                stream: false,
                chunk: 0,
                metrics: Some(json_path.clone()),
                progress_metrics: false,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let parsed: serde_json::Value = serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert!(parsed["metrics"].as_array().is_some_and(|m| !m.is_empty()), "{parsed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_exits_nonzero_on_failed_call() {
        let dir = std::env::temp_dir().join(format!("rtc-cli-analyze-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        save_campaign(&dir);
        // Truncate the capture so the streaming reader fails mid-call.
        let pcap = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "pcap"))
            .unwrap();
        std::fs::write(&pcap, b"not a pcap").unwrap();
        let mut buf = Vec::new();
        let code = execute(
            Command::Analyze { dir: dir.clone(), stream: true, chunk: 0, metrics: None, progress_metrics: false },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 1);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("FAILED"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
