//! The deterministic corpus planner: scale tiers, the persisted plan
//! file, and the round-robin shard partition of the experiment matrix.
//!
//! A plan is built **once**, at campaign start, and persisted to
//! `<dir>/plan.json`; every shard process and every resume loads the same
//! resolved plan from disk. Environment overrides (`RTC_STUDY_SECS`,
//! `RTC_STUDY_SCALE`, `RTC_STUDY_REPEATS` — the CI-sizing knobs) apply
//! only at build time, so a resumed run cannot silently drift from the
//! corpus it is resuming.

use rtc_apps::Application;
use rtc_core::capture::ExperimentConfig;
use rtc_netemu::NetworkConfig;
use serde_json::{json, Value};
use std::io;
use std::path::{Path, PathBuf};

/// File-format magic of `plan.json`.
pub const PLAN_MAGIC: &str = "rtc-study-plan";
/// Plan file-format version.
pub const PLAN_VERSION: u64 = 1;

/// A corpus scale tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The paper's dataset: the full matrix of 300-second calls at
    /// scale 1.0 (~20M datagrams across 6 apps × 3 networks × repeats).
    Paper,
    /// 10× the paper tier: same matrix, ten times the repeats.
    City,
}

impl Tier {
    /// Parse a `--tier` argument.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "paper" => Some(Tier::Paper),
            "city" => Some(Tier::City),
            _ => None,
        }
    }

    /// The tier's CLI / plan-file label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Paper => "paper",
            Tier::City => "city",
        }
    }

    /// Resolve the tier into an experiment matrix, honoring the CI-sizing
    /// environment overrides (`RTC_STUDY_SECS` call seconds,
    /// `RTC_STUDY_SCALE` traffic-rate multiplier, `RTC_STUDY_REPEATS`
    /// repeats per cell). The city tier multiplies repeats by 10
    /// *after* the override, so it stays a 10× corpus at any budget.
    pub fn experiment(self, seed: u64) -> ExperimentConfig {
        let secs = env_u64("RTC_STUDY_SECS").unwrap_or(300);
        let scale = env_f64("RTC_STUDY_SCALE").unwrap_or(1.0);
        let mut e = ExperimentConfig::paper_matrix(secs, scale, seed);
        if let Some(repeats) = env_u64("RTC_STUDY_REPEATS") {
            e.repeats = repeats as usize;
        }
        if self == Tier::City {
            e.repeats *= 10;
        }
        e
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.parse().ok()
}

/// One planned call: its global matrix index plus the cell coordinates
/// the capture layer needs. The per-call trace seed is *not* stored — it
/// is derived from `(plan seed, app, repeat)` by `rtc_capture::scenario_for`,
/// exactly as the batch driver derives it, which is what makes a shard's
/// call bit-identical to the batch run's call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCall {
    /// Position in the experiment-matrix enumeration (apps × networks ×
    /// repeats, repeats innermost) — also the shard-assignment key.
    pub index: usize,
    /// Application under test.
    pub app: Application,
    /// Network configuration.
    pub network: NetworkConfig,
    /// Repeat index within the cell.
    pub repeat: usize,
}

/// The persisted campaign plan: tier, shard count, and the fully resolved
/// experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusPlan {
    /// Tier label (`"paper"` / `"city"`).
    pub tier: String,
    /// Number of shards the matrix is partitioned into.
    pub shards: usize,
    /// The resolved matrix (env overrides already applied).
    pub experiment: ExperimentConfig,
}

impl CorpusPlan {
    /// Build a plan: resolve the tier (applying env overrides now, once)
    /// and fix the shard partition.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn build(tier: Tier, shards: usize, seed: u64) -> CorpusPlan {
        assert!(shards > 0, "at least one shard");
        CorpusPlan { tier: tier.label().to_string(), shards, experiment: tier.experiment(seed) }
    }

    /// Every call of the matrix, in the batch driver's enumeration order
    /// (apps × networks × repeats, repeats innermost).
    pub fn calls(&self) -> Vec<PlannedCall> {
        let mut out = Vec::with_capacity(self.experiment.total_calls());
        let mut index = 0;
        for app in self.experiment.applications() {
            for network in self.experiment.network_configs() {
                for repeat in 0..self.experiment.repeats {
                    out.push(PlannedCall { index, app, network, repeat });
                    index += 1;
                }
            }
        }
        out
    }

    /// The calls owned by one shard: the round-robin partition
    /// ([`rtc_netemu::fleet::shard_members`]), so each shard works a
    /// representative cross-section of the matrix rather than one
    /// application's block.
    pub fn shard_calls(&self, shard: usize) -> Vec<PlannedCall> {
        let all = self.calls();
        rtc_netemu::fleet::shard_members(all.len(), self.shards, shard).map(|i| all[i]).collect()
    }

    /// Where the shared corpus (one `.pcap` + `.json` per call) lives
    /// under a campaign directory.
    pub fn corpus_dir(dir: &Path) -> PathBuf {
        dir.join("corpus")
    }

    /// Path of the plan file under a campaign directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("plan.json")
    }

    /// Serialize with the version header.
    pub fn to_json(&self) -> Value {
        let experiment = serde_json::to_value(&self.experiment).expect("an experiment config serializes");
        json!({
            "magic": PLAN_MAGIC,
            "version": PLAN_VERSION,
            "tier": self.tier.clone(),
            "shards": self.shards,
            "experiment": experiment,
        })
    }

    /// Persist to `<dir>/plan.json`, atomically.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        crate::checkpoint::write_text_atomic(&Self::path(dir), &serde_json::to_string_pretty(&self.to_json())?)
    }

    /// Load and validate `<dir>/plan.json`.
    pub fn load(dir: &Path) -> io::Result<CorpusPlan> {
        let path = Self::path(dir);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Self::parse_text(&text, &path)
    }

    /// Parse and validate a plan document from text. `origin` names the
    /// source in error messages (the on-disk path, or a synthetic label
    /// for in-memory inputs — the fuzzer drives this entry point with
    /// arbitrary bytes).
    pub fn parse_text(text: &str, origin: &Path) -> io::Result<CorpusPlan> {
        let path = origin;
        let v: Value = serde_json::from_str(text).map_err(|e| invalid(path, format_args!("not valid JSON ({e})")))?;
        rtc_cov::probe!("shard.plan.json-ok");
        if v.get("magic").and_then(Value::as_str) != Some(PLAN_MAGIC) {
            return Err(invalid(path, format_args!("missing {PLAN_MAGIC:?} magic — not a study plan")));
        }
        rtc_cov::probe!("shard.plan.magic-ok");
        let version = v.get("version").and_then(Value::as_u64);
        if version != Some(PLAN_VERSION) {
            return Err(invalid(
                path,
                format_args!("plan version {version:?}, this build reads version {PLAN_VERSION}"),
            ));
        }
        let tier = v
            .get("tier")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid(path, format_args!("missing tier")))?
            .to_string();
        let shards = v
            .get("shards")
            .and_then(Value::as_u64)
            .filter(|s| *s > 0)
            .ok_or_else(|| invalid(path, format_args!("missing or zero shard count")))? as usize;
        let experiment: ExperimentConfig =
            v.get("experiment").ok_or_else(|| invalid(path, format_args!("missing experiment"))).and_then(|e| {
                serde_json::from_value(e.clone())
                    .map_err(|d| invalid(path, format_args!("bad experiment config ({d})")))
            })?;
        // One fixed probe, not `invalid`'s per-message one: the message
        // names the unknown app or network, which the fuzzer varies freely.
        rtc_core::capture::check_names(&experiment.apps, &experiment.networks).map_err(|e| {
            rtc_cov::probe!("shard.plan.unknown-name");
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })?;
        rtc_cov::probe!("shard.plan.accept");
        Ok(CorpusPlan { tier, shards, experiment })
    }
}

fn invalid(path: &Path, what: std::fmt::Arguments<'_>) -> io::Error {
    // One coverage probe per distinct rejection message (digits squashed
    // so embedded versions/counts do not explode the id space) — the
    // fuzzer's feedback for the loader's reject paths.
    #[cfg(feature = "cov-probes")]
    {
        let squashed: String = what.to_string().chars().filter(|c| !c.is_ascii_digit()).collect();
        rtc_cov::hit(rtc_cov::dynamic_id(&["plan-invalid", &squashed]));
    }
    io::Error::new(io::ErrorKind::InvalidData, format!("{}: {what}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> CorpusPlan {
        CorpusPlan { tier: "paper".into(), shards: 4, experiment: ExperimentConfig::smoke(7) }
    }

    #[test]
    fn matrix_order_matches_batch_enumeration() {
        let p = plan();
        let calls = p.calls();
        assert_eq!(calls.len(), p.experiment.total_calls());
        // Repeats innermost, networks next, apps outermost — the order
        // `rtc_capture::run_experiment` enumerates.
        let mut expect = 0;
        for app in p.experiment.applications() {
            for network in p.experiment.network_configs() {
                for repeat in 0..p.experiment.repeats {
                    assert_eq!(calls[expect].app, app);
                    assert_eq!(calls[expect].network, network);
                    assert_eq!(calls[expect].repeat, repeat);
                    assert_eq!(calls[expect].index, expect);
                    expect += 1;
                }
            }
        }
    }

    #[test]
    fn shards_partition_the_matrix() {
        let p = plan();
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..p.shards {
            for c in p.shard_calls(shard) {
                assert!(seen.insert(c.index), "call {} owned twice", c.index);
            }
        }
        assert_eq!(seen.len(), p.calls().len());
    }

    #[test]
    fn plan_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("rtc-shard-plan-{}", std::process::id()));
        let p = plan();
        p.save(&dir).unwrap();
        assert_eq!(CorpusPlan::load(&dir).unwrap(), p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_foreign_and_future_files() {
        let dir = std::env::temp_dir().join(format!("rtc-shard-badplan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(CorpusPlan::path(&dir), "{\"magic\": \"something-else\"}").unwrap();
        let e = CorpusPlan::load(&dir).unwrap_err();
        assert!(e.to_string().contains("magic"), "{e}");

        let mut v = plan().to_json();
        v.as_object_mut().unwrap().insert("version".into(), serde_json::json!(999));
        std::fs::write(CorpusPlan::path(&dir), serde_json::to_string(&v).unwrap()).unwrap();
        let e = CorpusPlan::load(&dir).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");

        // Unknown names are rejected, not skipped into an empty campaign.
        for (field, name, message) in
            [("apps", "zom", "unknown app 'zom'"), ("networks", "wifi", "unknown network 'wifi'")]
        {
            let mut v = plan().to_json();
            v["experiment"][field] = serde_json::json!([name]);
            std::fs::write(CorpusPlan::path(&dir), serde_json::to_string(&v).unwrap()).unwrap();
            let e = CorpusPlan::load(&dir).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(message), "{e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn city_tier_is_ten_x() {
        // Not env-sensitive: read the tiers directly (the test harness
        // does not set RTC_STUDY_* overrides).
        let paper = Tier::Paper.experiment(1);
        let city = Tier::City.experiment(1);
        assert_eq!(city.repeats, paper.repeats * 10);
        assert_eq!(Tier::parse("paper"), Some(Tier::Paper));
        assert_eq!(Tier::parse("city"), Some(Tier::City));
        assert_eq!(Tier::parse("block"), None);
    }
}
