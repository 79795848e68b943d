//! The deterministic coverage-guided loop: seed, mutate, execute under
//! the crash and divergence oracles, and grow the corpus on novel
//! coverage.

use crate::target::{RunOutcome, Target};
use rtc_conformance::{minimize_input, mutate, SplitMix64};
use rtc_cov::MAP_SIZE;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes whole fuzz runs within the process. The rtc-cov hit map is
/// process-global, so two concurrently running engines (or a replay racing
/// an engine) would read each other's counters; every entry point takes
/// this lock for its full duration.
static RUN_LOCK: Mutex<()> = Mutex::new(());

pub(crate) fn run_lock() -> MutexGuard<'static, ()> {
    RUN_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Executions to spend **per target** (seed executions and
    /// minimization executions count against it).
    pub budget: u64,
    /// Base RNG seed; every `(seed, target)` pair derives its own stream.
    pub seed: u64,
    /// Targets to fuzz, in order.
    pub targets: Vec<Target>,
    /// `true` — coverage feedback grows the corpus (the real engine);
    /// `false` — the feedback-free baseline that only ever mutates the
    /// seeds (the head-to-head comparison arm).
    pub guided: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { budget: 2_000, seed: 0x5EED_F077, targets: Target::ALL.to_vec(), guided: true }
    }
}

/// Inputs are truncated to this length after mutation.
const MAX_INPUT_LEN: usize = 4_096;

/// One bug the fuzzer found, with its minimized reproducer.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The target it fired on.
    pub target: Target,
    /// Oracle category: `panic`, or a divergence kind (`parse`,
    /// `verdict`, `decode`).
    pub kind: String,
    /// The oracle's description (panic message / divergence detail) as
    /// observed on the **minimized** input.
    pub detail: String,
    /// Minimized reproducer bytes.
    pub input: Vec<u8>,
}

impl Finding {
    /// The standalone replay command for this finding.
    pub fn replay_command(&self) -> String {
        format!("rtc-study fuzz --target {} --replay {}", self.target.label(), crate::hex_encode(&self.input))
    }
}

/// One corpus entry the engine retained.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The input bytes as admitted (trim offline with
    /// [`minimize_corpus_entry`] when corpus size matters).
    pub bytes: Vec<u8>,
    /// Its coverage signature.
    pub signature: u64,
    /// Mutations scheduled per scheduler visit.
    energy: u64,
}

/// Per-target outcome of a run.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// The target.
    pub target: Target,
    /// Executions spent (mutation loop + seeds + minimization).
    pub executions: u64,
    /// Retained corpus (seeds plus coverage-novel discoveries).
    pub corpus: Vec<CorpusEntry>,
    /// Distinct coverage signatures observed across all executions.
    pub unique_signatures: usize,
    /// Distinct map slots ever hit (the virgin-map footprint).
    pub coverage_slots: usize,
    /// Findings on this target.
    pub findings: Vec<Finding>,
}

/// Outcome of a whole run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Whether coverage feedback was on.
    pub guided: bool,
    /// Base seed.
    pub seed: u64,
    /// Per-target budget.
    pub budget: u64,
    /// Per-target outcomes, in configured order.
    pub targets: Vec<TargetReport>,
}

impl FuzzReport {
    /// Sum of per-target distinct-signature counts — the head-to-head
    /// comparison metric.
    pub fn total_unique_signatures(&self) -> usize {
        self.targets.iter().map(|t| t.unique_signatures).sum()
    }

    /// All findings across targets.
    pub fn findings(&self) -> impl Iterator<Item = &Finding> {
        self.targets.iter().flat_map(|t| t.findings.iter())
    }
}

/// Quietly swallow panic output for the duration of a run (the crash
/// oracle triggers panics on purpose; their default backtrace spew would
/// drown the report), restoring the previous hook on drop.
struct QuietPanics {
    prev: Option<PanicHook>,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

impl QuietPanics {
    fn install() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// FNV-64 over the bucketed coverage map's nonzero `(slot, class)` pairs.
fn signature(map: &[u8; MAP_SIZE]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (i, &c) in map.iter().enumerate() {
        if c != 0 {
            for b in [(i & 0xFF) as u8, (i >> 8) as u8, c] {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// OR `map`'s class bits into `virgin`; true when any bit was new.
fn merge_virgin(virgin: &mut [u8; MAP_SIZE], map: &[u8; MAP_SIZE]) -> bool {
    let mut new = false;
    for (v, &c) in virgin.iter_mut().zip(map.iter()) {
        if c & !*v != 0 {
            *v |= c;
            new = true;
        }
    }
    new
}

/// Reset the map, run the target under [`rtc_core::contain`], snapshot the
/// bucketed map into `map`, and return the outcome plus the signature.
fn execute(target: Target, bytes: &[u8], map: &mut [u8; MAP_SIZE]) -> (Result<RunOutcome, String>, u64) {
    rtc_cov::reset();
    let out = rtc_core::contain(|| target.run(bytes));
    rtc_cov::classified(map);
    (out, signature(map))
}

/// A finding's dedup class: the oracle kind plus its detail with digits
/// squashed, so "offset 12" and "offset 14" variants of one bug collapse.
fn finding_class(kind: &str, detail: &str) -> String {
    let squashed: String = detail.chars().filter(|c| !c.is_ascii_digit()).collect();
    format!("{kind}:{squashed}")
}

/// Minimize `bytes` while preserving its exact coverage signature on
/// `target`, so a trimmed corpus keeps the coverage that earned each
/// entry its place. Returns the minimized bytes and the (unchanged)
/// signature; `execs` counts the executions spent. Caller holds the run
/// lock.
fn minimize_preserving_signature(target: Target, bytes: &[u8], execs: &mut u64) -> (Vec<u8>, u64) {
    let mut map = [0u8; MAP_SIZE];
    let (_, want) = execute(target, bytes, &mut map);
    *execs += 1;
    let out = minimize_input(bytes, |b| {
        *execs += 1;
        execute(target, b, &mut map).1 == want
    });
    (out, want)
}

/// Public wrapper over signature-preserving minimization: takes the run
/// lock, minimizes, and returns `(minimized bytes, signature)`. The
/// corpus-minimizer property tests drive this directly.
pub fn minimize_corpus_entry(target: Target, bytes: &[u8]) -> (Vec<u8>, u64) {
    let _lock = run_lock();
    let _quiet = QuietPanics::install();
    let mut execs = 0;
    minimize_preserving_signature(target, bytes, &mut execs)
}

/// Maximum findings retained per target (distinct classes beyond this are
/// counted but not minimized, keeping pathological targets bounded).
const MAX_FINDINGS_PER_TARGET: usize = 8;

/// Seed-corpus energy (mutations per scheduler visit).
const SEED_ENERGY: u64 = 8;
/// Energy of coverage-novel discoveries — the power schedule favors
/// fresh entries, which is what makes the guided loop compound.
const NOVEL_ENERGY: u64 = 16;

/// Fuzz one target for `budget` executions. Caller holds the run lock.
fn fuzz_target(target: Target, config: &FuzzConfig) -> TargetReport {
    let mut rng = SplitMix64::new(config.seed ^ rtc_cov::site_id(target.label()) as u64);
    let mut map = [0u8; MAP_SIZE];
    let mut virgin = [0u8; MAP_SIZE];
    let mut sigs: BTreeSet<u64> = BTreeSet::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut finding_classes: BTreeSet<String> = BTreeSet::new();
    let mut execs: u64 = 0;

    let record = |out: Result<RunOutcome, String>,
                  input: &[u8],
                  execs: &mut u64,
                  findings: &mut Vec<Finding>,
                  finding_classes: &mut BTreeSet<String>| {
        let (kind, detail) = match out {
            Ok(RunOutcome::Clean) => return,
            Ok(RunOutcome::Divergence { kind, detail }) => (kind, detail),
            Err(msg) => ("panic".to_string(), msg),
        };
        let class = finding_class(&kind, &detail);
        if !finding_classes.insert(class.clone()) || findings.len() >= MAX_FINDINGS_PER_TARGET {
            return;
        }
        // Minimize while the same finding class reproduces.
        let mut m = [0u8; MAP_SIZE];
        let minimized = minimize_input(input, |b| {
            *execs += 1;
            match execute(target, b, &mut m).0 {
                Ok(RunOutcome::Clean) => false,
                Ok(RunOutcome::Divergence { kind, detail }) => finding_class(&kind, &detail) == class,
                Err(msg) => finding_class("panic", &msg) == class,
            }
        });
        // Re-run the minimized input to report its exact detail.
        *execs += 1;
        let detail = match execute(target, &minimized, &mut m).0 {
            Ok(RunOutcome::Divergence { detail, .. }) => detail,
            Err(msg) => msg,
            Ok(RunOutcome::Clean) => detail, // unreachable: pred held
        };
        findings.push(Finding { target, kind, detail, input: minimized });
    };

    // ---- Seed phase: every seed enters the corpus unconditionally. -----
    for (_name, bytes) in target.seeds() {
        let (out, sig) = execute(target, &bytes, &mut map);
        execs += 1;
        sigs.insert(sig);
        merge_virgin(&mut virgin, &map);
        record(out, &bytes, &mut execs, &mut findings, &mut finding_classes);
        corpus.push(CorpusEntry { bytes, signature: sig, energy: SEED_ENERGY });
    }

    // ---- Mutation loop: round-robin with a novelty-weighted schedule. --
    let mut cursor = 0usize;
    while execs < config.budget {
        let idx = cursor % corpus.len();
        cursor += 1;
        let energy = corpus[idx].energy;
        let base = corpus[idx].bytes.clone();
        let mut visit = 0;
        while visit < energy && execs < config.budget {
            visit += 1;
            let mut input = base.clone();
            for _ in 0..1 + rng.below(3) {
                input = mutate(&input, &mut rng);
            }
            input.truncate(MAX_INPUT_LEN);
            let (out, sig) = execute(target, &input, &mut map);
            execs += 1;
            sigs.insert(sig);
            let novel = merge_virgin(&mut virgin, &map);
            record(out, &input, &mut execs, &mut findings, &mut finding_classes);
            if config.guided && novel {
                // Admit as-is: inline signature-preserving minimization
                // would spend tens of executions per admission re-visiting
                // known coverage — budget the baseline arm converts into
                // fresh mutations. Corpus trimming is an offline concern
                // ([`minimize_corpus_entry`], à la `afl-cmin`); findings
                // are still minimized, they are rare.
                corpus.push(CorpusEntry { bytes: input, signature: sig, energy: NOVEL_ENERGY });
            }
        }
    }

    let coverage_slots = virgin.iter().filter(|&&v| v != 0).count();
    TargetReport { target, executions: execs, corpus, unique_signatures: sigs.len(), coverage_slots, findings }
}

/// Run the engine over every configured target.
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let _lock = run_lock();
    let _quiet = QuietPanics::install();
    let targets = config.targets.iter().map(|&t| fuzz_target(t, config)).collect();
    FuzzReport { guided: config.guided, seed: config.seed, budget: config.budget, targets }
}

/// Execute one input under the oracles and describe the outcome — the
/// `--replay` entry point. Returns `(description, found_bug)`.
pub fn replay(target: Target, bytes: &[u8]) -> (String, bool) {
    let _lock = run_lock();
    let _quiet = QuietPanics::install();
    let mut map = [0u8; MAP_SIZE];
    let (out, sig) = execute(target, bytes, &mut map);
    let slots = map.iter().filter(|&&c| c != 0).count();
    match out {
        Ok(RunOutcome::Clean) => (
            format!(
                "{}: clean ({} bytes, {slots} coverage slots, signature {sig:016x})",
                target.label(),
                bytes.len()
            ),
            false,
        ),
        Ok(RunOutcome::Divergence { kind, detail }) => {
            (format!("{}: DIVERGENCE [{kind}] {detail} (signature {sig:016x})", target.label()), true)
        }
        Err(msg) => (format!("{}: PANIC {msg} (signature {sig:016x})", target.label()), true),
    }
}

/// Compute the coverage signature of one input (holds the run lock).
/// Exposed for the corpus-minimization property tests.
pub fn input_signature(target: Target, bytes: &[u8]) -> u64 {
    let _lock = run_lock();
    let _quiet = QuietPanics::install();
    let mut map = [0u8; MAP_SIZE];
    execute(target, bytes, &mut map).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_distinguishes_maps() {
        let mut a = [0u8; MAP_SIZE];
        let b = a;
        a[7] = 2;
        assert_ne!(signature(&a), signature(&b));
        let mut c = [0u8; MAP_SIZE];
        c[7] = 4;
        assert_ne!(signature(&a), signature(&c), "same slot, different class");
    }

    #[test]
    fn virgin_merge_reports_novelty_once() {
        let mut virgin = [0u8; MAP_SIZE];
        let mut map = [0u8; MAP_SIZE];
        map[3] = 1;
        assert!(merge_virgin(&mut virgin, &map));
        assert!(!merge_virgin(&mut virgin, &map), "same coverage is not novel twice");
        map[3] = 2;
        assert!(merge_virgin(&mut virgin, &map), "a new bucket class is novel");
    }

    #[test]
    fn finding_classes_squash_offsets() {
        assert_eq!(finding_class("panic", "index 12 out of bounds"), finding_class("panic", "index 7 out of bounds"));
        assert_ne!(finding_class("panic", "a"), finding_class("parse", "a"));
    }
}
