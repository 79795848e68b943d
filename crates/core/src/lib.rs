//! # rtc-core
//!
//! The end-to-end pipeline of the RTC protocol-compliance study — the
//! crate a downstream user drives:
//!
//! ```text
//! experiment matrix ──▶ emulated captures (pcap)     [rtc-capture]
//!        ──▶ two-stage filtering                     [rtc-filter]
//!        ──▶ offset-shifting DPI (Algorithm 1)       [rtc-dpi]
//!        ──▶ five-criterion compliance checks        [rtc-compliance]
//!        ──▶ tables, figures, findings               [rtc-report]
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use rtc_core::{Study, StudyConfig};
//!
//! // A miniature version of the paper's 6-app × 3-network matrix.
//! let mut config = StudyConfig::smoke(42);
//! config.experiment.apps = vec!["whatsapp".into()];
//! config.experiment.networks = vec!["wifi-p2p".into()];
//! let report = Study::run(&config);
//! println!("{}", report.render_table(rtc_core::Artifact::Table3));
//! assert!(report.data.app_volume_compliance("WhatsApp") > 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;

pub use rtc_apps as apps;
pub use rtc_capture as capture;
pub use rtc_compliance as compliance;
pub use rtc_dpi as dpi;
pub use rtc_filter as filter;
pub use rtc_netemu as netemu;
pub use rtc_obs as obs;
pub use rtc_pcap as pcap;
pub use rtc_report as report;
pub use rtc_wire as wire;

pub use rtc_capture::{CallCapture, ExperimentConfig};
pub use rtc_compliance::findings::Finding;
pub use rtc_report::{CallRecord, CallSummary, StudyData, TypeCount};
pub use rtc_wire::{Reason, WireError, WireProtocol};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Study configuration: the experiment matrix plus analysis knobs.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// The call matrix to run.
    pub experiment: ExperimentConfig,
    /// Filtering configuration (§3.2).
    pub filter: rtc_filter::FilterConfig,
    /// DPI configuration (§4.1).
    pub dpi: rtc_dpi::DpiConfig,
    /// Metrics registry every stage and worker of this run records into
    /// (cloning a registry shares its storage). Defaults to a fresh enabled
    /// registry; swap in [`rtc_obs::MetricsRegistry::disabled`] to run
    /// without instrumentation — the differential tests assert both modes
    /// produce byte-identical tables.
    pub obs: rtc_obs::MetricsRegistry,
}

impl StudyConfig {
    /// The paper's full matrix at a given call length / traffic scale.
    pub fn paper_matrix(call_secs: u64, scale: f64, seed: u64) -> StudyConfig {
        StudyConfig {
            experiment: ExperimentConfig::paper_matrix(call_secs, scale, seed),
            filter: rtc_filter::FilterConfig::default(),
            dpi: rtc_dpi::DpiConfig::default(),
            obs: rtc_obs::MetricsRegistry::new(),
        }
    }

    /// A fast miniature matrix (all apps and networks, short scaled calls).
    pub fn smoke(seed: u64) -> StudyConfig {
        StudyConfig {
            experiment: ExperimentConfig::smoke(seed),
            filter: rtc_filter::FilterConfig::default(),
            dpi: rtc_dpi::DpiConfig::default(),
            obs: rtc_obs::MetricsRegistry::new(),
        }
    }
}

/// The analysis of one call, before aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct CallAnalysis {
    /// Everything the report layer aggregates.
    pub record: CallRecord,
    /// The DPI dissection (kept for findings and debugging).
    pub dissection: rtc_dpi::CallDissection,
    /// Behavioral findings detected in this call (§5.3).
    pub findings: Vec<Finding>,
    /// Reverse-engineered proprietary-header profiles (§5.3 automation).
    pub header_profiles: Vec<rtc_dpi::proprietary::HeaderProfile>,
}

/// Run the full per-call pipeline: decode → filter → DPI → compliance.
///
/// A thin wrapper over the streaming engine ([`pipeline::CallSession`]):
/// the batch and streaming drivers share one code path.
pub fn analyze_capture(cap: &CallCapture, config: &StudyConfig) -> CallAnalysis {
    analyze_capture_staged(cap, config).0
}

/// [`analyze_capture`], also returning the per-stage counters/timings.
pub fn analyze_capture_staged(cap: &CallCapture, config: &StudyConfig) -> (CallAnalysis, pipeline::PipelineStats) {
    pipeline::run_session(pipeline::CallMeta::of(&cap.manifest), config, cap.trace.records.iter().cloned())
}

/// The artifacts of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// Table 1 — traffic and filtering summary.
    Table1,
    /// Table 2 — message distribution.
    Table2,
    /// Table 3 — type-compliance ratios.
    Table3,
    /// Table 4 — STUN/TURN type inventory.
    Table4,
    /// Table 5 — RTP type inventory.
    Table5,
    /// Table 6 — RTCP type inventory.
    Table6,
    /// Figure 3 — datagram breakdown.
    Figure3,
    /// Figure 4 — volume-based compliance.
    Figure4,
    /// Figure 5 — type-based compliance.
    Figure5,
}

impl Artifact {
    /// Every artifact, in the paper's order (the order of
    /// [`rtc_report::ARTIFACTS`], which the discriminants index).
    pub const ALL: [Artifact; 9] = [
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Table5,
        Artifact::Table6,
        Artifact::Figure3,
        Artifact::Figure4,
        Artifact::Figure5,
    ];
}

/// One call whose analysis failed (a contained panic, or an I/O error
/// reading its capture). The study records it and continues; a single
/// poisoned capture no longer takes down the whole run.
#[derive(Debug, Clone)]
pub struct FailedCall {
    /// Index of the call in its driver's input order.
    pub index: usize,
    /// Application name from the call manifest.
    pub app: String,
    /// Network label from the call manifest.
    pub network: String,
    /// The panic message or I/O error.
    pub error: String,
}

impl FailedCall {
    /// The failure of call `index`, named after its manifest.
    pub fn of(index: usize, manifest: &rtc_capture::CallManifest, error: String) -> FailedCall {
        FailedCall { index, app: manifest.application().name().to_string(), network: manifest.network.clone(), error }
    }
}

/// The complete study output.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Aggregated per-call summaries.
    pub data: StudyData,
    /// Behavioral findings per application (§5.3), deduplicated by kind.
    pub findings: BTreeMap<String, Vec<Finding>>,
    /// Proprietary-header profile summaries per application (a few
    /// representative streams each).
    pub header_profiles: BTreeMap<String, Vec<String>>,
    /// Calls whose analysis failed, ordered by index (empty on a clean run).
    pub failures: Vec<FailedCall>,
    /// Per-stage counters/timings summed over all calls, with the peak
    /// filter residency (max over calls).
    pub pipeline: pipeline::PipelineStats,
    /// Snapshot of the run's metrics registry ([`StudyConfig::obs`]) taken
    /// when the report was assembled: per-stage/per-matcher counters,
    /// latency and size histograms, span timings. Empty when the study ran
    /// with a disabled registry. Export with [`rtc_obs::Snapshot::to_prometheus`]
    /// or [`rtc_obs::Snapshot::to_json`].
    pub metrics: rtc_obs::Snapshot,
}

impl StudyReport {
    /// Render one artifact as an aligned text table.
    pub fn render_table(&self, artifact: Artifact) -> String {
        self.table(artifact).to_text()
    }

    /// Render one artifact as CSV.
    pub fn render_csv(&self, artifact: Artifact) -> String {
        self.table(artifact).to_csv()
    }

    /// The artifact's data table.
    pub fn table(&self, artifact: Artifact) -> rtc_report::render::TextTable {
        rtc_report::ARTIFACTS[artifact as usize](&self.data)
    }

    /// Render every table and figure plus the findings section.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        for a in Artifact::ALL {
            out.push_str(&self.render_table(a));
            out.push('\n');
        }
        out.push_str("== Application-specific findings (§5.3) ==\n");
        for (app, findings) in &self.findings {
            for f in findings {
                out.push_str(&format!("{app}: {}\n", f.detail));
            }
        }
        if !self.header_profiles.is_empty() {
            out.push_str("\n== Proprietary header profiles (automated §5.3 analysis) ==\n");
            for (app, profiles) in &self.header_profiles {
                for p in profiles {
                    out.push_str(&format!("{app}: {p}\n"));
                }
            }
        }
        let mut wrote_header = false;
        for app in self.data.apps() {
            let taxonomy = self.data.app_rejection_taxonomy(&app);
            if taxonomy.is_empty() {
                continue;
            }
            if !wrote_header {
                out.push_str("\n== Fully-proprietary datagram rejection taxonomy ==\n");
                wrote_header = true;
            }
            for (key, n) in &taxonomy {
                out.push_str(&format!("{app}: {key} ({n} datagrams)\n"));
            }
        }
        if !self.failures.is_empty() {
            out.push_str("\n== Analysis failures (calls excluded from the tables) ==\n");
            for f in &self.failures {
                out.push_str(&format!("call {} ({} / {}): {}\n", f.index, f.app, f.network, f.error));
            }
        }
        out
    }
}

/// The calls folded so far: their aggregation, the pipeline counters
/// summed over them, and the calls whose analysis failed. Every driver
/// folds through it: each batch worker, the streaming loop, each live
/// tenant, and the shard merge. [`StudyFold::seal`] turns it into the
/// report, and folding is order-invariant, so a report depends neither on
/// the driver nor on the order calls finished in.
#[derive(Debug, Clone, Default)]
pub struct StudyFold {
    /// The calls absorbed so far.
    pub aggregate: rtc_report::Aggregator,
    /// Per-stage counters summed over the absorbed calls, with the peak
    /// filter residency (max over calls).
    pub stats: pipeline::PipelineStats,
    /// Calls whose analysis failed.
    pub failures: Vec<FailedCall>,
}

impl StudyFold {
    /// Fold one analyzed call and its pipeline counters.
    pub fn absorb(
        &mut self,
        analysis: CallAnalysis,
        call_stats: &pipeline::PipelineStats,
        obs: &rtc_obs::MetricsRegistry,
    ) {
        self.stats.absorb(call_stats);
        absorb_analysis(&mut self.aggregate, &mut self.stats, analysis, obs);
    }

    /// Record that call `index` failed with `error`.
    pub fn fail(&mut self, index: usize, manifest: &rtc_capture::CallManifest, error: String) {
        self.failures.push(FailedCall::of(index, manifest, error));
    }

    /// Fold another fold's calls into this one.
    pub fn merge(&mut self, other: StudyFold) {
        self.aggregate.merge(other.aggregate);
        self.stats.absorb(&other.stats);
        self.failures.extend(other.failures);
    }

    /// Seal the study into its report: finish the aggregation, which puts
    /// the calls in canonical `(app, network, repeat)` order, and order the
    /// failed calls by index. This is the one place a [`StudyReport`] is
    /// built.
    pub fn seal(self, metrics: rtc_obs::Snapshot) -> StudyReport {
        let StudyFold { aggregate, stats: pipeline, mut failures } = self;
        let rtc_report::AggregateReport { data, findings, header_profiles } = aggregate.finish();
        failures.sort_by_key(|f| f.index);
        StudyReport { data, findings, header_profiles, failures, pipeline, metrics }
    }

    /// Record the run-level call counters and seal with the registry's
    /// snapshot: the end of a batch or streaming study.
    fn finish_study(self, obs: &rtc_obs::MetricsRegistry) -> StudyReport {
        if obs.is_enabled() {
            obs.counter("rtc_study_calls_total", &[], "Calls analyzed to completion.")
                .add(self.aggregate.len() as u64);
            obs.counter("rtc_study_call_failures_total", &[], "Calls whose analysis failed and was excluded.")
                .add(self.failures.len() as u64);
        }
        self.seal(obs.snapshot())
    }
}

/// Run `f`, turning a panic into its message. This is the workspace's one
/// panic containment: a call whose analysis panics fails alone, and the
/// drivers record it and go on with the next call.
#[allow(clippy::disallowed_methods)]
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| panic_message(e.as_ref()))
}

/// Best-effort text of a caught panic payload.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The study driver.
pub struct Study;

impl Study {
    /// Run the configured experiment matrix end to end, parallelized
    /// across calls.
    pub fn run(config: &StudyConfig) -> StudyReport {
        let captures = rtc_capture::run_experiment(&config.experiment);
        Self::analyze(&captures, config)
    }

    /// Analyze existing captures (e.g. loaded from disk).
    pub fn analyze(captures: &[CallCapture], config: &StudyConfig) -> StudyReport {
        Self::analyze_with(captures, config, analyze_capture_staged)
    }

    /// The worker loop behind [`Study::analyze`], parameterized over the
    /// per-call analysis so tests can inject failures.
    fn analyze_with<F>(captures: &[CallCapture], config: &StudyConfig, analyze_one: F) -> StudyReport
    where
        F: Fn(&CallCapture, &StudyConfig) -> (CallAnalysis, pipeline::PipelineStats) + Sync,
    {
        let next = AtomicUsize::new(0);
        // `hardware_threads` (not raw `available_parallelism`) so the
        // cgroup-quota misdetection fix and the `RTC_DPI_THREADS` override
        // govern the study's cross-call pool too.
        let cores = rtc_dpi::par::hardware_threads();
        let workers = cores.min(captures.len().max(1));
        // Cross-call and intra-call parallelism share the same cores, so
        // each worker's calls get an equal share of them.
        let mut config = config.clone();
        config.dpi.threads = rtc_dpi::par::share_threads(config.dpi.threads, workers);
        let config = &config;
        let mut fold = StudyFold::default();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        // Each worker thread roots its own span hierarchy, so
                        // call spans nest as `study.call.…` on every thread.
                        let _study_span = config.obs.span("study");
                        // Each call is folded before the next is taken, so
                        // a worker holds one call's analysis at a time.
                        let mut fold = StudyFold::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cap) = captures.get(i) else { break };
                            match contain(|| analyze_one(cap, config)) {
                                Ok((analysis, call_stats)) => fold.absorb(analysis, &call_stats, &config.obs),
                                Err(error) => fold.fail(i, &cap.manifest, error),
                            }
                        }
                        fold
                    })
                })
                .collect();
            for worker in workers {
                // Per-call panics are contained above, so a worker join
                // can only fail on a bug in the loop itself.
                fold.merge(worker.join().expect("study worker loop panicked"));
            }
        });
        fold.finish_study(&config.obs)
    }
}

/// Fold one completed call into the aggregator (the pipeline's fifth
/// stage), timing it under [`pipeline::StageKind::Aggregate`]. Only the
/// compact by-products survive: the record, findings, header-profile
/// summaries and SSRC inventory; the dissection is dropped here. Every
/// driver absorbs through [`StudyFold::absorb`], which calls this, and the
/// sharded runner calls it on its checkpoint's aggregator: one path, which
/// is what makes their reports comparable byte for byte.
pub fn absorb_analysis(
    aggregate: &mut rtc_report::Aggregator,
    stats: &mut pipeline::PipelineStats,
    analysis: CallAnalysis,
    obs: &rtc_obs::MetricsRegistry,
) {
    let _span = obs.span("aggregate");
    let t = std::time::Instant::now();
    let summaries: Vec<String> = analysis.header_profiles.iter().map(|p| p.summary()).collect();
    let ssrcs = rtc_compliance::findings::ssrc_set(&analysis.dissection);
    aggregate.absorb_call(analysis.record, &analysis.findings, &summaries, ssrcs);
    let elapsed = t.elapsed();
    let m = stats.stage_mut(pipeline::StageKind::Aggregate);
    m.items_in += 1;
    m.items_out += 1;
    m.busy += elapsed;
    pipeline::record_stage_metrics(obs, pipeline::StageKind::Aggregate, 1, 1, elapsed);
}

/// The streaming study driver: analyzes a saved experiment directory
/// (see [`rtc_capture::save_experiment`]) call by call through the staged
/// engine, reading each capture in bounded chunks — peak memory is
/// O(chunk + live streams + one call's RTC traffic): bounded across the
/// calls of a campaign, and linear in one call's retained bytes.
pub struct StreamingStudy;

/// Options for [`StreamingStudy::analyze_dir_with`].
#[derive(Default)]
pub struct StreamingOptions<'a> {
    /// How many pcap records are resident per read (0 = reader default).
    pub chunk_records: usize,
    /// Per-call progress lines are written here when set.
    pub progress: Option<&'a mut dyn std::io::Write>,
    /// Every N completed calls, write a compact metrics summary line to the
    /// progress writer (0 = never). Needs `progress` and an enabled
    /// [`StudyConfig::obs`] registry to have any effect.
    pub metrics_every: usize,
}

impl StreamingStudy {
    /// Analyze every saved call under `dir`. `chunk_records` bounds how
    /// many pcap records are resident per read (0 = default). When
    /// `progress` is given, one line per call reports the per-stage
    /// counters and timings.
    pub fn analyze_dir(
        dir: impl AsRef<std::path::Path>,
        config: &StudyConfig,
        chunk_records: usize,
        progress: Option<&mut dyn std::io::Write>,
    ) -> std::io::Result<StudyReport> {
        Self::analyze_dir_with(dir, config, StreamingOptions { chunk_records, progress, metrics_every: 0 })
    }

    /// [`StreamingStudy::analyze_dir`] with the full option set.
    pub fn analyze_dir_with(
        dir: impl AsRef<std::path::Path>,
        config: &StudyConfig,
        options: StreamingOptions<'_>,
    ) -> std::io::Result<StudyReport> {
        let StreamingOptions { chunk_records, mut progress, metrics_every } = options;
        let manifests = rtc_capture::scan_experiment(dir)?;

        let total = manifests.len();
        let _study_span = config.obs.span("study");
        let mut fold = StudyFold::default();
        for (index, (pcap_path, manifest)) in manifests.into_iter().enumerate() {
            // A broken or poisoned capture is recorded and skipped; the
            // remaining calls still produce a report.
            let outcome = contain(|| pipeline::analyze_saved_call(&pcap_path, &manifest, config, chunk_records))
                .and_then(|analyzed| analyzed.map_err(|e| e.to_string()));
            let call = format!(
                "[{}/{total}] {} / {} #{}",
                index + 1,
                manifest.application().name(),
                manifest.network,
                manifest.repeat
            );
            match outcome {
                Ok((analysis, call_stats)) => {
                    fold.absorb(analysis, &call_stats, &config.obs);
                    if let Some(w) = progress.as_deref_mut() {
                        writeln!(w, "{call}: {}", call_stats.summary_line())?;
                        if metrics_every > 0 && fold.aggregate.len().is_multiple_of(metrics_every) {
                            writeln!(w, "{}", metrics_progress_line(&config.obs.snapshot()))?;
                        }
                    }
                }
                Err(error) => {
                    if let Some(w) = progress.as_deref_mut() {
                        writeln!(w, "{call}: FAILED: {error}")?;
                    }
                    fold.fail(index, &manifest, error);
                }
            }
        }
        drop(_study_span);
        Ok(fold.finish_study(&config.obs))
    }
}

/// One compact line summarizing the registry's headline counters, for the
/// `--progress-metrics` streaming output.
fn metrics_progress_line(snap: &rtc_obs::Snapshot) -> String {
    let peak = match snap.get("rtc_filter_peak_retained_bytes", &[]) {
        Some(rtc_obs::MetricValue::Gauge(v)) => *v,
        _ => 0,
    };
    format!(
        "    metrics: messages={} compliant={} candidates={} rejected_datagrams={} peak_retained={}B",
        snap.counter_family_total("rtc_compliance_messages_total"),
        snap.counter_family_total("rtc_compliance_compliant_total"),
        snap.counter_family_total("rtc_dpi_candidates_total"),
        snap.counter_family_total("rtc_dpi_rejected_datagrams_total"),
        peak,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_call_pipeline() {
        let config = StudyConfig::smoke(3);
        let cap = rtc_capture::run_call(
            &config.experiment,
            rtc_apps::Application::WhatsApp,
            rtc_netemu::NetworkConfig::WifiP2p,
            0,
        );
        let analysis = analyze_capture(&cap, &config);
        assert_eq!(analysis.record.app, "WhatsApp");
        assert!(analysis.record.rtc.udp_datagrams > 100);
        assert!(!analysis.record.checked.messages.is_empty());
        assert!(analysis.record.checked.volume_compliance() > 0.9);
    }

    #[test]
    fn analysis_panics_are_contained() {
        let mut config = StudyConfig::smoke(7);
        config.experiment.apps = vec!["zoom".into(), "discord".into()];
        config.experiment.networks = vec!["wifi-relay".into()];
        let captures = rtc_capture::run_experiment(&config.experiment);
        assert_eq!(captures.len(), 2);
        let report = Study::analyze_with(&captures, &config, |cap, config| {
            if cap.manifest.application().name() == "Discord" {
                panic!("injected failure");
            }
            analyze_capture_staged(cap, config)
        });
        // The healthy call is fully analyzed, the poisoned one recorded.
        assert_eq!(report.data.calls.len(), 1);
        assert_eq!(report.data.calls[0].app, "Zoom");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].app, "Discord");
        assert!(report.failures[0].error.contains("injected failure"));
        let all = report.render_all();
        assert!(all.contains("Analysis failures"));
        assert!(all.contains("injected failure"));
    }

    #[test]
    fn artifacts_index_their_renderers() {
        let report = StudyFold::default().seal(Default::default());
        for (i, artifact) in Artifact::ALL.into_iter().enumerate() {
            assert_eq!(artifact as usize, i);
            let name = format!("{artifact:?}");
            let (kind, n) = name.split_at(name.len() - 1);
            let text = report.render_table(artifact);
            assert!(text.starts_with(&format!("== {kind} {n}:")), "{artifact:?} rendered {text}");
        }
    }

    #[test]
    fn smoke_study_renders_everything() {
        let mut config = StudyConfig::smoke(5);
        config.experiment.apps = vec!["zoom".into(), "discord".into()];
        config.experiment.networks = vec!["wifi-relay".into()];
        let report = Study::run(&config);
        assert_eq!(report.data.calls.len(), 2);
        let all = report.render_all();
        for needle in ["Table 1", "Table 3", "Figure 4", "Zoom", "Discord"] {
            assert!(all.contains(needle), "missing {needle}");
        }
        // Discord's type compliance is zero (paper: 0/9).
        let (ok, total) = report.data.app_type_ratio_all("Discord");
        assert_eq!(ok, 0, "discord compliant types: {ok}/{total}");
        assert!(total >= 5);
    }
}
