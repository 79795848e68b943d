//! The staged streaming analysis engine.
//!
//! One call flows through five steps:
//!
//! ```text
//! pcap records ─▶ Decode ─▶ Filter ─▶ DPI ─────────▶ Compliance ──▶ Aggregate
//!                 (per      (online   (dissect_call:  (check_call:   (fold into
//!                  record)   5-tuple   extract,        context,       the study)
//!                            acct.)    validate,       then judge)
//!                                      resolve)
//! ```
//!
//! Datagram payloads are zero-copy `bytes::Bytes` views of the record
//! frame buffers, so a datagram costs a refcount, not a copy, on its way
//! through. Decode and Filter run per chunk of records inside
//! [`CallSession::push_records`]: records arrive chunk by chunk (see
//! [`rtc_pcap::TraceReader`]) and the online filter retains only what
//! later steps can still need — non-RTC streams are dropped the moment
//! they are provably doomed, so peak memory is O(chunk + live streams),
//! not O(trace). DPI and compliance are whole-call analyses by nature
//! (stream validation and contextual checks need the complete call), so
//! they run once each, at [`CallSession::finish`], through the same
//! library functions every other caller uses:
//! [`rtc_dpi::dissect_call_sampled`] over the filter's *accepted* RTC
//! datagrams only, then [`rtc_compliance::check_call`].
//!
//! The batch API ([`crate::analyze_capture`], [`crate::Study::run`]) is a
//! thin wrapper over this engine: one code path, two drivers. The
//! `streaming_matches_batch` differential tests assert the outputs are
//! identical.

use crate::{CallAnalysis, StudyConfig};
use rtc_dpi::{CallDissection, CandidateKind, DissectStats, DpiConfig};
use rtc_filter::{OnlineFilter, OnlineOutcome, Retention};
use rtc_obs::registry::{bucket_index, BUCKETS};
use rtc_obs::MetricsRegistry;
use rtc_pcap::trace::{decode_record, Record};
use rtc_pcap::Timestamp;
use rtc_report::CallRecord;
use std::time::{Duration, Instant};

/// Identity of the five pipeline stages, in flow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Link-layer records → transport datagrams (zero-copy payload views).
    Decode,
    /// Online two-stage filtering (§3.2): 5-tuple stream accounting and
    /// window classification.
    Filter,
    /// Offset-shifting DPI (§4.1): candidate extraction + stream-context
    /// validation.
    Dpi,
    /// Five-criterion compliance judgment (§4.2).
    Compliance,
    /// Folding completed calls into the study report.
    Aggregate,
}

impl StageKind {
    /// All stages, in flow order.
    pub const ALL: [StageKind; 5] =
        [StageKind::Decode, StageKind::Filter, StageKind::Dpi, StageKind::Compliance, StageKind::Aggregate];

    /// Short lowercase label for progress lines.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Decode => "decode",
            StageKind::Filter => "filter",
            StageKind::Dpi => "dpi",
            StageKind::Compliance => "compliance",
            StageKind::Aggregate => "aggregate",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Counters and wall-clock busy time of one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageMetrics {
    /// Items pushed into the stage.
    pub items_in: u64,
    /// Items the stage emitted downstream.
    pub items_out: u64,
    /// Wall-clock time inside the stage's work: per chunk of records for
    /// decode and filter (plus the filter's whole-call classification), and
    /// the one whole-call analysis for DPI and compliance.
    pub busy: Duration,
}

impl StageMetrics {
    /// Sum another stage's counters into this one.
    pub fn absorb(&mut self, other: &StageMetrics) {
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.busy += other.busy;
    }
}

/// Per-stage counters/timings of a pipeline run (one call, or summed over
/// a whole study), exposed on [`crate::StudyReport::pipeline`].
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Metrics per stage, indexed in [`StageKind::ALL`] order.
    pub stages: [StageMetrics; 5],
    /// High-water mark of datagram bytes the online filter retained —
    /// the pipeline's residency bound (max over calls when summed).
    pub peak_retained_bytes: usize,
}

impl PipelineStats {
    /// Metrics of one stage.
    pub fn stage(&self, kind: StageKind) -> &StageMetrics {
        &self.stages[kind.index()]
    }

    /// Mutable metrics of one stage.
    pub fn stage_mut(&mut self, kind: StageKind) -> &mut StageMetrics {
        &mut self.stages[kind.index()]
    }

    /// Fold another run's stats into this one: counters add, the memory
    /// high-water mark takes the max.
    pub fn absorb(&mut self, other: &PipelineStats) {
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.absorb(theirs);
        }
        self.peak_retained_bytes = self.peak_retained_bytes.max(other.peak_retained_bytes);
    }

    /// One-line summary for progress output, e.g.
    /// `decode 120→118 | filter 118→40 | dpi 40→40 | compliance 40→52 | peak 3 KiB`.
    pub fn summary_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for kind in StageKind::ALL {
            let m = self.stage(kind);
            if m.items_in == 0 && m.items_out == 0 {
                continue;
            }
            parts.push(format!(
                "{} {}→{} {:.1}ms",
                kind.label(),
                m.items_in,
                m.items_out,
                m.busy.as_secs_f64() * 1e3
            ));
        }
        parts.push(format!("peak {} B", self.peak_retained_bytes));
        parts.join(" | ")
    }
}

/// Sample interval for per-datagram resolve timing: every Nth datagram's
/// resolution (`resolve_in_slot`, reached through
/// [`rtc_dpi::dissect_call_sampled`]) is clocked and attributed to the
/// matcher of its first validated message. Sampling keeps the `Instant`
/// overhead out of the hot loop while still populating latency
/// distributions.
const RESOLVE_SAMPLE: usize = 64;

// ---------------------------------------------------------------------------
// The per-call session.
// ---------------------------------------------------------------------------

/// Ground-truth call metadata the pipeline needs (a subset of
/// [`rtc_capture::CallManifest`]).
#[derive(Debug, Clone)]
pub struct CallMeta {
    /// Application display name (e.g. "Zoom").
    pub app: String,
    /// Network configuration label.
    pub network: String,
    /// Repeat index.
    pub repeat: usize,
    /// The call window (start, end).
    pub call_window: (Timestamp, Timestamp),
}

impl CallMeta {
    /// Extract the pipeline-relevant metadata from a manifest.
    pub fn of(manifest: &rtc_capture::CallManifest) -> CallMeta {
        CallMeta {
            app: manifest.application().name().to_string(),
            network: manifest.network.clone(),
            repeat: manifest.repeat,
            call_window: manifest.call_window(),
        }
    }
}

/// One call flowing through the staged engine: feed [`Record`]s with
/// [`CallSession::push_records`] (chunk by chunk — see
/// [`rtc_pcap::TraceReader`]), then [`CallSession::finish`] to run the
/// whole-call analyses and obtain the result plus per-stage metrics.
pub struct CallSession {
    meta: CallMeta,
    obs: MetricsRegistry,
    dpi: DpiConfig,
    /// The online two-stage filter: nothing leaves it before `finish`
    /// (stream classification is a whole-call decision), but doomed
    /// streams release their payloads as soon as their fate is sealed.
    filter: OnlineFilter,
    /// Link-layer bytes seen (the capture's `total_bytes`).
    raw_bytes: usize,
    /// Decode: records in, datagrams out, time in `decode_record`.
    decode_metrics: StageMetrics,
    /// Filter: datagrams in, accepted datagrams out, time in the filter's
    /// `push` and `finish`.
    filter_metrics: StageMetrics,
}

impl CallSession {
    /// Start a session for one call.
    pub fn new(meta: CallMeta, config: &StudyConfig) -> CallSession {
        // Sessions run back to back; the next one reuses the heap this one
        // frees rather than faulting it in again.
        rtc_obs::alloc::keep_freed_memory();
        CallSession {
            obs: config.obs.clone(),
            filter: OnlineFilter::new(meta.call_window, config.filter.clone(), Retention::AcceptedUdp),
            dpi: config.dpi,
            meta,
            raw_bytes: 0,
            decode_metrics: StageMetrics::default(),
            filter_metrics: StageMetrics::default(),
        }
    }

    /// The call's ground-truth metadata (session tables report failures
    /// with the manifest's app/network, matching the batch driver).
    pub fn meta(&self) -> &CallMeta {
        &self.meta
    }

    /// Feed a chunk of capture records through decode, then the online
    /// filter. Payloads are zero-copy slices of the records' frame
    /// buffers; non-IP and odd frames are skipped, exactly like the batch
    /// `Trace::datagrams`. The chunk is decoded whole into a buffer local
    /// to this method, then filtered, so each stage's clock is read once
    /// per chunk, not per record.
    pub fn push_records(&mut self, records: impl IntoIterator<Item = Record>) {
        let records = records.into_iter();
        let start = Instant::now();
        let mut decoded = Vec::with_capacity(records.size_hint().0);
        for record in records {
            self.raw_bytes += record.data.len();
            self.decode_metrics.items_in += 1;
            decoded.extend(decode_record(&record));
        }
        let decoded_at = Instant::now();
        self.decode_metrics.busy += decoded_at - start;
        self.decode_metrics.items_out += decoded.len() as u64;
        self.filter_metrics.items_in += decoded.len() as u64;
        for d in decoded {
            self.filter.push(d);
        }
        self.filter_metrics.busy += decoded_at.elapsed();
    }

    /// Datagram bytes the filter currently retains (the residency the
    /// streaming engine bounds).
    pub fn retained_bytes(&self) -> usize {
        self.filter.retained_bytes()
    }

    /// Run the whole-call analyses and assemble the result. The returned
    /// [`PipelineStats`] covers decode/filter/dpi/compliance; the
    /// aggregate slot is filled by the study driver.
    pub fn finish(mut self) -> (CallAnalysis, PipelineStats) {
        let call_span = self.obs.span("call");

        // Filter classifies every stream and releases the accepted RTC UDP
        // datagrams, merged in capture-time order.
        let (outcome, accepted) = {
            let _s = self.obs.span("filter");
            let t = Instant::now();
            let mut outcome = self.filter.finish_streaming();
            let accepted = std::mem::take(&mut outcome.accepted_udp);
            self.filter_metrics.busy += t.elapsed();
            self.filter_metrics.items_out += accepted.len() as u64;
            (outcome, accepted)
        };

        // DPI (Algorithm 1) over the whole call, then the five-criterion
        // judgment of every message it found.
        let (dissection, dpi_stats, dpi_busy) = {
            let _s = self.obs.span("dpi");
            let t = Instant::now();
            let (dissection, dpi_stats) = rtc_dpi::dissect_call_sampled(&accepted, &self.dpi, RESOLVE_SAMPLE);
            (dissection, dpi_stats, t.elapsed())
        };
        let n_accepted = accepted.len() as u64;
        drop(accepted);
        let (checked, compliance_busy) = {
            let _s = self.obs.span("compliance");
            let t = Instant::now();
            (rtc_compliance::check_call(&dissection), t.elapsed())
        };

        let findings = rtc_compliance::findings::detect_call(&dissection);
        let header_profiles = rtc_dpi::proprietary::profile_streams(&dissection, 50);
        let record = CallRecord {
            app: self.meta.app.clone(),
            network: self.meta.network.clone(),
            repeat: self.meta.repeat,
            raw_bytes: self.raw_bytes,
            raw: outcome.raw,
            stage1: outcome.stage1,
            stage2: outcome.stage2,
            rtc: outcome.rtc,
            classes: CallRecord::class_counts(&dissection),
            rejections: dissection.rejections.clone(),
            checked,
        };

        let mut stats = PipelineStats { peak_retained_bytes: outcome.peak_retained_bytes, ..Default::default() };
        stats.stages[StageKind::Decode.index()] = self.decode_metrics;
        stats.stages[StageKind::Filter.index()] = self.filter_metrics;
        stats.stages[StageKind::Dpi.index()] =
            StageMetrics { items_in: n_accepted, items_out: dissection.datagrams.len() as u64, busy: dpi_busy };
        stats.stages[StageKind::Compliance.index()] = StageMetrics {
            items_in: dissection.datagrams.len() as u64,
            items_out: record.checked.messages.len() as u64,
            busy: compliance_busy,
        };

        // One flush per call: everything gathered in plain counters lands in
        // the shared registry here, off the hot paths.
        flush_call_metrics(&self.obs, &stats, &outcome, &dpi_stats, &dissection, &record.checked);
        drop(call_span);

        (CallAnalysis { record, dissection, findings, header_profiles }, stats)
    }
}

/// Drive one call end to end through a fresh [`CallSession`]: construct
/// from the metadata, feed every record, finish. This is the single
/// session-construction/finish code path shared by the batch driver
/// ([`crate::analyze_capture_staged`]), the streaming driver
/// ([`crate::StreamingStudy`]), and the live service (`rtc-service`).
pub fn run_session(
    meta: CallMeta,
    config: &StudyConfig,
    records: impl IntoIterator<Item = Record>,
) -> (CallAnalysis, PipelineStats) {
    let mut session = CallSession::new(meta, config);
    let mut records = records.into_iter().peekable();
    while records.peek().is_some() {
        session.push_records(records.by_ref().take(rtc_pcap::DEFAULT_CHUNK_RECORDS));
    }
    session.finish()
}

/// Analyze one saved call by streaming its pcap file through a
/// [`CallSession`] in bounded chunks (`chunk_records == 0` uses the
/// reader default). Peak memory is O(chunk + live streams + one call's
/// RTC traffic): linear in the call's retained bytes, not bounded by the
/// chunk size.
pub fn analyze_saved_call(
    pcap_path: &std::path::Path,
    manifest: &rtc_capture::CallManifest,
    config: &StudyConfig,
    chunk_records: usize,
) -> std::io::Result<(CallAnalysis, PipelineStats)> {
    let mut reader =
        rtc_pcap::open_file(pcap_path, chunk_records).map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut session = CallSession::new(CallMeta::of(manifest), config);
    while let Some(chunk) = reader.next_chunk().map_err(|e| std::io::Error::other(e.to_string()))? {
        session.push_records(chunk);
    }
    Ok(session.finish())
}

/// Record one stage's per-call counters and latency into the registry.
/// Used by the session for decode/filter/dpi/compliance and by the study
/// drivers for the aggregate stage.
pub(crate) fn record_stage_metrics(
    obs: &MetricsRegistry,
    kind: StageKind,
    items_in: u64,
    items_out: u64,
    busy: Duration,
) {
    if !obs.is_enabled() {
        return;
    }
    let stage = kind.label();
    let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
    obs.counter("rtc_pipeline_stage_items_in_total", &[("stage", stage)], "Items pushed into each pipeline stage.")
        .add(items_in);
    obs.counter(
        "rtc_pipeline_stage_items_out_total",
        &[("stage", stage)],
        "Items each pipeline stage emitted downstream.",
    )
    .add(items_out);
    obs.counter(
        "rtc_pipeline_stage_busy_nanoseconds_total",
        &[("stage", stage)],
        "Cumulative wall time inside each stage's push/finish calls.",
    )
    .add(ns);
    obs.histogram(
        "rtc_pipeline_stage_call_nanoseconds",
        &[("stage", stage)],
        "Per-call latency of each pipeline stage (busy time of one call).",
    )
    .record(ns);
}

/// Flush a finished call's accumulated observations into the registry.
fn flush_call_metrics(
    obs: &MetricsRegistry,
    stats: &PipelineStats,
    outcome: &OnlineOutcome,
    dpi: &DissectStats,
    dissection: &CallDissection,
    checked: &rtc_compliance::CheckedCall,
) {
    if !obs.is_enabled() {
        return;
    }

    // Stage counters and per-call latency (aggregate is the drivers' job).
    for kind in [StageKind::Decode, StageKind::Filter, StageKind::Dpi, StageKind::Compliance] {
        let m = stats.stage(kind);
        record_stage_metrics(obs, kind, m.items_in, m.items_out, m.busy);
    }

    // Filter: stream fates, with the stage-2 per-heuristic breakdown, and
    // the retained-bytes high-water mark across calls.
    const STREAMS: &str = "rtc_filter_streams_total";
    const STREAMS_HELP: &str = "5-tuple streams per filtering outcome (stage2 split by heuristic).";
    obs.counter(STREAMS, &[("outcome", "rtc")], STREAMS_HELP)
        .add((outcome.rtc.udp_streams + outcome.rtc.tcp_streams) as u64);
    obs.counter(STREAMS, &[("outcome", "stage1")], STREAMS_HELP)
        .add((outcome.stage1.udp_streams + outcome.stage1.tcp_streams) as u64);
    for (heuristic, n) in &outcome.stage2_heuristics {
        let label = format!("stage2-{}", heuristic.label());
        obs.counter(STREAMS, &[("outcome", &label)], STREAMS_HELP).add(*n as u64);
    }
    obs.counter(
        "rtc_filter_udp_datagrams_total",
        &[("outcome", "rtc")],
        "UDP datagrams the two-stage filter accepted as RTC traffic.",
    )
    .add(outcome.rtc.udp_datagrams as u64);
    obs.gauge(
        "rtc_filter_peak_retained_bytes",
        &[],
        "High-water mark of datagram payload bytes retained by the online filter (max over calls).",
    )
    .set_max(outcome.peak_retained_bytes as u64);

    // DPI: the five protocol matchers, folded in plain arrays first so the
    // registry is touched once per label, not once per message.
    const MATCHERS: usize = CandidateKind::MATCHER_LABELS.len();
    let mut validated = [0u64; MATCHERS];
    let mut msg_bytes = [[0u64; BUCKETS]; MATCHERS];
    let mut msg_bytes_sum = [0u64; MATCHERS];
    for (_, m) in dissection.messages() {
        let family = m.kind.matcher_index();
        let len = m.data.len() as u64;
        validated[family] += 1;
        msg_bytes[family][bucket_index(len)] += 1;
        msg_bytes_sum[family] += len;
    }
    // Resolve latencies; the extra family is "none", for datagrams that
    // resolved to no standard message.
    let mut resolve_ns = [[0u64; BUCKETS]; MATCHERS + 1];
    let mut resolve_ns_sum = [0u64; MATCHERS + 1];
    for &(i, ns) in &dpi.resolve_ns {
        let family = dissection.datagrams[i].messages.first().map_or(MATCHERS, |m| m.kind.matcher_index());
        resolve_ns[family][bucket_index(ns)] += 1;
        resolve_ns_sum[family] = resolve_ns_sum[family].wrapping_add(ns);
    }
    for (i, matcher) in CandidateKind::MATCHER_LABELS.iter().enumerate() {
        obs.counter(
            "rtc_dpi_candidates_total",
            &[("matcher", matcher)],
            "Candidates the offset-shifting extractor produced, per matcher.",
        )
        .add(dpi.candidates[i]);
        obs.counter(
            "rtc_dpi_validated_messages_total",
            &[("matcher", matcher)],
            "Messages that survived stream-context validation, per matcher.",
        )
        .add(validated[i]);
        obs.histogram("rtc_dpi_message_bytes", &[("matcher", matcher)], "Validated message sizes, per matcher.")
            .merge_buckets(&msg_bytes[i], msg_bytes_sum[i]);
    }
    obs.counter(
        "rtc_dpi_kept_candidates_total",
        &[],
        "Candidates left for validation after the noise cut dropped RTP candidates of groups too small to validate.",
    )
    .add(dpi.kept_candidates);
    for (i, family) in CandidateKind::MATCHER_LABELS.iter().copied().chain(std::iter::once("none")).enumerate() {
        obs.histogram(
            "rtc_dpi_resolve_nanoseconds",
            &[("matcher", family)],
            "Sampled per-datagram resolution latency, attributed to the matcher of the first validated message.",
        )
        .merge_buckets(&resolve_ns[i], resolve_ns_sum[i]);
    }
    for (reason, n) in &dissection.rejections {
        obs.counter(
            "rtc_dpi_rejected_datagrams_total",
            &[("reason", reason)],
            "Fully-proprietary datagrams by WireError taxonomy key.",
        )
        .add(*n as u64);
    }

    // Compliance: the five-criterion judgment.
    let mut compliant = 0u64;
    let mut violations = [0u64; 5];
    for m in &checked.messages {
        match &m.violation {
            None => compliant += 1,
            Some(v) => violations[(v.criterion().index() - 1) as usize] += 1,
        }
    }
    obs.counter("rtc_compliance_messages_total", &[], "Messages judged against the five criteria.")
        .add(checked.messages.len() as u64);
    obs.counter("rtc_compliance_compliant_total", &[], "Messages satisfying all five criteria.").add(compliant);
    const CRITERIA: [&str; 5] = ["1", "2", "3", "4", "5"];
    for (i, n) in violations.into_iter().enumerate() {
        if n > 0 {
            obs.counter(
                "rtc_compliance_violations_total",
                &[("criterion", CRITERIA[i])],
                "Violations by first failed criterion (paper numbering).",
            )
            .add(n);
        }
    }
}
