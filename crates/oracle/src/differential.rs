//! Differential drivers: production pipeline vs reference oracle.
//!
//! Two entry points:
//!
//! * [`run_matrix`] — runs the emulated app×network scenario matrix through
//!   the production pipeline in four configurations (batch and streaming,
//!   1 and N DPI threads), demands byte-identical JSON reports across all
//!   four, then re-judges every DPI-extracted message with the reference
//!   checker and compares type keys and criterion indices one by one.
//! * [`differential_one`] — runs one input through a production parser and
//!   its reference decoder, demanding identical accept/reject outcomes;
//!   where both accept, the production and reference checkers must also
//!   agree on the violation classification. The `rtc-fuzz` parser targets
//!   call it on every input they generate.
//!
//! Every disagreement becomes a [`Divergence`] carrying a repro payload
//! shrunk by [`minimize_input`], so a failure is directly actionable.

use crate::refcheck::{self, RefContext, RefContextBuilder, RefVerdict};
use crate::refdec;
use bytes::Bytes;
use rtc_conformance::{minimize_input, Parser};
use rtc_core::capture::{run_experiment, save_experiment, ExperimentConfig};
use rtc_core::compliance::{check_message, context::CallContext, CheckedMessage};
use rtc_core::dpi::{CandidateKind, DatagramClass, DatagramDissection, DpiConfig, DpiMessage, Protocol};
use rtc_core::pcap::Timestamp;
use rtc_core::report::json::study_to_json;
use rtc_core::wire::ip::FiveTuple;
use rtc_core::{analyze_capture, StreamingStudy, Study, StudyConfig, StudyReport};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One production-vs-oracle disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Where it happened (scenario cell or driver configuration; empty
    /// for a [`differential_one`] input).
    pub scenario: String,
    /// Disagreement category (`report`, `verdict`, `decode`, `parse`,
    /// `rejections`).
    pub kind: String,
    /// Human-readable description of both sides.
    pub detail: String,
    /// Minimized payload reproducing the disagreement, when the
    /// divergence is about one message.
    pub repro: Option<Vec<u8>>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.scenario, self.detail)?;
        if let Some(repro) = &self.repro {
            write!(f, "\n  repro ({} bytes): {}", repro.len(), hex(repro))?;
        }
        Ok(())
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Write every divergence into the directory named by the
/// `RTC_ORACLE_REPRO_DIR` environment variable: a `<prefix>-NNN.txt`
/// description per divergence, plus a `<prefix>-NNN.bin` with the minimized
/// repro payload when the divergence carries one. CI uploads the directory
/// as a failure artifact. Returns the number of divergences written; a
/// no-op returning 0 when the variable is unset or there is nothing to dump.
pub fn dump_repros(prefix: &str, divergences: &[Divergence]) -> std::io::Result<usize> {
    let dir = match std::env::var_os("RTC_ORACLE_REPRO_DIR") {
        Some(d) if !d.is_empty() => std::path::PathBuf::from(d),
        _ => return Ok(0),
    };
    if divergences.is_empty() {
        return Ok(0);
    }
    std::fs::create_dir_all(&dir)?;
    for (i, d) in divergences.iter().enumerate() {
        std::fs::write(dir.join(format!("{prefix}-{i:03}.txt")), format!("{d}\n"))?;
        if let Some(repro) = &d.repro {
            std::fs::write(dir.join(format!("{prefix}-{i:03}.bin")), repro)?;
        }
    }
    Ok(divergences.len())
}

/// Outcome of [`run_matrix`].
#[derive(Debug, Default)]
pub struct MatrixReport {
    /// Driver configurations compared (first is the baseline).
    pub configs: Vec<String>,
    /// Calls analyzed.
    pub calls: usize,
    /// Messages re-judged by the oracle.
    pub messages: usize,
    /// All disagreements found (empty on a clean run).
    pub divergences: Vec<Divergence>,
}

impl MatrixReport {
    /// Whether production and oracle agreed everywhere.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Dump this report's divergences via [`dump_repros`].
    pub fn dump_repros(&self, prefix: &str) -> std::io::Result<usize> {
        dump_repros(prefix, &self.divergences)
    }
}

impl fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential matrix: {} calls, {} messages re-judged, {} configs [{}]",
            self.calls,
            self.messages,
            self.configs.len(),
            self.configs.join(", "),
        )?;
        if self.divergences.is_empty() {
            write!(f, "no divergences")
        } else {
            writeln!(f, "{} divergence(s):", self.divergences.len())?;
            for d in &self.divergences {
                writeln!(f, "{d}")?;
            }
            Ok(())
        }
    }
}

fn study_config(experiment: &ExperimentConfig, threads: usize) -> StudyConfig {
    StudyConfig {
        experiment: experiment.clone(),
        filter: Default::default(),
        dpi: DpiConfig { threads, ..Default::default() },
        obs: rtc_core::obs::MetricsRegistry::disabled(),
    }
}

fn render(report: &StudyReport) -> String {
    serde_json::to_string_pretty(&study_to_json(&report.data)).expect("report serializes")
}

fn first_diff_line(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: baseline `{la}` vs `{lb}`", i + 1);
        }
    }
    format!("line counts differ: {} vs {}", a.lines().count(), b.lines().count())
}

/// Judge one extracted message with the reference checker, mirroring the
/// dispatch of `rtc_compliance::check_message` but running entirely on the
/// oracle's own decoders.
fn oracle_judge(dgram: &DatagramDissection, msg: &DpiMessage, ctx: &RefContext) -> RefVerdict {
    match &msg.kind {
        CandidateKind::Stun { .. } => refcheck::check_stun(&msg.data, &stream_label(&dgram.stream), ctx),
        CandidateKind::ChannelData { .. } => refcheck::check_channeldata(&msg.data, dgram.trailing.len()),
        CandidateKind::Rtp { .. } => refcheck::check_rtp(&msg.data),
        CandidateKind::Rtcp { .. } => refcheck::check_rtcp(&msg.data, dgram.trailing.len()),
        CandidateKind::QuicLong { .. } => refcheck::check_quic_long(&msg.data),
        CandidateKind::QuicShortProbe => refcheck::check_quic_short(&msg.data),
    }
}

/// Whether the oracle's own decoder accepts an extracted message. The DPI
/// only emits validated candidates, so a reference-decoder rejection means
/// the two grammars disagree about the message's basic shape. Exported for
/// the fuzzer's datagram target, which applies the same check to the
/// messages it extracts from fuzzed payloads.
pub fn oracle_decodes(msg: &DpiMessage) -> Result<(), String> {
    match &msg.kind {
        CandidateKind::Stun { .. } => refdec::decode_stun(&msg.data).map(drop),
        CandidateKind::ChannelData { .. } => refdec::decode_channeldata(&msg.data).map(drop),
        CandidateKind::Rtp { .. } => refdec::decode_rtp(&msg.data).map(drop),
        CandidateKind::Rtcp { .. } => refdec::decode_rtcp(&msg.data).map(drop),
        CandidateKind::QuicLong { .. } => refdec::decode_quic_long(&msg.data).map(drop),
        CandidateKind::QuicShortProbe => refdec::decode_quic_short(&msg.data, 0).map(drop),
    }
}

fn stream_label(stream: &FiveTuple) -> String {
    format!("{stream:?}")
}

fn verdict_of(m: &CheckedMessage) -> (String, Option<u8>) {
    (m.type_key.to_string(), m.violation.as_ref().map(|v| v.criterion().index()))
}

/// Why production judged a message as it did: the rule it broke, that
/// rule's RFC clause and the explanation.
fn prod_reason(m: &CheckedMessage) -> String {
    match &m.violation {
        Some(v) => format!("{:?}, {}: {v}", v.rule, v.rule.clause()),
        None => "compliant".into(),
    }
}

/// Re-judge a single message with both checkers after truncating its bytes
/// to `data`, keeping the carrying datagram's stream and trailing fixed.
fn both_judge(
    data: &[u8],
    kind: &CandidateKind,
    dgram: &DatagramDissection,
    prod_ctx: &CallContext,
    ref_ctx: &RefContext,
) -> ((String, Option<u8>), (String, Option<u8>)) {
    let msg = DpiMessage {
        protocol: protocol_of(kind),
        kind: *kind,
        offset: 0,
        data: Bytes::from(data.to_vec()),
        nested: false,
    };
    let shell = DatagramDissection {
        ts: dgram.ts,
        stream: dgram.stream,
        payload_len: dgram.payload_len,
        messages: vec![],
        prefix: Bytes::new(),
        trailing: dgram.trailing.clone(),
        class: DatagramClass::Standard,
        prop_header_len: 0,
    };
    let prod = check_message(&shell, &msg, prod_ctx);
    let orac = oracle_judge(&shell, &msg, ref_ctx);
    (verdict_of(&prod), (orac.type_key, orac.criterion))
}

fn protocol_of(kind: &CandidateKind) -> Protocol {
    match kind {
        CandidateKind::Stun { .. } | CandidateKind::ChannelData { .. } => Protocol::StunTurn,
        CandidateKind::Rtp { .. } => Protocol::Rtp,
        CandidateKind::Rtcp { .. } => Protocol::Rtcp,
        CandidateKind::QuicLong { .. } | CandidateKind::QuicShortProbe => Protocol::Quic,
    }
}

static SCRATCH_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Run the full production-vs-oracle differential over a scenario matrix.
///
/// `threads` is the "N" of the 1-vs-N DPI thread comparison (values ≤ 1
/// still exercise the parallel code path selection logic but compare
/// equal configurations).
pub fn run_matrix(experiment: &ExperimentConfig, threads: usize) -> std::io::Result<MatrixReport> {
    let mut out = MatrixReport::default();
    let captures = run_experiment(experiment);
    out.calls = captures.len();

    // --- Configuration sweep: four drivers, one byte-identical report.
    let batch_1 = Study::analyze(&captures, &study_config(experiment, 1));
    let batch_n = Study::analyze(&captures, &study_config(experiment, threads));
    let scratch = std::env::temp_dir().join(format!(
        "rtc-oracle-{}-{}",
        std::process::id(),
        SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    save_experiment(&scratch, &captures)?;
    let stream_1 = StreamingStudy::analyze_dir(&scratch, &study_config(experiment, 1), 0, None);
    let stream_n = StreamingStudy::analyze_dir(&scratch, &study_config(experiment, threads), 0, None);
    let _ = std::fs::remove_dir_all(&scratch);
    let (stream_1, stream_n) = (stream_1?, stream_n?);

    let runs = [
        ("batch/threads=1", batch_1),
        (&*format!("batch/threads={threads}"), batch_n),
        ("stream/threads=1", stream_1),
        (&*format!("stream/threads={threads}"), stream_n),
    ];
    let baseline = render(&runs[0].1);
    for (name, report) in &runs {
        out.configs.push(name.to_string());
        if !report.failures.is_empty() {
            out.divergences.push(Divergence {
                scenario: name.to_string(),
                kind: "report".into(),
                detail: format!("{} call(s) failed analysis: {:?}", report.failures.len(), report.failures),
                repro: None,
            });
        }
        let rendered = render(report);
        if rendered != baseline {
            out.divergences.push(Divergence {
                scenario: name.to_string(),
                kind: "report".into(),
                detail: format!(
                    "report JSON differs from batch/threads=1 baseline ({})",
                    first_diff_line(&baseline, &rendered)
                ),
                repro: None,
            });
        }
    }

    // --- Per-message oracle re-judgment, against the single-thread batch
    // analysis (the baseline all other configs were compared to above).
    let config = study_config(experiment, 1);
    for cap in &captures {
        let scenario = format!("{}/{}#{}", cap.manifest.app, cap.manifest.network, cap.manifest.repeat);
        let analysis = analyze_capture(cap, &config);
        let (messages, divergences) = rejudge_call(&scenario, &analysis);
        out.messages += messages;
        out.divergences.extend(divergences);
    }

    Ok(out)
}

/// Re-judge every DPI-extracted message of one analyzed call with the
/// reference checker and verify the rejection-taxonomy invariant.
///
/// Returns `(messages re-judged, divergences)`. This is the per-call unit
/// of [`run_matrix`]'s oracle pass, exported so the sharded study runner
/// can re-judge a deterministic sample of its calls without re-running the
/// whole differential matrix.
pub fn rejudge_call(scenario: &str, analysis: &rtc_core::CallAnalysis) -> (usize, Vec<Divergence>) {
    let mut messages = 0usize;
    let mut out = Vec::new();

    // Build both whole-call contexts from the same dissection.
    let prod_ctx = CallContext::build(&analysis.dissection);
    let mut builder = RefContextBuilder::default();
    for (dgram, msg) in analysis.dissection.messages() {
        if matches!(msg.kind, CandidateKind::Stun { .. }) {
            builder.observe(&stream_label(&dgram.stream), &stream_label(&dgram.stream.reversed()), &msg.data);
        }
    }
    let ref_ctx = builder.finish();

    let extracted: Vec<(&DatagramDissection, &DpiMessage)> = analysis.dissection.messages().collect();
    let checked = &analysis.record.checked.messages;
    if extracted.len() != checked.len() {
        out.push(Divergence {
            scenario: scenario.to_string(),
            kind: "verdict".into(),
            detail: format!("{} extracted messages but {} verdicts", extracted.len(), checked.len()),
            repro: None,
        });
        return (messages, out);
    }

    for ((dgram, msg), prod) in extracted.iter().zip(checked) {
        messages += 1;
        if let Err(e) = oracle_decodes(msg) {
            out.push(Divergence {
                scenario: scenario.to_string(),
                kind: "decode".into(),
                detail: format!("DPI extracted a {:?} message the reference decoder rejects: {e}", msg.protocol),
                repro: Some(msg.data.to_vec()),
            });
            continue;
        }
        let orac = oracle_judge(dgram, msg, &ref_ctx);
        let (prod_key, prod_crit) = verdict_of(prod);
        if prod_key != orac.type_key || prod_crit != orac.criterion {
            let repro = minimize_input(&msg.data, |data| {
                let (p, o) = both_judge(data, &msg.kind, dgram, &prod_ctx, &ref_ctx);
                p != o
            });
            out.push(Divergence {
                scenario: scenario.to_string(),
                kind: "verdict".into(),
                detail: format!(
                    "production {prod_key}/{prod_crit:?} ({}) vs oracle {}/{:?} ({})",
                    prod_reason(prod),
                    orac.type_key,
                    orac.criterion,
                    orac.detail.as_deref().unwrap_or("compliant"),
                ),
                repro: Some(repro),
            });
        }
    }

    // --- Rejection-taxonomy invariant: every fully proprietary
    // datagram contributes exactly one taxonomy entry.
    let fully = analysis.dissection.datagrams.iter().filter(|d| d.class == DatagramClass::FullyProprietary).count();
    let taxonomy: usize = analysis.record.rejections.values().sum();
    if fully != taxonomy {
        out.push(Divergence {
            scenario: scenario.to_string(),
            kind: "rejections".into(),
            detail: format!("{fully} fully proprietary datagrams but {taxonomy} taxonomy entries"),
            repro: None,
        });
    }
    (messages, out)
}

/// The oracle-side mirror of [`rtc_conformance::Parser::parse`]: accept or
/// reject `bytes` using only the reference decoders.
pub fn oracle_parse(parser: Parser, bytes: &[u8]) -> Result<(), String> {
    match parser {
        Parser::Stun => refdec::decode_stun(bytes).map(drop),
        Parser::ChannelData => refdec::decode_channeldata(bytes).map(drop),
        Parser::Rtp => refdec::decode_rtp(bytes).map(drop),
        Parser::Rtcp => refdec::decode_rtcp(bytes).map(drop),
        // The production entry point dispatches on the form bit and parses
        // short headers with the conformance suite's fixed 8-byte DCID.
        Parser::Quic => match bytes.first() {
            None => Err("empty datagram".into()),
            Some(b) if b & 0x80 != 0 => refdec::decode_quic_long(bytes).map(drop),
            Some(_) => refdec::decode_quic_short(bytes, Parser::SHORT_DCID_LEN).map(drop),
        },
    }
}

/// Judge mutated-but-accepted bytes with the production checker, outside
/// any call context (a [`differential_one`] input is a single message).
fn prod_judge_parser(parser: Parser, bytes: &[u8]) -> (String, Option<u8>) {
    let kind = match parser {
        Parser::Stun => CandidateKind::Stun { message_type: 0, modern: true },
        Parser::ChannelData => CandidateKind::ChannelData { channel: 0 },
        Parser::Rtp => CandidateKind::Rtp { ssrc: 0, payload_type: 0, seq: 0 },
        Parser::Rtcp => CandidateKind::Rtcp { packet_type: 0, count: 0 },
        Parser::Quic => match bytes.first() {
            Some(b) if b & 0x80 != 0 => CandidateKind::QuicLong { version: 0 },
            _ => CandidateKind::QuicShortProbe,
        },
    };
    let msg = DpiMessage {
        protocol: protocol_of(&kind),
        kind,
        offset: 0,
        data: Bytes::from(bytes.to_vec()),
        nested: false,
    };
    let dgram = DatagramDissection {
        ts: Timestamp::ZERO,
        stream: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "10.0.0.2:2000".parse().unwrap()),
        payload_len: bytes.len(),
        messages: vec![],
        prefix: Bytes::new(),
        trailing: Bytes::new(),
        class: DatagramClass::Standard,
        prop_header_len: 0,
    };
    verdict_of(&check_message(&dgram, &msg, &CallContext::default()))
}

/// Judge mutated-but-accepted bytes with the reference checker under the
/// same empty context.
fn oracle_judge_parser(parser: Parser, bytes: &[u8]) -> (String, Option<u8>) {
    let ctx = RefContext::default();
    let v = match parser {
        Parser::Stun => refcheck::check_stun(bytes, "mutation", &ctx),
        Parser::ChannelData => refcheck::check_channeldata(bytes, 0),
        Parser::Rtp => refcheck::check_rtp(bytes),
        Parser::Rtcp => refcheck::check_rtcp(bytes, 0),
        Parser::Quic => match bytes.first() {
            Some(b) if b & 0x80 != 0 => refcheck::check_quic_long(bytes),
            _ => refcheck::check_quic_short(bytes),
        },
    };
    (v.type_key, v.criterion)
}

/// Run the full production-vs-oracle differential on **one** input: the
/// production parser and the reference decoder must agree on
/// accept/reject, and where both accept, the production and reference
/// checkers must classify violations identically.
///
/// Returns the divergence — `kind` is `parse` or `verdict`, the repro is
/// shrunk by [`minimize_input`], and `scenario` is left empty for the
/// caller to fill in — or `None` when the two sides agree. The
/// coverage-guided fuzzer's parser targets run it on every input.
pub fn differential_one(parser: Parser, bytes: &[u8]) -> Option<Divergence> {
    let prod_ok = parser.parse(bytes).is_ok();
    let orac = oracle_parse(parser, bytes);
    if prod_ok != orac.is_ok() {
        let repro = minimize_input(bytes, |b| parser.parse(b).is_ok() != oracle_parse(parser, b).is_ok());
        return Some(Divergence {
            scenario: String::new(),
            kind: "parse".into(),
            detail: format!(
                "production {} but oracle {}",
                if prod_ok { "accepts" } else { "rejects" },
                match orac {
                    Ok(()) => "accepts".to_string(),
                    Err(e) => format!("rejects ({e})"),
                },
            ),
            repro: Some(repro),
        });
    }
    if !prod_ok {
        return None;
    }
    let prod = prod_judge_parser(parser, bytes);
    let orac = oracle_judge_parser(parser, bytes);
    if prod != orac {
        let repro = minimize_input(bytes, |b| {
            parser.parse(b).is_ok()
                && oracle_parse(parser, b).is_ok()
                && prod_judge_parser(parser, b) != oracle_judge_parser(parser, b)
        });
        return Some(Divergence {
            scenario: String::new(),
            kind: "verdict".into(),
            detail: format!("production {prod:?} vs oracle {orac:?}"),
            repro: Some(repro),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_conformance::vectors;

    #[test]
    fn production_reason_names_rule_and_clause() {
        use rtc_core::compliance::{Rule, TypeKey, Violation};
        let mut m = CheckedMessage {
            protocol: Protocol::StunTurn,
            type_key: TypeKey::Stun(0x0001),
            datagram: 0,
            violation: Some(Violation::new(Rule::StunFingerprintCrc)),
        };
        assert_eq!(
            prod_reason(&m),
            "StunFingerprintCrc, RFC 8489 §14.7: FINGERPRINT CRC-32 does not match the message contents"
        );
        m.violation = None;
        assert_eq!(prod_reason(&m), "compliant");
    }

    #[test]
    fn minimize_keeps_divergence() {
        // Divergence: "length >= 4" — minimal repro is exactly 4 bytes.
        let out = minimize_input(&[7u8; 64], |b| b.len() >= 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn oracle_parse_matches_production_on_golden_vectors() {
        for v in vectors() {
            let prod = v.parser.parse(&v.bytes).is_ok();
            let orac = oracle_parse(v.parser, &v.bytes).is_ok();
            assert_eq!(prod, orac, "vector `{}`", v.name);
        }
    }

    #[test]
    fn judged_golden_vectors_agree() {
        for v in vectors() {
            if v.parser.parse(&v.bytes).is_err() || oracle_parse(v.parser, &v.bytes).is_err() {
                continue;
            }
            assert_eq!(
                prod_judge_parser(v.parser, &v.bytes),
                oracle_judge_parser(v.parser, &v.bytes),
                "vector `{}`",
                v.name
            );
        }
    }
}
