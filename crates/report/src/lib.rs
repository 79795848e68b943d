//! # rtc-report
//!
//! Aggregation of per-call analysis results into the paper's two
//! compliance metrics and its published tables and figures:
//!
//! * **volume-based metric** (§5.1): compliant messages / all messages,
//! * **message-type-based metric** (§5.1): a message *type* is compliant
//!   only if **every** observed instance conforms; types used by several
//!   applications count once per application,
//! * renderers for **Tables 1–6** and **Figures 3–5** as aligned text,
//!   CSV, and JSON.
//!
//! Two per-call types split the work:
//!
//! * [`CallRecord`] is the per-call *analysis output*: filter statistics,
//!   datagram classes and every judged message with its datagram's index
//!   and its violation. Consumers that need per-message verdicts (the
//!   oracle re-judgement, `rtc-study dissect`, the examples) read it.
//! * [`CallSummary`] is what the *reports keep*: the same scalars plus,
//!   per `(protocol, message type)`, a [`TypeCount`] of messages and
//!   compliant messages. Both metrics are functions of those counts, so
//!   the [`Aggregator`], its checkpoints ([`state`]) and shard merges stay
//!   the same size however long the calls run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod json;
pub mod render;
pub mod state;
pub mod tables;

use rtc_compliance::{CheckedCall, TypeKey};
use rtc_dpi::{DatagramClass, Protocol};
use std::collections::BTreeMap;

/// Everything the analysis of one call produces for the report layer,
/// down to the individual judged messages.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Application display name (e.g. "Zoom").
    pub app: String,
    /// Network configuration label.
    pub network: String,
    /// Repeat index.
    pub repeat: usize,
    /// Raw capture size in bytes (link-layer).
    pub raw_bytes: usize,
    /// Pre-filtering traffic stats.
    pub raw: rtc_filter::StageStats,
    /// Stage-1 removals.
    pub stage1: rtc_filter::StageStats,
    /// Stage-2 removals.
    pub stage2: rtc_filter::StageStats,
    /// Kept RTC traffic stats.
    pub rtc: rtc_filter::StageStats,
    /// Figure-3 datagram class counts `(standard, prop-header, fully-prop)`.
    pub classes: (usize, usize, usize),
    /// All judged messages.
    pub checked: CheckedCall,
    /// Rejection-taxonomy counts for the call's fully proprietary
    /// datagrams (`rtc_dpi::CallDissection::rejections`).
    pub rejections: BTreeMap<String, usize>,
}

impl CallRecord {
    /// Summarize the datagram classes of a dissection.
    pub fn class_counts(dissection: &rtc_dpi::CallDissection) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &dissection.datagrams {
            match d.class {
                DatagramClass::Standard => c.0 += 1,
                DatagramClass::ProprietaryHeader => c.1 += 1,
                DatagramClass::FullyProprietary => c.2 += 1,
            }
        }
        c
    }
}

pub use rtc_compliance::TypeCount;

/// The renderers of the paper's nine artifacts, in the paper's order:
/// Tables 1–6, then Figures 3–5.
pub const ARTIFACTS: [fn(&StudyData) -> render::TextTable; 9] = [
    tables::table1,
    tables::table2,
    tables::table3,
    tables::table4,
    tables::table5,
    tables::table6,
    figures::figure3,
    figures::figure4,
    figures::figure5,
];

/// What the reports keep of one analyzed call: a [`CallRecord`] with its
/// judged messages folded into per-type [`TypeCount`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSummary {
    /// Application display name (e.g. "Zoom").
    pub app: String,
    /// Network configuration label.
    pub network: String,
    /// Repeat index.
    pub repeat: usize,
    /// Raw capture size in bytes (link-layer).
    pub raw_bytes: usize,
    /// Pre-filtering traffic stats.
    pub raw: rtc_filter::StageStats,
    /// Stage-1 removals.
    pub stage1: rtc_filter::StageStats,
    /// Stage-2 removals.
    pub stage2: rtc_filter::StageStats,
    /// Kept RTC traffic stats.
    pub rtc: rtc_filter::StageStats,
    /// Figure-3 datagram class counts `(standard, prop-header, fully-prop)`.
    pub classes: (usize, usize, usize),
    /// Judged messages per `(protocol, type)`.
    pub types: BTreeMap<(Protocol, TypeKey), TypeCount>,
    /// Datagrams no standard message could be extracted from.
    pub fully_proprietary_datagrams: usize,
    /// Rejection-taxonomy counts for the call's fully proprietary
    /// datagrams (`rtc_dpi::CallDissection::rejections`).
    pub rejections: BTreeMap<String, usize>,
}

impl From<CallRecord> for CallSummary {
    fn from(r: CallRecord) -> CallSummary {
        let types = r.checked.type_counts();
        CallSummary {
            app: r.app,
            network: r.network,
            repeat: r.repeat,
            raw_bytes: r.raw_bytes,
            raw: r.raw,
            stage1: r.stage1,
            stage2: r.stage2,
            rtc: r.rtc,
            classes: r.classes,
            types,
            fully_proprietary_datagrams: r.checked.fully_proprietary_datagrams,
            rejections: r.rejections,
        }
    }
}

/// The full study: every analyzed call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StudyData {
    /// One summary per analyzed call.
    pub calls: Vec<CallSummary>,
}

impl StudyData {
    /// Application names in canonical (sorted) order. Sorting here — rather
    /// than returning first-seen order — makes every rendered artifact
    /// independent of the order calls were analyzed in, so the batch driver
    /// (experiment-matrix order) and the streaming driver (directory-sweep
    /// order) produce byte-identical reports.
    pub fn apps(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.calls {
            if !out.contains(&c.app) {
                out.push(c.app.clone());
            }
        }
        out.sort();
        out
    }

    /// The per-call message counts of one application, one item per
    /// `(protocol, type)` observed in each of its calls.
    pub fn types_of<'a>(&'a self, app: &'a str) -> impl Iterator<Item = ((Protocol, TypeKey), TypeCount)> + 'a {
        self.calls.iter().filter(move |c| c.app == app).flat_map(|c| c.types.iter().map(|(k, n)| (*k, *n)))
    }

    /// Volume-based compliance for one application (§5.1.1).
    pub fn app_volume_compliance(&self, app: &str) -> f64 {
        volume_ratio(self.types_of(app).map(|(_, n)| n))
    }

    /// Volume-based compliance for one protocol across all applications.
    pub fn protocol_volume_compliance(&self, protocol: Protocol) -> f64 {
        volume_ratio(
            self.calls.iter().flat_map(|c| c.types.iter()).filter(|((p, _), _)| *p == protocol).map(|(_, n)| *n),
        )
    }

    /// The message-type compliance map for one application: for each
    /// observed `(protocol, type)` pair, whether **all** instances were
    /// compliant (§5.1.2).
    pub fn app_type_compliance(&self, app: &str) -> BTreeMap<(Protocol, TypeKey), bool> {
        let mut map: BTreeMap<(Protocol, TypeKey), bool> = BTreeMap::new();
        for (key, n) in self.types_of(app) {
            *map.entry(key).or_insert(true) &= n.compliant == n.messages;
        }
        map
    }

    /// `(compliant types, total types)` per protocol for one application
    /// (one row of Table 3).
    pub fn app_type_ratio(&self, app: &str, protocol: Protocol) -> (usize, usize) {
        let map = self.app_type_compliance(app);
        let mut total = 0;
        let mut ok = 0;
        for ((p, _), compliant) in &map {
            if *p == protocol {
                total += 1;
                ok += *compliant as usize;
            }
        }
        (ok, total)
    }

    /// `(compliant, total)` for all protocols of one application.
    pub fn app_type_ratio_all(&self, app: &str) -> (usize, usize) {
        let map = self.app_type_compliance(app);
        let total = map.len();
        let ok = map.values().filter(|c| **c).count();
        (ok, total)
    }

    /// `(compliant, total)` for one protocol across applications, counting
    /// a type once per application that uses it (the paper's "counted
    /// multiple times" rule).
    pub fn protocol_type_ratio(&self, protocol: Protocol) -> (usize, usize) {
        let mut total = 0;
        let mut ok = 0;
        for app in self.apps() {
            let (o, t) = self.app_type_ratio(&app, protocol);
            ok += o;
            total += t;
        }
        (ok, total)
    }

    /// Message-type-based compliance ratio for one application.
    pub fn app_type_compliance_ratio(&self, app: &str) -> f64 {
        let (ok, total) = self.app_type_ratio_all(app);
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Sorted compliant / non-compliant type lists for one application and
    /// protocol (the rows of Tables 4, 5 and 6).
    pub fn app_type_lists(&self, app: &str, protocol: Protocol) -> (Vec<TypeKey>, Vec<TypeKey>) {
        let map = self.app_type_compliance(app);
        let mut ok = Vec::new();
        let mut bad = Vec::new();
        for ((p, key), compliant) in map {
            if p == protocol {
                if compliant {
                    ok.push(key);
                } else {
                    bad.push(key);
                }
            }
        }
        (ok, bad)
    }

    /// Message distribution for one application: share per protocol plus
    /// the fully proprietary share (Table 2's row). The unit is a message,
    /// with each fully proprietary datagram counting as one unit.
    pub fn app_message_distribution(&self, app: &str) -> (BTreeMap<Protocol, f64>, f64) {
        let mut counts: BTreeMap<Protocol, usize> = BTreeMap::new();
        let mut fully = 0usize;
        for c in self.calls.iter().filter(|c| c.app == app) {
            fully += c.fully_proprietary_datagrams;
            for ((p, _), n) in &c.types {
                *counts.entry(*p).or_default() += n.messages;
            }
        }
        let total = counts.values().sum::<usize>() + fully;
        if total == 0 {
            return (BTreeMap::new(), 0.0);
        }
        let shares = counts.into_iter().map(|(p, n)| (p, n as f64 / total as f64)).collect();
        (shares, fully as f64 / total as f64)
    }

    /// Merged rejection taxonomy across all calls of one application:
    /// taxonomy key → fully-proprietary datagram count. Explains *why* the
    /// unrecognized traffic failed the wire grammars (or validation).
    pub fn app_rejection_taxonomy(&self, app: &str) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for c in self.calls.iter().filter(|c| c.app == app) {
            for (key, n) in &c.rejections {
                *out.entry(key.clone()).or_default() += n;
            }
        }
        out
    }

    /// Figure-3 class shares for one application.
    pub fn app_class_shares(&self, app: &str) -> (f64, f64, f64) {
        let mut std_c = 0usize;
        let mut prop = 0usize;
        let mut fully = 0usize;
        for c in self.calls.iter().filter(|c| c.app == app) {
            std_c += c.classes.0;
            prop += c.classes.1;
            fully += c.classes.2;
        }
        let total = (std_c + prop + fully).max(1) as f64;
        (std_c as f64 / total, prop as f64 / total, fully as f64 / total)
    }
}

/// Compliant share of the messages counted in `counts`; vacuously 1.0
/// when there are none.
fn volume_ratio(counts: impl Iterator<Item = TypeCount>) -> f64 {
    let (total, ok) = counts.fold((0usize, 0usize), |(t, o), n| (t + n.messages, o + n.compliant));
    if total == 0 {
        1.0
    } else {
        ok as f64 / total as f64
    }
}

/// The cross-call study state the [`Aggregator`] folds to when it
/// finishes: everything the study report needs beyond the raw data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateReport {
    /// All call summaries, in canonical `(app, network, repeat)` order.
    pub data: StudyData,
    /// Behavioral findings per application, deduplicated by kind.
    pub findings: BTreeMap<String, Vec<rtc_compliance::findings::Finding>>,
    /// Proprietary-header profile summaries per application (at most a few
    /// representative streams each).
    pub header_profiles: BTreeMap<String, Vec<String>>,
}

/// Incremental study aggregation: folds [`CallRecord`]s (plus each call's
/// findings, header-profile summaries, and SSRC inventory) as calls
/// complete, keeping each as a [`CallSummary`], so a streaming driver
/// retains neither per-call dissections nor judged messages.
///
/// Absorbing and merging are order-invariant up to the order of the calls,
/// which [`Aggregator::finish`] sorts, so every driver produces the
/// identical result whatever order its calls complete in: the batch
/// driver's workers each absorb their calls as they finish and merge at
/// the end. Cross-call analyses (SSRC reuse per `(app, network)` cell) run
/// at finish time over the compact SSRC inventories.
#[derive(Debug, Clone, Default)]
pub struct Aggregator {
    calls: Vec<CallSummary>,
    findings: BTreeMap<String, Vec<rtc_compliance::findings::Finding>>,
    header_profiles: BTreeMap<String, Vec<String>>,
    ssrc_sets: BTreeMap<(String, String), Vec<std::collections::BTreeSet<u32>>>,
}

/// How many header-profile summaries the report keeps per application.
pub const MAX_HEADER_PROFILES_PER_APP: usize = 3;

impl Aggregator {
    /// Fresh, empty aggregation state.
    pub fn new() -> Aggregator {
        Aggregator::default()
    }

    /// Number of calls absorbed so far.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no call has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Fold one completed call into the study: its record (kept as a
    /// [`CallSummary`]), behavioral findings (deduplicated by kind per
    /// application), header-profile summaries (capped at
    /// [`MAX_HEADER_PROFILES_PER_APP`]), and SSRC inventory (retained per
    /// `(app, network)` cell for the cross-call reuse detector). This is
    /// [`Aggregator::merge`] of a one-call aggregator.
    pub fn absorb_call(
        &mut self,
        record: CallRecord,
        findings: &[rtc_compliance::findings::Finding],
        header_profiles: &[String],
        ssrcs: std::collections::BTreeSet<u32>,
    ) {
        let app = record.app.clone();
        self.merge(Aggregator {
            ssrc_sets: BTreeMap::from([((app.clone(), record.network.clone()), vec![ssrcs])]),
            findings: BTreeMap::from([(app.clone(), findings.to_vec())]),
            header_profiles: BTreeMap::from([(app, header_profiles.to_vec())]),
            calls: vec![CallSummary::from(record)],
        });
    }

    /// A point-in-time view of the data aggregated so far, in absorption
    /// order; the tables and figures can be rendered from it mid-study.
    /// Once every call is absorbed it holds the calls of
    /// [`Aggregator::finish`]'s `data`, which puts them in canonical order.
    pub fn snapshot(&self) -> StudyData {
        StudyData { calls: self.calls.clone() }
    }

    /// Fold another aggregator's state into this one, as if `other`'s
    /// calls had been absorbed here directly.
    ///
    /// Merging is commutative and associative up to the order of the
    /// `calls` vector, which [`Aggregator::finish`] sorts: findings keep
    /// the strongest instance per kind, header profiles keep the
    /// lexicographically-smallest [`MAX_HEADER_PROFILES_PER_APP`] of the
    /// union (smallest-N is closed under union of smallest-N sides), and
    /// SSRC inventories concatenate (the reuse detector is order-
    /// invariant). This is how the sharded live service folds per-shard
    /// partial aggregations into one per-tenant report.
    pub fn merge(&mut self, other: Aggregator) {
        let Aggregator { calls, findings, header_profiles, ssrc_sets } = other;
        self.calls.extend(calls);
        // One representative finding per kind. The strongest instance (by
        // count, then detail text) wins rather than the first absorbed, so
        // the retained example does not depend on call scheduling.
        for (app, list) in findings {
            let entry = self.findings.entry(app).or_default();
            for f in list {
                match entry.iter_mut().find(|e| e.kind == f.kind) {
                    None => entry.push(f),
                    Some(e) => {
                        if (f.count, &f.detail) > (e.count, &e.detail) {
                            *e = f;
                        }
                    }
                }
            }
        }
        // Keep the lexicographically-smallest summaries rather than the
        // first absorbed: "smallest N seen so far" is invariant under call
        // order, so batch and streaming drivers retain the same profiles.
        for (app, list) in header_profiles {
            let profiles = self.header_profiles.entry(app).or_default();
            for p in list {
                if !profiles.contains(&p) {
                    profiles.push(p);
                }
            }
            profiles.sort();
            profiles.truncate(MAX_HEADER_PROFILES_PER_APP);
        }
        for (cell, sets) in ssrc_sets {
            self.ssrc_sets.entry(cell).or_default().extend(sets);
        }
    }

    /// Seal the study: run the cross-call analyses (SSRC reuse per
    /// `(app, network)` cell) and emit the aggregate report, its calls in
    /// canonical `(app, network, repeat)` order. This is the one place
    /// calls are ordered, so a report does not depend on which driver
    /// absorbed them or in what order they completed.
    pub fn finish(self) -> AggregateReport {
        let Aggregator { mut calls, mut findings, mut header_profiles, ssrc_sets } = self;
        calls.sort_by(|a, b| (&a.app, &a.network, a.repeat).cmp(&(&b.app, &b.network, b.repeat)));
        for ((app, _net), sets) in &ssrc_sets {
            if let Some(f) = rtc_compliance::findings::detect_ssrc_reuse_sets(sets) {
                let entry = findings.entry(app.clone()).or_default();
                if !entry.iter().any(|e| e.kind == f.kind) {
                    entry.push(f);
                }
            }
        }
        header_profiles.retain(|_, v| !v.is_empty());
        // Canonical finding order per application (they were collected in
        // call-completion order, which the driver choice may permute).
        for list in findings.values_mut() {
            list.sort_by_key(|f| f.kind);
        }
        AggregateReport { data: StudyData { calls }, findings, header_profiles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_compliance::{CheckedMessage, Rule, Violation};

    fn msg(protocol: Protocol, key: TypeKey, compliant: bool) -> CheckedMessage {
        CheckedMessage {
            protocol,
            type_key: key,
            datagram: 0,
            violation: (!compliant).then(|| Violation::new(Rule::StunTypeUndefined)),
        }
    }

    fn record(app: &str, messages: Vec<CheckedMessage>, fully: usize) -> CallRecord {
        CallRecord {
            app: app.into(),
            network: "wifi-p2p".into(),
            repeat: 0,
            raw_bytes: 1000,
            raw: Default::default(),
            stage1: Default::default(),
            stage2: Default::default(),
            rtc: Default::default(),
            classes: (10, 5, fully),
            checked: CheckedCall { messages, fully_proprietary_datagrams: fully },
            rejections: BTreeMap::from([("stun: length alignment".to_string(), fully)]),
        }
    }

    fn records() -> Vec<CallRecord> {
        vec![
            record(
                "AppA",
                vec![
                    msg(Protocol::Rtp, TypeKey::Rtp(96), true),
                    msg(Protocol::Rtp, TypeKey::Rtp(96), true),
                    msg(Protocol::Rtp, TypeKey::Rtp(97), false),
                    msg(Protocol::StunTurn, TypeKey::Stun(1), true),
                ],
                2,
            ),
            record(
                "AppB",
                vec![
                    msg(Protocol::Rtp, TypeKey::Rtp(96), false),
                    msg(Protocol::Rtcp, TypeKey::Rtcp(200), true),
                    msg(Protocol::Rtcp, TypeKey::Rtcp(200), false),
                ],
                0,
            ),
        ]
    }

    fn study() -> StudyData {
        StudyData { calls: records().into_iter().map(CallSummary::from).collect() }
    }

    #[test]
    fn summary_counts_messages_per_type() {
        let s = study();
        let appa = &s.calls[0];
        assert_eq!(appa.types.len(), 3);
        assert_eq!(appa.types[&(Protocol::Rtp, TypeKey::Rtp(96))], TypeCount { messages: 2, compliant: 2 });
        assert_eq!(appa.types[&(Protocol::Rtp, TypeKey::Rtp(97))], TypeCount { messages: 1, compliant: 0 });
        assert_eq!(appa.fully_proprietary_datagrams, 2);
        assert_eq!(s.types_of("AppB").map(|(_, n)| n.messages).sum::<usize>(), 3);
    }

    #[test]
    fn volume_metric_per_app() {
        let s = study();
        assert!((s.app_volume_compliance("AppA") - 0.75).abs() < 1e-9);
        assert!((s.app_volume_compliance("AppB") - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn volume_metric_per_protocol() {
        let s = study();
        // RTP: 4 messages, 2 compliant.
        assert!((s.protocol_volume_compliance(Protocol::Rtp) - 0.5).abs() < 1e-9);
        // RTCP: 2 messages, 1 compliant.
        assert!((s.protocol_volume_compliance(Protocol::Rtcp) - 0.5).abs() < 1e-9);
        // QUIC unobserved: vacuous 1.0.
        assert!((s.protocol_volume_compliance(Protocol::Quic) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn type_metric_all_instances_rule() {
        let s = study();
        // AppA: RTP 96 fully compliant, RTP 97 not → 1/2; STUN 1/1.
        assert_eq!(s.app_type_ratio("AppA", Protocol::Rtp), (1, 2));
        assert_eq!(s.app_type_ratio("AppA", Protocol::StunTurn), (1, 1));
        assert_eq!(s.app_type_ratio_all("AppA"), (2, 3));
        // AppB: RTCP 200 has one non-compliant instance → type non-compliant.
        assert_eq!(s.app_type_ratio("AppB", Protocol::Rtcp), (0, 1));
    }

    #[test]
    fn cross_app_types_count_per_app() {
        let s = study();
        // RTP 96 compliant in AppA, non-compliant in AppB → 1/2 + 0/1... 96
        // counts once per app: AppA {96 ok, 97 bad} + AppB {96 bad} = 1/3.
        assert_eq!(s.protocol_type_ratio(Protocol::Rtp), (1, 3));
    }

    #[test]
    fn type_lists_sorted() {
        let s = study();
        let (ok, bad) = s.app_type_lists("AppA", Protocol::Rtp);
        assert_eq!(ok, vec![TypeKey::Rtp(96)]);
        assert_eq!(bad, vec![TypeKey::Rtp(97)]);
    }

    #[test]
    fn distribution_includes_fully_proprietary() {
        let s = study();
        let (shares, fully) = s.app_message_distribution("AppA");
        // 4 messages + 2 fully proprietary = 6 units.
        assert!((fully - 2.0 / 6.0).abs() < 1e-9);
        assert!((shares[&Protocol::Rtp] - 3.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn rejection_taxonomy_merges_across_calls() {
        let s = study();
        let tax = s.app_rejection_taxonomy("AppA");
        assert_eq!(tax.get("stun: length alignment"), Some(&2));
        assert!(s.app_rejection_taxonomy("AppB").get("stun: length alignment").is_none_or(|n| *n == 0));
    }

    #[test]
    fn aggregator_folds_incrementally() {
        use rtc_compliance::findings::{Finding, FindingKind};
        let s = study();
        let r = records();
        let f = Finding { kind: FindingKind::DoubleRtpDatagrams, count: 3, detail: "3 doubles".into() };
        let dup = Finding { kind: FindingKind::DoubleRtpDatagrams, count: 9, detail: "9 doubles".into() };
        let mut agg = Aggregator::new();
        assert!(agg.is_empty());
        let reused: std::collections::BTreeSet<u32> = [0xAA, 0xBB].into_iter().collect();
        for (i, call) in r.iter().enumerate() {
            // Same non-empty SSRC set on every call of the (app, network)
            // cell — but each app has one call here, so no reuse fires.
            agg.absorb_call(call.clone(), &[f.clone(), dup.clone()], &["hdr profile".into()], reused.clone());
            assert_eq!(agg.len(), i + 1);
            assert_eq!(agg.snapshot().calls, s.calls[..=i]);
        }
        // A second AppA call with the identical SSRC inventory triggers the
        // cross-call reuse detector for AppA only.
        agg.absorb_call(r[0].clone(), &[], &[], reused.clone());
        let out = agg.finish();
        assert_eq!(out.data.calls.len(), 3);
        let appa = &out.findings["AppA"];
        assert_eq!(appa.iter().filter(|f| f.kind == FindingKind::DoubleRtpDatagrams).count(), 1, "dedup by kind");
        let double = appa.iter().find(|f| f.kind == FindingKind::DoubleRtpDatagrams).unwrap();
        assert_eq!(double.detail, "9 doubles", "the strongest instance wins, regardless of absorb order");
        assert!(appa.iter().any(|f| f.kind == FindingKind::SsrcReuseAcrossCalls));
        assert!(!out.findings["AppB"].iter().any(|f| f.kind == FindingKind::SsrcReuseAcrossCalls));
        assert_eq!(out.header_profiles["AppA"], vec!["hdr profile".to_string()]);
    }

    #[test]
    fn merge_equals_sequential_absorb() {
        use rtc_compliance::findings::{Finding, FindingKind};
        let r = records();
        let weak = Finding { kind: FindingKind::DoubleRtpDatagrams, count: 3, detail: "3 doubles".into() };
        let strong = Finding { kind: FindingKind::DoubleRtpDatagrams, count: 9, detail: "9 doubles".into() };
        let ssrcs: std::collections::BTreeSet<u32> = [0xAA, 0xBB].into_iter().collect();

        // Sequential: all three calls through one aggregator.
        let mut seq = Aggregator::new();
        seq.absorb_call(r[0].clone(), std::slice::from_ref(&weak), &["p2".into()], ssrcs.clone());
        seq.absorb_call(r[1].clone(), std::slice::from_ref(&strong), &["p1".into()], ssrcs.clone());
        seq.absorb_call(r[0].clone(), &[], &[], ssrcs.clone());

        // Sharded: calls split across two aggregators, merged in the
        // opposite order.
        let mut shard_a = Aggregator::new();
        shard_a.absorb_call(r[0].clone(), std::slice::from_ref(&weak), &["p2".into()], ssrcs.clone());
        shard_a.absorb_call(r[0].clone(), &[], &[], ssrcs.clone());
        let mut shard_b = Aggregator::new();
        shard_b.absorb_call(r[1].clone(), std::slice::from_ref(&strong), &["p1".into()], ssrcs.clone());
        let mut merged = Aggregator::new();
        merged.merge(shard_b);
        merged.merge(shard_a);
        assert_eq!(merged.len(), seq.len());

        let a = seq.finish();
        let b = merged.finish();
        assert_eq!(a.data, b.data);
        assert_eq!(a.findings, b.findings);
        assert_eq!(a.header_profiles, b.header_profiles);
        // The cross-call SSRC reuse detector sees the same inventory either way.
        assert!(a.findings["AppA"].iter().any(|f| f.kind == FindingKind::SsrcReuseAcrossCalls));
    }

    #[test]
    fn finish_orders_calls_canonically() {
        let r = records();
        let ssrcs: std::collections::BTreeSet<u32> = [1].into_iter().collect();
        let mut agg = Aggregator::new();
        agg.absorb_call(r[1].clone(), &[], &["h".into()], ssrcs.clone());
        agg.absorb_call(r[0].clone(), &[], &[], ssrcs);
        // Snapshots keep absorption order; finish sorts AppA before AppB.
        let snap = agg.snapshot();
        assert_eq!(snap.calls.iter().map(|c| c.app.as_str()).collect::<Vec<_>>(), ["AppB", "AppA"]);
        let fin = agg.finish();
        assert_eq!(fin.data.calls, [snap.calls[1].clone(), snap.calls[0].clone()]);
    }

    #[test]
    fn class_shares() {
        let s = study();
        let (std_s, prop, fully) = s.app_class_shares("AppA");
        assert!((std_s - 10.0 / 17.0).abs() < 1e-9);
        assert!((prop - 5.0 / 17.0).abs() < 1e-9);
        assert!((fully - 2.0 / 17.0).abs() < 1e-9);
    }
}
