//! Checkpoint (de)serialization of the incremental [`Aggregator`] state.
//!
//! The sharded study runner persists each shard's partial aggregation so a
//! killed shard resumes from its last checkpoint instead of restarting
//! (DESIGN.md "Scale tiers"). The encoding is explicit JSON — the same
//! hand-rolled `serde_json::Value` idiom as [`crate::json`] — so the
//! format is auditable and the round-trip is exact: deserialize → `merge`
//! equals the in-memory merge for any shard split (property-tested in
//! `tests/checkpoint_roundtrip.rs`).
//!
//! What is encoded is what the reports keep: each call's
//! [`CallSummary`], with its judged messages as one
//! `[protocol, type_key, messages, compliant]` row per message type, so a
//! checkpoint's size follows the number of calls and types, not the
//! traffic. Every enum is encoded by its stable wire label (never a
//! discriminant index), so a checkpoint written by one build is readable
//! by any build that understands the same version header. Decoding
//! rejects, rather than truncates, numbers that do not fit their field.

use crate::{Aggregator, CallSummary, TypeCount};
use rtc_compliance::findings::{Finding, FindingKind};
use rtc_compliance::TypeKey;
use rtc_dpi::Protocol;
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Deserialization failure: which field was malformed and why.
pub type StateError = String;

fn err(what: &str, v: &Value) -> StateError {
    format!("checkpoint state: invalid {what}: {}", serde_json::to_string(v).unwrap_or_default())
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, StateError> {
    v.get(key).ok_or_else(|| format!("checkpoint state: missing field `{key}`"))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, StateError> {
    v.as_u64().ok_or_else(|| err(what, v))
}

/// An integer field that must fit `T` (a count, a type-key number, an
/// SSRC): out-of-range values are an error, never truncated.
fn as_int<T: TryFrom<u64>>(v: &Value, what: &str) -> Result<T, StateError> {
    T::try_from(as_u64(v, what)?).map_err(|_| err(what, v))
}

fn as_usize(v: &Value, what: &str) -> Result<usize, StateError> {
    as_int(v, what)
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, StateError> {
    v.as_str().ok_or_else(|| err(what, v))
}

fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a Vec<Value>, StateError> {
    v.as_array().ok_or_else(|| err(what, v))
}

fn protocol_to_value(p: Protocol) -> Value {
    json!(p.label())
}

fn protocol_from_value(v: &Value) -> Result<Protocol, StateError> {
    let s = as_str(v, "protocol")?;
    Protocol::ALL.iter().copied().find(|p| p.label() == s).ok_or_else(|| err("protocol", v))
}

fn type_key_to_value(k: TypeKey) -> Value {
    match k {
        TypeKey::Stun(t) => json!({ "t": "stun", "n": t }),
        TypeKey::ChannelData => json!({ "t": "channel-data" }),
        TypeKey::Rtp(pt) => json!({ "t": "rtp", "n": pt }),
        TypeKey::Rtcp(pt) => json!({ "t": "rtcp", "n": pt }),
        TypeKey::QuicLong(t) => json!({ "t": "quic-long", "n": t }),
        TypeKey::QuicShort => json!({ "t": "quic-short" }),
    }
}

fn type_key_from_value(v: &Value) -> Result<TypeKey, StateError> {
    let n = || get(v, "n");
    match as_str(get(v, "t")?, "type key tag")? {
        "stun" => Ok(TypeKey::Stun(as_int(n()?, "STUN message type")?)),
        "channel-data" => Ok(TypeKey::ChannelData),
        "rtp" => Ok(TypeKey::Rtp(as_int(n()?, "RTP payload type")?)),
        "rtcp" => Ok(TypeKey::Rtcp(as_int(n()?, "RTCP packet type")?)),
        "quic-long" => Ok(TypeKey::QuicLong(as_int(n()?, "QUIC long-header type")?)),
        "quic-short" => Ok(TypeKey::QuicShort),
        _ => Err(err("type key", v)),
    }
}

/// One `[protocol, type_key, messages, compliant]` row per type.
fn types_to_value(types: &BTreeMap<(Protocol, TypeKey), TypeCount>) -> Value {
    Value::Array(
        types
            .iter()
            .map(|((p, k), n)| json!([protocol_to_value(*p), type_key_to_value(*k), n.messages, n.compliant]))
            .collect(),
    )
}

fn types_from_value(v: &Value) -> Result<BTreeMap<(Protocol, TypeKey), TypeCount>, StateError> {
    let mut types = BTreeMap::new();
    for row in as_array(v, "type counts")? {
        let cols = as_array(row, "type count row")?;
        if cols.len() != 4 {
            return Err(err("type count row", row));
        }
        let key = (protocol_from_value(&cols[0])?, type_key_from_value(&cols[1])?);
        let n = TypeCount {
            messages: as_usize(&cols[2], "type message count")?,
            compliant: as_usize(&cols[3], "type compliant count")?,
        };
        if n.messages == 0 || n.compliant > n.messages {
            return Err(err("type count (need 1 <= messages, compliant <= messages)", row));
        }
        if types.insert(key, n).is_some() {
            return Err(err("type count (duplicate type)", row));
        }
    }
    Ok(types)
}

fn stage_stats_to_value(s: &rtc_filter::StageStats) -> Value {
    json!([s.udp_streams, s.udp_datagrams, s.tcp_streams, s.tcp_segments])
}

fn stage_stats_from_value(v: &Value) -> Result<rtc_filter::StageStats, StateError> {
    let a = as_array(v, "stage stats")?;
    if a.len() != 4 {
        return Err(err("stage stats", v));
    }
    let n = |i: usize| as_usize(&a[i], "stage stat");
    Ok(rtc_filter::StageStats { udp_streams: n(0)?, udp_datagrams: n(1)?, tcp_streams: n(2)?, tcp_segments: n(3)? })
}

/// Serialize one [`CallSummary`].
fn summary_to_value(c: &CallSummary) -> Value {
    json!({
        "app": c.app.clone(),
        "network": c.network.clone(),
        "repeat": c.repeat,
        "raw_bytes": c.raw_bytes,
        "raw": stage_stats_to_value(&c.raw),
        "stage1": stage_stats_to_value(&c.stage1),
        "stage2": stage_stats_to_value(&c.stage2),
        "rtc": stage_stats_to_value(&c.rtc),
        "classes": json!([c.classes.0, c.classes.1, c.classes.2]),
        "types": types_to_value(&c.types),
        "fully_proprietary_datagrams": c.fully_proprietary_datagrams,
        "rejections": c.rejections.iter().map(|(k, n)| (k.clone(), json!(*n))).collect::<serde_json::Map<_, _>>(),
    })
}

/// Deserialize one [`CallSummary`].
fn summary_from_value(v: &Value) -> Result<CallSummary, StateError> {
    let classes = as_array(get(v, "classes")?, "classes")?;
    if classes.len() != 3 {
        return Err(err("classes", get(v, "classes")?));
    }
    let mut rejections = BTreeMap::new();
    for (k, n) in get(v, "rejections")?.as_object().ok_or_else(|| err("rejections", v))?.iter() {
        rejections.insert(k.clone(), as_usize(n, "rejection count")?);
    }
    Ok(CallSummary {
        app: as_str(get(v, "app")?, "app")?.to_string(),
        network: as_str(get(v, "network")?, "network")?.to_string(),
        repeat: as_usize(get(v, "repeat")?, "repeat")?,
        raw_bytes: as_usize(get(v, "raw_bytes")?, "raw_bytes")?,
        raw: stage_stats_from_value(get(v, "raw")?)?,
        stage1: stage_stats_from_value(get(v, "stage1")?)?,
        stage2: stage_stats_from_value(get(v, "stage2")?)?,
        rtc: stage_stats_from_value(get(v, "rtc")?)?,
        classes: (
            as_usize(&classes[0], "class count")?,
            as_usize(&classes[1], "class count")?,
            as_usize(&classes[2], "class count")?,
        ),
        types: types_from_value(get(v, "types")?)?,
        fully_proprietary_datagrams: as_usize(get(v, "fully_proprietary_datagrams")?, "fully proprietary")?,
        rejections,
    })
}

fn finding_to_value(f: &Finding) -> Value {
    json!({ "kind": finding_kind_label(f.kind), "count": f.count, "detail": f.detail.clone() })
}

fn finding_kind_label(k: FindingKind) -> &'static str {
    match k {
        FindingKind::FillerDatagrams => "filler-datagrams",
        FindingKind::DoubleRtpDatagrams => "double-rtp-datagrams",
        FindingKind::ZeroSenderSsrc => "zero-sender-ssrc",
        FindingKind::DirectionTrailer => "direction-trailer",
        FindingKind::ProprietaryKeepalives => "proprietary-keepalives",
        FindingKind::SsrcReuseAcrossCalls => "ssrc-reuse-across-calls",
    }
}

fn finding_from_value(v: &Value) -> Result<Finding, StateError> {
    const ALL: [FindingKind; 6] = [
        FindingKind::FillerDatagrams,
        FindingKind::DoubleRtpDatagrams,
        FindingKind::ZeroSenderSsrc,
        FindingKind::DirectionTrailer,
        FindingKind::ProprietaryKeepalives,
        FindingKind::SsrcReuseAcrossCalls,
    ];
    let label = as_str(get(v, "kind")?, "finding kind")?;
    let kind = ALL.iter().copied().find(|k| finding_kind_label(*k) == label).ok_or_else(|| err("finding kind", v))?;
    Ok(Finding {
        kind,
        count: as_usize(get(v, "count")?, "finding count")?,
        detail: as_str(get(v, "detail")?, "finding detail")?.to_string(),
    })
}

impl Aggregator {
    /// Serialize the full aggregation state for a shard checkpoint.
    ///
    /// The inverse is [`Aggregator::from_state_value`]; the round-trip is
    /// exact (`PartialEq` on every component), so `deserialize → merge`
    /// over any shard split reproduces the in-memory merge bit for bit.
    pub fn to_state_value(&self) -> Value {
        let calls: Vec<Value> = self.calls.iter().map(summary_to_value).collect();
        let findings: serde_json::Map<String, Value> = self
            .findings
            .iter()
            .map(|(app, list)| (app.clone(), Value::Array(list.iter().map(finding_to_value).collect())))
            .collect();
        let header_profiles: serde_json::Map<String, Value> =
            self.header_profiles.iter().map(|(app, list)| (app.clone(), json!(list.as_slice()))).collect();
        // `(app, network)`-keyed map flattened to an array of cells:
        // JSON object keys are strings, tuples are not.
        let ssrc_sets: Vec<Value> = self
            .ssrc_sets
            .iter()
            .map(|((app, network), sets)| {
                let sets: Vec<Value> =
                    sets.iter().map(|s| Value::Array(s.iter().map(|n| json!(*n)).collect())).collect();
                json!({ "app": app, "network": network, "sets": sets })
            })
            .collect();
        json!({
            "calls": calls,
            "findings": findings,
            "header_profiles": header_profiles,
            "ssrc_sets": ssrc_sets,
        })
    }

    /// Rebuild an aggregator from a checkpointed state value.
    pub fn from_state_value(v: &Value) -> Result<Aggregator, StateError> {
        let calls =
            as_array(get(v, "calls")?, "calls")?.iter().map(summary_from_value).collect::<Result<Vec<_>, _>>()?;
        let mut findings = BTreeMap::new();
        for (app, list) in get(v, "findings")?.as_object().ok_or_else(|| err("findings", v))?.iter() {
            let list =
                as_array(list, "finding list")?.iter().map(finding_from_value).collect::<Result<Vec<_>, _>>()?;
            findings.insert(app.clone(), list);
        }
        let mut header_profiles = BTreeMap::new();
        for (app, list) in get(v, "header_profiles")?.as_object().ok_or_else(|| err("header profiles", v))?.iter() {
            let list = as_array(list, "header profile list")?
                .iter()
                .map(|p| as_str(p, "header profile").map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            header_profiles.insert(app.clone(), list);
        }
        let mut ssrc_sets: BTreeMap<(String, String), Vec<BTreeSet<u32>>> = BTreeMap::new();
        for cell in as_array(get(v, "ssrc_sets")?, "ssrc sets")? {
            let app = as_str(get(cell, "app")?, "ssrc cell app")?.to_string();
            let network = as_str(get(cell, "network")?, "ssrc cell network")?.to_string();
            let sets = as_array(get(cell, "sets")?, "ssrc set list")?
                .iter()
                .map(|s| {
                    as_array(s, "ssrc set")?
                        .iter()
                        .map(|n| as_int::<u32>(n, "ssrc"))
                        .collect::<Result<BTreeSet<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            ssrc_sets.insert((app, network), sets);
        }
        Ok(Aggregator { calls, findings, header_profiles, ssrc_sets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CallRecord;
    use rtc_compliance::{CheckedCall, CheckedMessage, Rule, Violation};

    fn sample_aggregator() -> Aggregator {
        let mut agg = Aggregator::new();
        let msg = |protocol, type_key, compliant: bool| CheckedMessage {
            protocol,
            type_key,
            datagram: 7,
            violation: (!compliant).then(|| Violation::new(Rule::StunAttrLength).with_ty(0x0013).with_n(4 << 16 | 3)),
        };
        let record = CallRecord {
            app: "Zoom".into(),
            network: "cellular".into(),
            repeat: 2,
            raw_bytes: 4321,
            raw: rtc_filter::StageStats { udp_streams: 9, udp_datagrams: 100, tcp_streams: 3, tcp_segments: 40 },
            stage1: Default::default(),
            stage2: rtc_filter::StageStats { udp_streams: 1, udp_datagrams: 7, tcp_streams: 0, tcp_segments: 0 },
            rtc: rtc_filter::StageStats { udp_streams: 2, udp_datagrams: 80, tcp_streams: 0, tcp_segments: 0 },
            classes: (50, 20, 10),
            checked: CheckedCall {
                messages: vec![
                    msg(Protocol::StunTurn, TypeKey::Stun(0x0001), false),
                    msg(Protocol::StunTurn, TypeKey::Stun(0x0001), true),
                    msg(Protocol::Rtp, TypeKey::Rtp(96), true),
                    msg(Protocol::Quic, TypeKey::QuicLong(2), true),
                ],
                fully_proprietary_datagrams: 10,
            },
            rejections: BTreeMap::from([("stun: truncated".to_string(), 4)]),
        };
        let finding = Finding { kind: FindingKind::DoubleRtpDatagrams, count: 7, detail: "7 doubles".into() };
        agg.absorb_call(record, &[finding], &["profile A".into()], [0xAA, 0xBB].into_iter().collect());
        agg
    }

    #[test]
    fn state_round_trips_exactly() {
        let agg = sample_aggregator();
        let v = agg.to_state_value();
        // Through a string too: the checkpoint file is serialized text.
        let text = serde_json::to_string(&v).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = Aggregator::from_state_value(&parsed).unwrap();
        assert_eq!(back.calls, agg.calls);
        assert_eq!(
            back.calls[0].types[&(Protocol::StunTurn, TypeKey::Stun(1))],
            TypeCount { messages: 2, compliant: 1 }
        );
        assert_eq!(back.findings, agg.findings);
        assert_eq!(back.header_profiles, agg.header_profiles);
        assert_eq!(back.ssrc_sets, agg.ssrc_sets);
    }

    #[test]
    fn deserialized_merge_equals_in_memory_merge() {
        let agg = sample_aggregator();
        let mut direct = Aggregator::new();
        direct.merge(agg.clone());
        let mut via_state = Aggregator::new();
        via_state.merge(Aggregator::from_state_value(&agg.to_state_value()).unwrap());
        assert_eq!(direct.snapshot(), via_state.snapshot());
        let a = direct.finish();
        let b = via_state.finish();
        assert_eq!(a.findings, b.findings);
        assert_eq!(a.header_profiles, b.header_profiles);
    }

    #[test]
    fn malformed_fields_error_with_context() {
        let agg = sample_aggregator();
        let mut v = agg.to_state_value();
        v.as_object_mut().unwrap().remove("findings");
        let e = Aggregator::from_state_value(&v).unwrap_err();
        assert!(e.contains("findings"), "error names the missing field: {e}");

        let bad: Value = serde_json::from_str(r#"{"calls": [{"app": 3}]}"#).unwrap();
        assert!(Aggregator::from_state_value(&bad).is_err());
    }

    /// The sample state with `edit` applied to its JSON text, decoded.
    fn decode_edited(edit: impl Fn(&str) -> String) -> Result<Aggregator, StateError> {
        let text = serde_json::to_string(&sample_aggregator().to_state_value()).unwrap();
        let edited = edit(&text);
        assert_ne!(edited, text, "the edit must apply");
        Aggregator::from_state_value(&serde_json::from_str(&edited).unwrap())
    }

    #[test]
    fn out_of_range_type_key_numbers_are_rejected() {
        for (from, to, what) in [
            (r#"{"n":96,"t":"rtp"}"#, r#"{"n":300,"t":"rtp"}"#, "RTP payload type"),
            (r#"{"n":2,"t":"quic-long"}"#, r#"{"n":256,"t":"quic-long"}"#, "QUIC long-header type"),
            (r#"{"n":1,"t":"stun"}"#, r#"{"n":65536,"t":"stun"}"#, "STUN message type"),
        ] {
            let e = decode_edited(|t| t.replacen(from, to, 1)).unwrap_err();
            assert!(e.contains(what), "{e}");
        }
    }

    #[test]
    fn out_of_range_ssrcs_are_rejected() {
        let e = decode_edited(|t| t.replacen("[170,187]", "[170,4294967296]", 1)).unwrap_err();
        assert!(e.contains("ssrc"), "{e}");
    }

    #[test]
    fn impossible_type_counts_are_rejected() {
        let row = r#"["RTP",{"n":96,"t":"rtp"},1,1]"#;
        for (bad, what) in [
            (r#"["RTP",{"n":96,"t":"rtp"},0,0]"#, "need 1 <= messages"),
            (r#"["RTP",{"n":96,"t":"rtp"},1,2]"#, "compliant <= messages"),
            (r#"["RTP",{"n":96,"t":"rtp"},1]"#, "type count row"),
            (r#"["RTP",{"n":96,"t":"rtp"},1,1],["RTP",{"n":96,"t":"rtp"},3,3]"#, "duplicate type"),
        ] {
            let e = decode_edited(|t| t.replacen(row, bad, 1)).unwrap_err();
            assert!(e.contains(what), "{bad}: {e}");
        }
    }
}
