//! Property tests of the checkpoint state encoding (`rtc_report::state`):
//! for *any* aggregator contents and *any* shard split, serializing each
//! shard's partial aggregation to checkpoint JSON, deserializing it back,
//! and merging equals the purely in-memory merge — and a resumed partial
//! (checkpoint round-trip mid-stream) plus the remainder equals the
//! unsplit run. The calls absorbed are full `CallRecord`s with judged
//! messages; what crosses the checkpoint is their per-type counts, which
//! must add up to exactly those messages.

use rtc_compliance::findings::{Finding, FindingKind};
use rtc_compliance::{CheckedCall, CheckedMessage, Rule, TypeKey, Violation};
use rtc_conformance::{check_cases, SplitMix64};
use rtc_dpi::Protocol;
use rtc_report::{Aggregator, CallRecord, StudyData, TypeCount};
use std::collections::{BTreeMap, BTreeSet};

const APPS: [&str; 4] = ["Zoom", "Discord", "FaceTime", "Messenger"];
const NETWORKS: [&str; 3] = ["wifi-p2p", "cellular", "wifi-sfu"];
const DETAILS: [&str; 4] = ["", "unknown attribute", "padding bit set", "reserved value"];

fn arb_type_key(rng: &mut SplitMix64) -> TypeKey {
    let k = rng.in_range(0usize..6);
    let n = rng.next_u64() as u16;
    match k {
        0 => TypeKey::Stun(n),
        1 => TypeKey::ChannelData,
        2 => TypeKey::Rtp(n as u8),
        3 => TypeKey::Rtcp(n as u8),
        4 => TypeKey::QuicLong((n % 4) as u8),
        _ => TypeKey::QuicShort,
    }
}

/// A judged message. Only its protocol, type and verdict reach the
/// checkpoint; the datagram index and the violation's operand vary so
/// that duplicates of one type are distinct messages.
fn arb_message(rng: &mut SplitMix64) -> CheckedMessage {
    let protocol = rng.in_range(0usize..4);
    let type_key = arb_type_key(rng);
    let datagram = rng.in_range(0u32..10_000_000);
    let trailing = rng.next_u64() as u16;
    let compliant = rng.below(2) == 1;
    CheckedMessage {
        protocol: [Protocol::StunTurn, Protocol::Rtp, Protocol::Rtcp, Protocol::Quic][protocol],
        type_key,
        datagram,
        violation: (!compliant).then(|| Violation::new(Rule::ChannelDataTrailing).with_n(trailing.into())),
    }
}

fn arb_finding(rng: &mut SplitMix64) -> Finding {
    let kind = rng.in_range(0usize..5);
    let count = rng.in_range(1usize..1000);
    let detail = rng.in_range(0..DETAILS.len());
    Finding {
        kind: [
            FindingKind::FillerDatagrams,
            FindingKind::DoubleRtpDatagrams,
            FindingKind::ZeroSenderSsrc,
            FindingKind::DirectionTrailer,
            FindingKind::ProprietaryKeepalives,
        ][kind],
        count,
        detail: DETAILS[detail].to_string(),
    }
}

/// Everything `Aggregator::absorb_call` takes for one call. The repeat
/// index is assigned at absorption time so every generated call has a
/// unique `(app, network, repeat)` coordinate, as real campaigns do.
#[derive(Debug, Clone)]
struct GenCall {
    app: &'static str,
    network: &'static str,
    messages: Vec<CheckedMessage>,
    fully: usize,
    findings: Vec<Finding>,
    profiles: Vec<String>,
    ssrcs: BTreeSet<u32>,
}

fn arb_call(rng: &mut SplitMix64) -> GenCall {
    let app = rng.in_range(0..APPS.len());
    let network = rng.in_range(0..NETWORKS.len());
    let messages = (0..rng.in_range(0..12)).map(|_| arb_message(rng)).collect();
    let fully = rng.in_range(0usize..40);
    let findings = (0..rng.in_range(0..3)).map(|_| arb_finding(rng)).collect();
    let profiles = (0..rng.in_range(0..3))
        .map(|_| {
            let c = (b'a' + rng.in_range(0u8..26)) as char;
            std::iter::repeat_n(c, rng.in_range(1usize..9)).collect()
        })
        .collect();
    let ssrcs = (0..rng.in_range(0..4)).map(|_| rng.next_u64() as u32).collect();
    GenCall { app: APPS[app], network: NETWORKS[network], messages, fully, findings, profiles, ssrcs }
}

fn arb_calls(rng: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<GenCall> {
    (0..rng.in_range(len)).map(|_| arb_call(rng)).collect()
}

fn absorb(agg: &mut Aggregator, call: &GenCall, repeat: usize) {
    let record = CallRecord {
        app: call.app.to_string(),
        network: call.network.to_string(),
        repeat,
        raw_bytes: 1000 + repeat,
        raw: Default::default(),
        stage1: Default::default(),
        stage2: Default::default(),
        rtc: Default::default(),
        classes: (call.messages.len(), 2, call.fully),
        checked: CheckedCall { messages: call.messages.clone(), fully_proprietary_datagrams: call.fully },
        rejections: BTreeMap::from([("stun: truncated".to_string(), call.fully)]),
    };
    agg.absorb_call(record, &call.findings, &call.profiles, call.ssrcs.clone());
}

/// Serialize → string → parse → deserialize, the exact path a checkpoint
/// file takes through disk.
fn through_checkpoint(agg: &Aggregator) -> Aggregator {
    let text = serde_json::to_string(&agg.to_state_value()).expect("serialize state");
    let v: serde_json::Value = serde_json::from_str(&text).expect("parse state");
    Aggregator::from_state_value(&v).expect("deserialize state")
}

/// Each generated call's messages folded by hand into per-type counts.
fn expected_types(call: &GenCall) -> BTreeMap<(Protocol, TypeKey), TypeCount> {
    let mut types: BTreeMap<_, TypeCount> = BTreeMap::new();
    for m in &call.messages {
        let n = types.entry((m.protocol, m.type_key)).or_default();
        n.messages += 1;
        n.compliant += m.violation.is_none() as usize;
    }
    types
}

type Canonical = (StudyData, BTreeMap<String, Vec<Finding>>, BTreeMap<String, Vec<String>>);

fn canonical(agg: Aggregator) -> Canonical {
    let report = agg.finish();
    (report.data, report.findings, report.header_profiles)
}

/// Cases per property.
const CASES: u32 = 48;

/// Checkpoint serialize → deserialize → merge over a random shard
/// split equals the in-memory merge of the same shards — snapshot for
/// snapshot and finished report for finished report.
#[test]
fn checkpointed_shard_merge_equals_in_memory() {
    check_cases("checkpointed_shard_merge_equals_in_memory", CASES, |rng| {
        let calls = arb_calls(rng, 1..12);
        let shards = rng.in_range(1usize..5);
        let mut partials: Vec<Aggregator> = (0..shards).map(|_| Aggregator::new()).collect();
        for (i, call) in calls.iter().enumerate() {
            absorb(&mut partials[i % shards], call, i);
        }

        let mut in_memory = Aggregator::new();
        for p in &partials {
            in_memory.merge(p.clone());
        }
        let mut via_checkpoint = Aggregator::new();
        for p in &partials {
            via_checkpoint.merge(through_checkpoint(p));
        }

        assert_eq!(via_checkpoint.snapshot(), in_memory.snapshot());
        assert_eq!(canonical(via_checkpoint), canonical(in_memory));
    });
}

/// The counts a checkpoint carries are exactly the absorbed calls'
/// messages folded per `(protocol, type)`: every message counted once,
/// every non-compliant one left out of `compliant`, no empty rows.
#[test]
fn checkpointed_counts_equal_the_absorbed_messages() {
    check_cases("checkpointed_counts_equal_the_absorbed_messages", CASES, |rng| {
        let calls = arb_calls(rng, 1..8);
        let mut agg = Aggregator::new();
        for (i, call) in calls.iter().enumerate() {
            absorb(&mut agg, call, i);
        }
        let restored = through_checkpoint(&agg).snapshot();
        assert_eq!(restored.calls.len(), calls.len());
        for (summary, call) in restored.calls.iter().zip(&calls) {
            assert_eq!(&summary.types, &expected_types(call));
            assert_eq!(summary.fully_proprietary_datagrams, call.fully);
        }
    });
}

/// A shard that checkpoints mid-stream, resumes from the deserialized
/// state, and absorbs the remainder ends up exactly where the
/// never-interrupted shard does.
#[test]
fn resumed_partial_plus_remainder_equals_unsplit() {
    check_cases("resumed_partial_plus_remainder_equals_unsplit", CASES, |rng| {
        let calls = arb_calls(rng, 2..12);
        let cut = 1 + (rng.next_u64() as usize) % (calls.len() - 1);

        let mut unsplit = Aggregator::new();
        for (i, call) in calls.iter().enumerate() {
            absorb(&mut unsplit, call, i);
        }

        let mut partial = Aggregator::new();
        for (i, call) in calls[..cut].iter().enumerate() {
            absorb(&mut partial, call, i);
        }
        let mut resumed = through_checkpoint(&partial);
        for (i, call) in calls[cut..].iter().enumerate() {
            absorb(&mut resumed, call, cut + i);
        }

        assert_eq!(resumed.snapshot(), unsplit.snapshot());
        assert_eq!(canonical(resumed), canonical(unsplit));
    });
}
