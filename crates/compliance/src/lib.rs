//! # rtc-compliance
//!
//! The paper's compliance-assessment methodology (§4.2): every message the
//! DPI extracted is judged against its protocol specification through five
//! criteria, evaluated **strictly in order** — the first failure classifies
//! the message as non-compliant and later criteria are not evaluated
//! ("this ensures reliability by avoiding cascading evaluation errors"):
//!
//! 1. [`Criterion::MessageTypeDefined`] — the message type exists in the
//!    protocol's specifications (any published RFC version counts, plus
//!    publicly documented WebRTC extensions such as GOOG-PING),
//! 2. [`Criterion::HeaderFieldsValid`] — header fields carry representable,
//!    self-consistent values (including contextual transaction-ID
//!    randomness: sequential IDs violate RFC 8489 §6),
//! 3. [`Criterion::AttributeTypesDefined`] — every TLV attribute /
//!    extension-profile identifier is defined,
//! 4. [`Criterion::AttributeValuesValid`] — attribute values obey their
//!    prescribed length, range and shape,
//! 5. [`Criterion::SyntaxSemanticIntegrity`] — message-level and
//!    stream-level semantics: allowed/required attribute sets, response
//!    pairing, retransmission behavior, Allocate ping-pong misuse, SRTCP
//!    trailer requirements.
//!
//! The checker consumes a [`rtc_dpi::CallDissection`] and produces one
//! [`CheckedMessage`] per extracted message; aggregation into the paper's
//! two metrics (volume-based and message-type-based) lives in `rtc-report`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod findings;
pub mod quic;
pub mod registry;
pub mod rtcp;
pub mod rtp;
pub mod rule;
pub mod stun;

pub use rule::Rule;

use rtc_dpi::{CallDissection, CandidateKind, Protocol};
use rtc_wire::WireError;
use std::collections::BTreeMap;

/// The five criteria, in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Criterion {
    /// 1 — the message type is defined in the specifications.
    MessageTypeDefined,
    /// 2 — header fields are valid.
    HeaderFieldsValid,
    /// 3 — all attribute types are defined.
    AttributeTypesDefined,
    /// 4 — attribute values are valid.
    AttributeValuesValid,
    /// 5 — syntax and semantic integrity.
    SyntaxSemanticIntegrity,
}

impl Criterion {
    /// 1-based index as used in the paper.
    pub fn index(self) -> u8 {
        match self {
            Criterion::MessageTypeDefined => 1,
            Criterion::HeaderFieldsValid => 2,
            Criterion::AttributeTypesDefined => 3,
            Criterion::AttributeValuesValid => 4,
            Criterion::SyntaxSemanticIntegrity => 5,
        }
    }
}

/// A compliance violation: the rule the message broke and up to two
/// numeric operands for the explanation. It holds no text: `Display`
/// renders the explanation from these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The first rule the message broke; it fixes the criterion.
    pub rule: Rule,
    /// The message, attribute or packet type the rule names, or a small
    /// count; 0 when the rule takes none (see [`Rule`]).
    pub ty: u16,
    /// A length, a count or a second type; 0 when the rule takes none.
    pub n: u32,
    /// When the violation was a wire-grammar failure (the candidate no
    /// longer parsed at judgment time), the underlying parse error —
    /// carries protocol, offset, and reason for the report's taxonomy.
    pub wire: Option<WireError>,
}

/// Coverage probe on violation construction: one rtc-cov slot per failing
/// criterion, so the fuzzer distinguishes *which* of the five criteria an
/// input trips. Compiled out without the `cov-probes` feature.
#[inline]
fn cov_violation(criterion: Criterion) {
    #[cfg(feature = "cov-probes")]
    {
        match criterion {
            Criterion::MessageTypeDefined => rtc_cov::probe!("compliance.violation.c1"),
            Criterion::HeaderFieldsValid => rtc_cov::probe!("compliance.violation.c2"),
            Criterion::AttributeTypesDefined => rtc_cov::probe!("compliance.violation.c3"),
            Criterion::AttributeValuesValid => rtc_cov::probe!("compliance.violation.c4"),
            Criterion::SyntaxSemanticIntegrity => rtc_cov::probe!("compliance.violation.c5"),
        }
    }
    #[cfg(not(feature = "cov-probes"))]
    {
        let _ = criterion;
    }
}

impl Violation {
    /// A violation of `rule`, with no operands.
    pub fn new(rule: Rule) -> Violation {
        cov_violation(rule.criterion());
        Violation { rule, ty: 0, n: 0, wire: None }
    }

    /// Set the type operand.
    pub fn with_ty(self, ty: u16) -> Violation {
        Violation { ty, ..self }
    }

    /// Set the length/count operand.
    pub fn with_n(self, n: u32) -> Violation {
        Violation { n, ..self }
    }

    /// Construct a violation from a wire-level parse error.
    pub fn from_wire(rule: Rule, error: WireError) -> Violation {
        Violation { wire: Some(error), ..Violation::new(rule) }
    }

    /// The first criterion the message failed, read from the rule table.
    pub fn criterion(&self) -> Criterion {
        self.rule.criterion()
    }
}

/// The unit of the message-type-based metric: one row of Tables 4/5/6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeKey {
    /// A STUN/TURN message type (raw 16-bit value).
    Stun(u16),
    /// A TURN ChannelData frame (the tables list it as one type).
    ChannelData,
    /// An RTP payload type.
    Rtp(u8),
    /// An RTCP packet type.
    Rtcp(u8),
    /// A QUIC long-header packet type (0–3).
    QuicLong(u8),
    /// A QUIC short-header packet.
    QuicShort,
}

impl core::fmt::Display for TypeKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TypeKey::Stun(t) => write!(f, "{t:#06x}"),
            TypeKey::ChannelData => write!(f, "ChannelData"),
            TypeKey::Rtp(pt) => write!(f, "{pt}"),
            TypeKey::Rtcp(pt) => write!(f, "{pt}"),
            TypeKey::QuicLong(t) => write!(f, "long-{t}"),
            TypeKey::QuicShort => write!(f, "short"),
        }
    }
}

/// One judged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedMessage {
    /// Protocol family.
    pub protocol: Protocol,
    /// Type key for the message-type metric.
    pub type_key: TypeKey,
    /// Index of the carrying datagram in the call's
    /// [`CallDissection::datagrams`], where its capture time and stream
    /// are. [`check_call`] sets it; [`check_message`], which sees one
    /// datagram, leaves [`CheckedMessage::UNPLACED`].
    pub datagram: u32,
    /// `None` = compliant; otherwise the first violated rule.
    pub violation: Option<Violation>,
}

// A long call holds one of these per message, so their size is its
// compliance working set.
const _: () = assert!(core::mem::size_of::<Violation>() <= 40);
const _: () = assert!(core::mem::size_of::<CheckedMessage>() <= 64);

impl CheckedMessage {
    /// The [`CheckedMessage::datagram`] of a message judged outside a
    /// dissection.
    pub const UNPLACED: u32 = u32::MAX;

    /// Whether the message satisfied all five criteria.
    pub fn is_compliant(&self) -> bool {
        self.violation.is_none()
    }
}

/// How many messages of one `(protocol, type)` a call carried, and how
/// many of them were compliant. A stored count always has `messages ≥ 1`
/// and `compliant ≤ messages`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeCount {
    /// Messages of this type.
    pub messages: usize,
    /// Of those, the compliant ones.
    pub compliant: usize,
}

/// All judged messages of one call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckedCall {
    /// One entry per DPI-extracted message, in capture order.
    pub messages: Vec<CheckedMessage>,
    /// Fully proprietary datagrams seen alongside (carried through for the
    /// distribution tables).
    pub fully_proprietary_datagrams: usize,
}

impl CheckedCall {
    /// Volume-based compliance ratio over these messages.
    pub fn volume_compliance(&self) -> f64 {
        if self.messages.is_empty() {
            return 1.0;
        }
        self.messages.iter().filter(|m| m.is_compliant()).count() as f64 / self.messages.len() as f64
    }

    /// The message-type tally: messages and compliant messages per
    /// `(protocol, type)`, the unit of Tables 4–6.
    pub fn type_counts(&self) -> BTreeMap<(Protocol, TypeKey), TypeCount> {
        let mut types: BTreeMap<(Protocol, TypeKey), TypeCount> = BTreeMap::new();
        for m in &self.messages {
            let c = types.entry((m.protocol, m.type_key)).or_default();
            c.messages += 1;
            c.compliant += m.is_compliant() as usize;
        }
        types
    }
}

/// Judge one DPI-extracted message against the five criteria. Allocates
/// nothing.
///
/// The per-message unit of [`check_call`], for callers that walk a
/// dissection themselves once the whole-call [`context::CallContext`] is
/// sealed. The result is [`CheckedMessage::UNPLACED`].
pub fn check_message(
    dgram: &rtc_dpi::DatagramDissection,
    msg: &rtc_dpi::DpiMessage,
    ctx: &context::CallContext,
) -> CheckedMessage {
    let (type_key, violation) = match &msg.kind {
        CandidateKind::Stun { .. } => stun::check_stun(dgram, msg, ctx),
        CandidateKind::ChannelData { .. } => stun::check_channeldata(dgram, msg),
        CandidateKind::Rtp { .. } => rtp::check_rtp(dgram, msg),
        CandidateKind::Rtcp { .. } => rtcp::check_rtcp(dgram, msg),
        CandidateKind::QuicLong { .. } | CandidateKind::QuicShortProbe => quic::check_quic(dgram, msg),
    };
    #[cfg(feature = "cov-probes")]
    {
        if violation.is_none() {
            match msg.protocol {
                Protocol::StunTurn => rtc_cov::probe!("compliance.ok.stun-turn"),
                Protocol::Rtp => rtc_cov::probe!("compliance.ok.rtp"),
                Protocol::Rtcp => rtc_cov::probe!("compliance.ok.rtcp"),
                Protocol::Quic => rtc_cov::probe!("compliance.ok.quic"),
            }
        }
    }
    CheckedMessage { protocol: msg.protocol, type_key, datagram: CheckedMessage::UNPLACED, violation }
}

/// Judge every message of a dissected call. Allocates only the call
/// context and the exactly sized output vector.
pub fn check_call(dissection: &CallDissection) -> CheckedCall {
    let ctx = context::CallContext::build(dissection);
    let mut messages = Vec::with_capacity(dissection.datagrams.iter().map(|d| d.messages.len()).sum());
    let mut fully_proprietary_datagrams = 0;
    for (i, dgram) in dissection.datagrams.iter().enumerate() {
        let datagram = u32::try_from(i).unwrap_or(CheckedMessage::UNPLACED);
        for msg in &dgram.messages {
            messages.push(CheckedMessage { datagram, ..check_message(dgram, msg, &ctx) });
        }
        fully_proprietary_datagrams += (dgram.class == rtc_dpi::DatagramClass::FullyProprietary) as usize;
    }
    CheckedCall { messages, fully_proprietary_datagrams }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rtc_dpi::{dissect_call, DpiConfig};
    use rtc_pcap::trace::Datagram;
    use rtc_pcap::Timestamp;
    use rtc_wire::ip::FiveTuple;
    use rtc_wire::rtp::PacketBuilder;
    use rtc_wire::stun::{attr, msg_type, MessageBuilder};

    fn dgram(ts_ms: u64, payload: Vec<u8>) -> Datagram {
        Datagram {
            ts: Timestamp::from_millis(ts_ms),
            five_tuple: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap()),
            payload: Bytes::from(payload),
        }
    }

    fn check(datagrams: Vec<Datagram>) -> CheckedCall {
        check_call(&dissect_call(&datagrams, &DpiConfig::default()))
    }

    #[test]
    fn compliant_binding_request_passes_all_criteria() {
        let txid: [u8; 12] = [3, 141, 59, 26, 214, 99, 7, 81, 180, 44, 12, 200];
        let msg = MessageBuilder::new(msg_type::BINDING_REQUEST, txid)
            .attribute(attr::PRIORITY, vec![0x6E, 0x00, 0x01, 0xFF])
            .build_with_fingerprint();
        let out = check(vec![dgram(0, msg)]);
        assert_eq!(out.messages.len(), 1);
        assert!(out.messages[0].is_compliant(), "{:?}", out.messages[0].violation);
        assert_eq!(out.messages[0].type_key, TypeKey::Stun(0x0001));
    }

    #[test]
    fn checked_messages_are_allocated_at_their_exact_count() {
        let mut datagrams: Vec<Datagram> = (0..7u16)
            .map(|i| dgram(i as u64 * 20, PacketBuilder::new(96, 100 + i, 0, 0x42).payload(vec![0; 40]).build()))
            .collect();
        datagrams.push(dgram(200, MessageBuilder::new(msg_type::BINDING_REQUEST, [9; 12]).build()));
        let out = check(datagrams);
        assert_eq!(out.messages.len(), 8);
        assert_eq!(out.messages.capacity(), out.messages.len());
        assert_eq!(out.messages.iter().map(|m| m.datagram).collect::<Vec<_>>(), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn undefined_type_fails_criterion_one() {
        let msg = MessageBuilder::new(0x0800, [9; 12]).attribute(attr::PRIORITY, vec![0, 0, 0, 1]).build();
        let out = check(vec![dgram(0, msg)]);
        let v = out.messages[0].violation.as_ref().unwrap();
        assert_eq!(v.criterion(), Criterion::MessageTypeDefined);
    }

    #[test]
    fn undefined_attribute_fails_criterion_three() {
        let msg = MessageBuilder::new(msg_type::BINDING_REQUEST, [9; 12]).attribute(0x4007, vec![1, 2]).build();
        let out = check(vec![dgram(0, msg)]);
        let v = out.messages[0].violation.as_ref().unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeTypesDefined);
        assert!(v.to_string().contains("0x4007"), "{v}");
    }

    #[test]
    fn bad_attribute_value_fails_criterion_four() {
        // RESERVATION-TOKEN must be exactly 8 bytes (the paper's example).
        let msg = MessageBuilder::new(msg_type::ALLOCATE_REQUEST, [9; 12])
            .attribute(attr::REQUESTED_TRANSPORT, vec![17, 0, 0, 0])
            .attribute(attr::RESERVATION_TOKEN, vec![1, 2, 3])
            .build();
        let out = check(vec![dgram(0, msg)]);
        let v = out.messages[0].violation.as_ref().unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeValuesValid);
    }

    #[test]
    fn evaluation_is_strictly_sequential() {
        // Undefined type AND undefined attribute: only criterion 1 reported.
        let msg = MessageBuilder::new(0x0805, [9; 12]).attribute(0x4007, vec![1]).build();
        let out = check(vec![dgram(0, msg)]);
        assert_eq!(out.messages[0].violation.as_ref().unwrap().criterion(), Criterion::MessageTypeDefined);
    }

    #[test]
    fn compliant_rtp_stream() {
        let d: Vec<Datagram> = (0..6)
            .map(|i| dgram(i * 20, PacketBuilder::new(111, 100 + i as u16, 0, 0xAA).payload(vec![0; 60]).build()))
            .collect();
        let out = check(d);
        assert_eq!(out.messages.len(), 6);
        assert!(out.messages.iter().all(|m| m.is_compliant()));
        assert!(out.messages.iter().all(|m| m.type_key == TypeKey::Rtp(111)));
        assert!((out.volume_compliance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn undefined_extension_profile_fails_criterion_three() {
        let d: Vec<Datagram> = (0..6)
            .map(|i| {
                dgram(
                    i * 20,
                    PacketBuilder::new(100, 100 + i as u16, 0, 0xAB)
                        .extension(0x8500, vec![1, 2, 3, 4])
                        .payload(vec![0; 60])
                        .build(),
                )
            })
            .collect();
        let out = check(d);
        for m in &out.messages {
            assert_eq!(m.violation.as_ref().unwrap().criterion(), Criterion::AttributeTypesDefined);
        }
    }

    #[test]
    fn reserved_id_zero_extension_fails_criterion_four() {
        let d: Vec<Datagram> = (0..6)
            .map(|i| {
                let mut ext = vec![0x02u8]; // id 0, len 2 → 3 data bytes
                ext.extend_from_slice(&[7, 8, 9]);
                dgram(
                    i * 20,
                    PacketBuilder::new(120, 100 + i as u16, 0, 0xAC)
                        .extension(rtc_wire::rtp::ONE_BYTE_PROFILE, ext)
                        .payload(vec![0; 60])
                        .build(),
                )
            })
            .collect();
        let out = check(d);
        for m in &out.messages {
            assert_eq!(m.violation.as_ref().unwrap().criterion(), Criterion::AttributeValuesValid);
        }
    }

    #[test]
    fn volume_compliance_counts() {
        let mut d: Vec<Datagram> = (0..6)
            .map(|i| dgram(i * 20, PacketBuilder::new(111, 100 + i as u16, 0, 0xAA).payload(vec![0; 60]).build()))
            .collect();
        d.push(dgram(200, MessageBuilder::new(0x0800, [9; 12]).build()));
        let out = check(d);
        assert_eq!(out.messages.len(), 7);
        assert!((out.volume_compliance() - 6.0 / 7.0).abs() < 1e-9);
    }
}
