//! Mutation coverage for the five-criterion checker: for every protocol ×
//! criterion cell that *can* fire, a vector that violates exactly that
//! criterion (asserting the precise `Violation`), together with a repaired
//! variant that passes cleanly — proving the vector isolates the one rule
//! it targets and the checker stops at the first failing criterion.
//!
//! Cells that cannot fire are structural, not omissions, and are asserted
//! as such at the bottom:
//!
//! * **RTP / criterion 1** — every 7-bit payload type is representable and
//!   the paper counts all of them as defined (Table 5).
//! * **RTP / criteria 2 & 5** — the checked parse guarantees the header
//!   invariants (criterion 2 fires only for unparseable bytes) and RTP has
//!   no trailer/ordering semantics for criterion 5.
//! * **ChannelData / criteria 1, 3, 4, 5** — the frame is one type with no
//!   attributes; only the header rules (criterion 2) exist.
//! * **QUIC / criteria 1, 3, 4, 5** — payloads are encrypted; only the
//!   header invariants (criterion 2) are observable.

use bytes::Bytes;
use rtc_compliance::context::CallContext;
use rtc_compliance::{check_message, Criterion, TypeKey, Violation};
use rtc_dpi::{CandidateKind, DatagramClass, DatagramDissection, DpiMessage, Protocol};
use rtc_pcap::Timestamp;
use rtc_wire::ip::FiveTuple;
use rtc_wire::quic::{LongHeader, LongType, ShortHeader, VERSION_1};
use rtc_wire::rtcp::{self, Sdes, SdesChunk, SenderReport};
use rtc_wire::rtp::{PacketBuilder, ONE_BYTE_PROFILE};
use rtc_wire::stun::{attr, msg_type, ChannelData, MessageBuilder};

fn stream() -> FiveTuple {
    FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap())
}

fn judge(
    protocol: Protocol,
    kind: CandidateKind,
    data: Vec<u8>,
    trailing: Vec<u8>,
    ctx: &CallContext,
) -> (TypeKey, Option<Violation>) {
    let msg = DpiMessage { protocol, kind, offset: 0, data: Bytes::from(data), nested: false };
    let dgram = DatagramDissection {
        ts: Timestamp::ZERO,
        stream: stream(),
        payload_len: msg.data.len(),
        messages: vec![],
        prefix: Bytes::new(),
        trailing: Bytes::from(trailing),
        class: DatagramClass::Standard,
        prop_header_len: 0,
    };
    let checked = check_message(&dgram, &msg, ctx);
    (checked.type_key, checked.violation)
}

fn judge_stun(data: Vec<u8>, ctx: &CallContext) -> (TypeKey, Option<Violation>) {
    judge(Protocol::StunTurn, CandidateKind::Stun { message_type: 0, modern: true }, data, vec![], ctx)
}

fn judge_rtp(data: Vec<u8>) -> (TypeKey, Option<Violation>) {
    judge(
        Protocol::Rtp,
        CandidateKind::Rtp { ssrc: 1, payload_type: 96, seq: 0 },
        data,
        vec![],
        &CallContext::default(),
    )
}

fn judge_rtcp(data: Vec<u8>, trailing: Vec<u8>) -> (TypeKey, Option<Violation>) {
    let kind = CandidateKind::Rtcp { packet_type: data[1], count: data[0] & 0x1F };
    judge(Protocol::Rtcp, kind, data, trailing, &CallContext::default())
}

fn assert_fails(cell: &str, got: Option<Violation>, want: Criterion) {
    let v = got.unwrap_or_else(|| panic!("{cell}: expected a violation of criterion {}", want.index()));
    assert_eq!(v.criterion(), want, "{cell}: wrong criterion ({}): {v}", v.criterion().index());
}

fn assert_passes(cell: &str, got: Option<Violation>) {
    assert!(got.is_none(), "{cell}: repaired vector still violates: {:?}", got.unwrap());
}

fn sample_sr() -> Vec<u8> {
    SenderReport { ssrc: 7, ntp_timestamp: 1, rtp_timestamp: 2, packet_count: 3, octet_count: 4, reports: vec![] }
        .build()
}

// ---------------------------------------------------------------- STUN ----

#[test]
fn stun_criterion_1_undefined_message_type() {
    let ctx = CallContext::default();
    let (key, v) = judge_stun(MessageBuilder::new(0x0FFD, [9; 12]).build(), &ctx);
    assert_eq!(key, TypeKey::Stun(0x0FFD));
    assert_fails("stun/c1", v, Criterion::MessageTypeDefined);
    // Repair: the same shape with a defined type.
    let (_, v) = judge_stun(MessageBuilder::new(msg_type::BINDING_REQUEST, [9; 12]).build(), &ctx);
    assert_passes("stun/c1 repaired", v);
}

#[test]
fn stun_criterion_2_sequential_transaction_ids() {
    let txid = [7u8; 12];
    let bytes = MessageBuilder::new(msg_type::BINDING_REQUEST, txid).build();
    let mut ctx = CallContext::default();
    ctx.sequential_txids.insert((stream(), txid));
    let (_, v) = judge_stun(bytes.clone(), &ctx);
    assert_fails("stun/c2", v, Criterion::HeaderFieldsValid);
    // Repair: the identical message outside a sequential-ID run.
    let (_, v) = judge_stun(bytes, &CallContext::default());
    assert_passes("stun/c2 repaired", v);
}

#[test]
fn stun_criterion_3_undefined_attribute_type() {
    let ctx = CallContext::default();
    let (_, v) = judge_stun(
        MessageBuilder::new(msg_type::BINDING_REQUEST, [3; 12]).attribute(0x3FFB, vec![1, 2, 3, 4]).build(),
        &ctx,
    );
    assert_fails("stun/c3", v, Criterion::AttributeTypesDefined);
    // Repair: same value bytes under a defined attribute type.
    let (_, v) = judge_stun(
        MessageBuilder::new(msg_type::BINDING_REQUEST, [3; 12]).attribute(attr::PRIORITY, vec![1, 2, 3, 4]).build(),
        &ctx,
    );
    assert_passes("stun/c3 repaired", v);
}

#[test]
fn stun_criterion_4_fingerprint_crc_mismatch() {
    let ctx = CallContext::default();
    let good = MessageBuilder::new(msg_type::BINDING_REQUEST, [4; 12])
        .attribute(attr::PRIORITY, vec![0, 0, 1, 0])
        .build_with_fingerprint();
    let mut bad = good.clone();
    let n = bad.len();
    bad[n - 1] ^= 0x01; // single-bit mutation of the CRC
    let (_, v) = judge_stun(bad, &ctx);
    assert_fails("stun/c4", v, Criterion::AttributeValuesValid);
    let (_, v) = judge_stun(good, &ctx);
    assert_passes("stun/c4 repaired", v);
}

#[test]
fn stun_criterion_5_missing_required_attribute() {
    let ctx = CallContext::default();
    let (_, v) = judge_stun(MessageBuilder::new(msg_type::ALLOCATE_REQUEST, [5; 12]).build(), &ctx);
    assert_fails("stun/c5", v, Criterion::SyntaxSemanticIntegrity);
    // Repair: supply the REQUESTED-TRANSPORT (UDP) the type requires.
    let (_, v) = judge_stun(
        MessageBuilder::new(msg_type::ALLOCATE_REQUEST, [5; 12])
            .attribute(attr::REQUESTED_TRANSPORT, vec![17, 0, 0, 0])
            .build(),
        &ctx,
    );
    assert_passes("stun/c5 repaired", v);
}

// --------------------------------------------------------- ChannelData ----

#[test]
fn channeldata_criterion_2_channel_number_out_of_range() {
    let ctx = CallContext::default();
    let judge_cd = |channel: u16, trailing: Vec<u8>| {
        judge(
            Protocol::StunTurn,
            CandidateKind::ChannelData { channel },
            ChannelData::build(channel, b"abcd"),
            trailing,
            &ctx,
        )
    };
    let (key, v) = judge_cd(0x6000, vec![]);
    assert_eq!(key, TypeKey::ChannelData);
    assert_fails("channeldata/c2 range", v, Criterion::HeaderFieldsValid);
    // A second header rule in the same cell: unexplained bytes after the
    // declared length (no padding over UDP, RFC 8656 §12.5).
    let (_, v) = judge_cd(0x4001, vec![0xAA; 2]);
    assert_fails("channeldata/c2 length", v, Criterion::HeaderFieldsValid);
    let (_, v) = judge_cd(0x4001, vec![]);
    assert_passes("channeldata/c2 repaired", v);
}

// ----------------------------------------------------------------- RTP ----

#[test]
fn rtp_criterion_2_unparseable_header() {
    // The DPI only emits parseable candidates; the checker still guards by
    // judging the raw bytes — a truncated header is a criterion-2 failure.
    let (_, v) = judge_rtp(vec![0x80, 96, 0]);
    assert_fails("rtp/c2", v, Criterion::HeaderFieldsValid);
    let (_, v) = judge_rtp(PacketBuilder::new(96, 1, 2, 3).payload(vec![0; 20]).build());
    assert_passes("rtp/c2 repaired", v);
}

#[test]
fn rtp_criterion_3_undefined_extension_profile() {
    // FaceTime's proprietary 0x8D00 profile (paper §5.2.2).
    let (_, v) =
        judge_rtp(PacketBuilder::new(104, 1, 2, 3).extension(0x8D00, vec![1, 2, 3, 4]).payload(vec![0; 20]).build());
    assert_fails("rtp/c3", v, Criterion::AttributeTypesDefined);
    let (_, v) =
        judge_rtp(PacketBuilder::new(104, 1, 2, 3).one_byte_extension(&[(1, &[0x30])]).payload(vec![0; 20]).build());
    assert_passes("rtp/c3 repaired", v);
}

#[test]
fn rtp_criterion_4_reserved_extension_id_zero() {
    // Discord's ID-0 element with a non-zero length nibble (paper §5.2.2).
    let (_, v) = judge_rtp(
        PacketBuilder::new(120, 1, 2, 3).extension(ONE_BYTE_PROFILE, vec![0x02, 7, 8, 9]).payload(vec![0; 4]).build(),
    );
    assert_fails("rtp/c4", v, Criterion::AttributeValuesValid);
    // Repair: the same element under its defined ID 2.
    let (_, v) = judge_rtp(
        PacketBuilder::new(120, 1, 2, 3).one_byte_extension(&[(2, &[7, 8, 9])]).payload(vec![0; 4]).build(),
    );
    assert_passes("rtp/c4 repaired", v);
}

// ---------------------------------------------------------------- RTCP ----

#[test]
fn rtcp_criterion_1_undefined_packet_type() {
    let (key, v) = judge_rtcp(rtcp::build_raw(0, 210, &[0, 0, 0, 7]), vec![]);
    assert_eq!(key, TypeKey::Rtcp(210));
    assert_fails("rtcp/c1", v, Criterion::MessageTypeDefined);
    let (_, v) = judge_rtcp(sample_sr(), vec![]);
    assert_passes("rtcp/c1 repaired", v);
}

#[test]
fn rtcp_criterion_2_count_exceeds_length() {
    // An RR claiming two report blocks but carrying none.
    let (_, v) = judge_rtcp(rtcp::build_raw(2, 201, &[0, 0, 0, 7]), vec![]);
    assert_fails("rtcp/c2", v, Criterion::HeaderFieldsValid);
    let (_, v) = judge_rtcp(rtcp::build_raw(0, 201, &[0, 0, 0, 7]), vec![]);
    assert_passes("rtcp/c2 repaired", v);
}

#[test]
fn rtcp_criterion_3_undefined_sdes_item() {
    let bad = Sdes { chunks: vec![SdesChunk { ssrc: 7, items: vec![(42, b"x".to_vec())] }] }.build();
    let (_, v) = judge_rtcp(bad, vec![]);
    assert_fails("rtcp/c3", v, Criterion::AttributeTypesDefined);
    // Repair: the same chunk as a defined CNAME item (type 1).
    let good = Sdes { chunks: vec![SdesChunk { ssrc: 7, items: vec![(1, b"x".to_vec())] }] }.build();
    let (_, v) = judge_rtcp(good, vec![]);
    assert_passes("rtcp/c3 repaired", v);
}

#[test]
fn rtcp_criterion_4_app_name_not_ascii() {
    let bad = rtcp::App { subtype: 1, ssrc: 7, name: [0xFF, b'a', b'b', b'c'], data: vec![] }.build();
    let (_, v) = judge_rtcp(bad, vec![]);
    assert_fails("rtcp/c4", v, Criterion::AttributeValuesValid);
    let good = rtcp::App { subtype: 1, ssrc: 7, name: *b"name", data: vec![] }.build();
    let (_, v) = judge_rtcp(good, vec![]);
    assert_passes("rtcp/c4 repaired", v);
}

#[test]
fn rtcp_criterion_4_srtcp_trailer_without_auth_tag() {
    // A 4-byte trailer is an SRTCP index with no authentication tag —
    // Google Meet's relayed-Wi-Fi violation (paper §5.2.3).
    let trailer = rtcp::SrtcpTrailer { encrypted: true, index: 9, auth_tag_len: 0 }.build(1);
    let (_, v) = judge_rtcp(sample_sr(), trailer);
    assert_fails("rtcp/c4 srtcp", v, Criterion::AttributeValuesValid);
    // Repair: the same trailer with the default HMAC-SHA1-80 tag.
    let trailer = rtcp::SrtcpTrailer { encrypted: true, index: 9, auth_tag_len: 10 }.build(1);
    let (_, v) = judge_rtcp(sample_sr(), trailer);
    assert_passes("rtcp/c4 srtcp repaired", v);
}

#[test]
fn rtcp_criterion_5_undefined_trailing_bytes() {
    // Discord's 3-byte counter + direction trailer (paper §5.2.3).
    let (_, v) = judge_rtcp(sample_sr(), vec![0, 1, 0xAA]);
    assert_fails("rtcp/c5", v, Criterion::SyntaxSemanticIntegrity);
    let (_, v) = judge_rtcp(sample_sr(), vec![]);
    assert_passes("rtcp/c5 repaired", v);
}

// ---------------------------------------------------------------- QUIC ----

#[test]
fn quic_long_criterion_2_fixed_bit_cleared() {
    let header = |fixed_bit: bool| LongHeader {
        fixed_bit,
        long_type: LongType::Initial,
        type_specific: 0,
        version: VERSION_1,
        dcid: vec![1; 8],
        scid: vec![2; 8],
        header_len: 0,
    };
    let kind = CandidateKind::QuicLong { version: VERSION_1 };
    let ctx = CallContext::default();
    let (key, v) = judge(Protocol::Quic, kind, header(false).build(), vec![], &ctx);
    assert_eq!(key, TypeKey::QuicLong(0));
    assert_fails("quic-long/c2", v, Criterion::HeaderFieldsValid);
    let (_, v) = judge(Protocol::Quic, kind, header(true).build(), vec![], &ctx);
    assert_passes("quic-long/c2 repaired", v);
}

#[test]
fn quic_short_criterion_2_fixed_bit_cleared() {
    let bytes = |fixed_bit: bool| {
        let mut b = ShortHeader { fixed_bit, spin: false, dcid: vec![3; 8], header_len: 0 }.build();
        b.extend_from_slice(&[0; 20]);
        b
    };
    let ctx = CallContext::default();
    let (key, v) = judge(Protocol::Quic, CandidateKind::QuicShortProbe, bytes(false), vec![], &ctx);
    assert_eq!(key, TypeKey::QuicShort);
    assert_fails("quic-short/c2", v, Criterion::HeaderFieldsValid);
    let (_, v) = judge(Protocol::Quic, CandidateKind::QuicShortProbe, bytes(true), vec![], &ctx);
    assert_passes("quic-short/c2 repaired", v);
}

// ------------------------------------------------- structural non-cells ----

#[test]
fn rtp_criterion_1_cannot_fire_any_payload_type_is_defined() {
    for pt in 0u8..=127 {
        let (key, v) = judge_rtp(PacketBuilder::new(pt, 1, 2, 3).payload(vec![0; 20]).build());
        assert_eq!(key, TypeKey::Rtp(pt));
        assert!(v.is_none(), "payload type {pt} unexpectedly judged non-compliant: {v:?}");
    }
}

#[test]
fn rtp_criterion_5_has_no_rule_trailing_bytes_are_judged_elsewhere() {
    // Trailing datagram bytes belong to the RTCP/SRTP trailer taxonomy;
    // the RTP message itself stays compliant.
    let data = PacketBuilder::new(96, 1, 2, 3).payload(vec![0; 20]).build();
    let msg = DpiMessage {
        protocol: Protocol::Rtp,
        kind: CandidateKind::Rtp { ssrc: 3, payload_type: 96, seq: 1 },
        offset: 0,
        data: Bytes::from(data),
        nested: false,
    };
    let dgram = DatagramDissection {
        ts: Timestamp::ZERO,
        stream: stream(),
        payload_len: msg.data.len(),
        messages: vec![],
        prefix: Bytes::new(),
        trailing: Bytes::from(vec![1, 2, 3]),
        class: DatagramClass::Standard,
        prop_header_len: 0,
    };
    let checked = check_message(&dgram, &msg, &CallContext::default());
    assert!(checked.violation.is_none(), "{:?}", checked.violation);
}

#[test]
fn channeldata_has_only_header_rules() {
    // No attributes, one type key, encrypted payload: criteria 1/3/4/5
    // have nothing to inspect. A well-formed frame is fully compliant.
    let ctx = CallContext::default();
    let (key, v) = judge(
        Protocol::StunTurn,
        CandidateKind::ChannelData { channel: 0x4ABC },
        ChannelData::build(0x4ABC, &[9; 32]),
        vec![],
        &ctx,
    );
    assert_eq!(key, TypeKey::ChannelData);
    assert!(v.is_none(), "{v:?}");
}
