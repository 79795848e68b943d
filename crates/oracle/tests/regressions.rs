//! Named regression vectors for resolution-layer bugs, cross-checked
//! against the reference oracle.
//!
//! Each vector reproduces a historical misclassification in
//! `resolve_datagram` and pins two things at once: the production
//! classification (§4.1.2) and the reference checker's agreement on every
//! message the production DPI recovered from the datagram. The unit tests
//! in `rtc-dpi` pin the classification alone; these add the independent
//! oracle's opinion so a regression in either grammar is caught.

use bytes::Bytes;
use rtc_core::compliance::{check_message, context::CallContext};
use rtc_core::dpi::{dissect_call, CandidateKind, DatagramClass, DpiConfig};
use rtc_core::pcap::{trace::Datagram, Timestamp};
use rtc_core::wire::ip::FiveTuple;
use rtc_core::wire::rtcp::{build_bye, SenderReport};
use rtc_core::wire::rtp::PacketBuilder;
use rtc_core::wire::stun::{attr, msg_type, ChannelData, MessageBuilder};
use rtc_oracle::{refcheck, refdec, RefContextBuilder};

fn dgram(ts_ms: u64, payload: Vec<u8>) -> Datagram {
    Datagram {
        ts: Timestamp::from_millis(ts_ms),
        five_tuple: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap()),
        payload: Bytes::from(payload),
    }
}

fn sr(ssrc: u32) -> Vec<u8> {
    SenderReport { ssrc, ntp_timestamp: 1, rtp_timestamp: 2, packet_count: 3, octet_count: 4, reports: vec![] }
        .build()
}

/// RTP packets establishing `ssrc` on the test stream, so nested RTCP
/// cross-validates against a known sender.
fn rtp_preamble(ssrc: u32) -> Vec<Datagram> {
    (0..5u16).map(|i| dgram(i as u64, PacketBuilder::new(96, i, 0, ssrc).payload(vec![0; 40]).build())).collect()
}

/// Re-judge every message the production DPI recovered from `dgrams`
/// with the reference checker and demand identical type keys and
/// criterion indices. Mirrors the per-message sweep of `run_matrix`.
fn crosscheck(dgrams: &[Datagram], dissection: &rtc_core::dpi::CallDissection) {
    let prod_ctx = CallContext::build(dissection);
    let mut builder = RefContextBuilder::default();
    for (dg, msg) in dissection.messages() {
        if matches!(msg.kind, CandidateKind::Stun { .. }) {
            builder.observe(&format!("{:?}", dg.stream), &format!("{:?}", dg.stream.reversed()), &msg.data);
        }
    }
    let ref_ctx = builder.finish();
    assert_eq!(dissection.datagrams.len(), dgrams.len());
    for (dg, msg) in dissection.messages() {
        let orac = match &msg.kind {
            CandidateKind::Stun { .. } => refcheck::check_stun(&msg.data, &format!("{:?}", dg.stream), &ref_ctx),
            CandidateKind::ChannelData { .. } => refcheck::check_channeldata(&msg.data, dg.trailing.len()),
            CandidateKind::Rtp { .. } => refcheck::check_rtp(&msg.data),
            CandidateKind::Rtcp { .. } => refcheck::check_rtcp(&msg.data, dg.trailing.len()),
            CandidateKind::QuicLong { .. } => refcheck::check_quic_long(&msg.data),
            CandidateKind::QuicShortProbe => refcheck::check_quic_short(&msg.data),
        };
        let prod = check_message(dg, msg, &prod_ctx);
        assert_eq!(
            (prod.type_key.to_string(), prod.violation.as_ref().map(|v| v.criterion().index())),
            (orac.type_key.clone(), orac.criterion),
            "oracle disagrees on {:?} ({})",
            msg.kind,
            orac.detail.as_deref().unwrap_or("compliant"),
        );
    }
}

/// The container-gap vector: `resolve_datagram` historically classified a
/// ChannelData container with unclaimed bytes *between* nested messages
/// (or between the last nested message and the container end) as
/// `Standard`. §4.1.2 says proprietary framing inside standard containers
/// is `ProprietaryHeader`.
#[test]
fn container_gap_vector_is_proprietary_header_and_oracle_agrees() {
    let mut dgrams = rtp_preamble(0x7777);
    // [CD [SR] [4 junk] [SR] ]: gap between nested messages.
    let mut inner = sr(0x7777);
    inner.extend_from_slice(&[0x00, 0x01, 0x02, 0x03]);
    inner.extend_from_slice(&sr(0x7777));
    dgrams.push(dgram(100, ChannelData::build(0x4001, &inner)));
    // [CD [SR] [4 junk] ]: tail gap after the last nested message.
    let mut tail = sr(0x7777);
    tail.extend_from_slice(&[0x00, 0x01, 0x02, 0x03]);
    dgrams.push(dgram(101, ChannelData::build(0x4001, &tail)));

    let out = dissect_call(&dgrams, &DpiConfig::default());
    let mid = &out.datagrams[5];
    assert_eq!(mid.class, DatagramClass::ProprietaryHeader, "interior gap: {mid:?}");
    assert_eq!(mid.messages.iter().filter(|m| m.nested).count(), 2, "both nested SRs recovered");
    let end = &out.datagrams[6];
    assert_eq!(end.class, DatagramClass::ProprietaryHeader, "tail gap: {end:?}");

    // The reference decoder must also accept every recovered nested RTCP —
    // the gap is proprietary framing, not a decoder disagreement.
    for (_, msg) in out.messages() {
        if matches!(msg.kind, CandidateKind::Rtcp { .. }) {
            refdec::decode_rtcp(&msg.data).expect("reference decoder accepts recovered SR");
        }
    }
    crosscheck(&dgrams, &out);
}

/// Decode the `--replay` hex payload of a fuzz finding.
fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2));
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Every message the DPI recovered must be accepted by the independent
/// reference decoder — the invariant the datagram fuzz target enforces.
fn all_messages_ref_decode(out: &rtc_core::dpi::CallDissection) {
    for (_, msg) in out.messages() {
        let decoded = match &msg.kind {
            CandidateKind::Stun { .. } => refdec::decode_stun(&msg.data).map(drop),
            CandidateKind::ChannelData { .. } => refdec::decode_channeldata(&msg.data).map(drop),
            CandidateKind::Rtp { .. } => refdec::decode_rtp(&msg.data).map(drop),
            CandidateKind::Rtcp { .. } => refdec::decode_rtcp(&msg.data).map(drop),
            CandidateKind::QuicLong { .. } => refdec::decode_quic_long(&msg.data).map(drop),
            CandidateKind::QuicShortProbe => refdec::decode_quic_short(&msg.data, 0).map(drop),
        };
        decoded.unwrap_or_else(|e| panic!("reference decoder rejects recovered {:?}: {e}", msg.kind));
    }
}

/// The fuzz-found RTP-truncation vectors (`rtc-study fuzz --target
/// datagram`, seed 0x5EED_F077): the RTP-after-RTP truncation rule
/// (Zoom's double-RTP, §5.3) historically cut the previous packet at the
/// next candidate's offset checking only that a minimal header remained.
/// The original match was length-gated against the *full* tail, so the
/// cut could strand a padding trailer or a CSRC list past the new end —
/// and the DPI emitted an "RTP" message the reference decoder rejects.
/// The fix re-parses the truncated prefix and refuses the truncation when
/// it no longer stands alone as RTP.
#[test]
fn fuzz_rtp_truncation_blobs_stay_decodable() {
    // Minimized fuzzer inputs, verbatim. Historically diverged with
    // "padding count 18 is invalid for a 28-byte packet" and
    // "4 CSRCs overrun the 12-byte buffer" respectively.
    const STRANDED_PADDING: &str = "a442000004102112a442070707727463008028000480000400102112a442000400102112a4420707a442000004102112a44207078028000480002112a4420707a442000004102112a4420707070707070707802200037274630007070707802200037274630080280004f212a44207070707070707070707070780220003727463008028";
    const CSRC_OVERRUN: &str = "a442000004102112a44207070780228028000480000400102112a442000480000400102128000480000400102112a442000400102112a4420707a442000004102112a4420707a442000400102112a4420707a442000004102112a44207070707070707070707802200037274630080280004";
    for hex in [STRANDED_PADDING, CSRC_OVERRUN] {
        let dgrams = vec![dgram(0, unhex(hex))];
        let out = dissect_call(&dgrams, &DpiConfig::default());
        all_messages_ref_decode(&out);
    }
}

/// Constructive minimal repros of the two fuzz-found truncation classes.
/// In both, a validated RTP packet carries payload bytes that *look* like
/// another RTP header, so the resolver sees an overlapping RTP candidate
/// at offset 12 — but cutting the packet there would orphan its padding
/// trailer (first vector) or its CSRC list (second vector). The resolver
/// must keep the packet whole and drop the interior false positive.
#[test]
fn rtp_truncation_keeps_invalid_prefixes_whole() {
    let ssrc = 0x1111_1111;
    // Embedded lookalike: a plain 12-byte RTP header reusing the
    // validated SSRC, so the interior candidate passes stream validation.
    let lookalike = PacketBuilder::new(96, 99, 0, ssrc).build();

    // P bit set, 8 padding octets: truncating at offset 12 would leave a
    // 12-byte packet whose last byte (SSRC low byte 0x11 = 17) reads as a
    // padding count larger than the packet.
    let padded = PacketBuilder::new(96, 5, 0, ssrc).payload(lookalike.clone()).padding(8).build();

    // CC=1 (16-byte header) whose CSRC starts with 0x80 so offset 12 scans
    // as an RTP candidate: truncating there would leave a 12-byte packet
    // whose declared CSRC overruns it. The lookalike's SSRC field lands on
    // payload bytes 4..8.
    let mut tail = vec![0u8; 4];
    tail.extend_from_slice(&ssrc.to_be_bytes());
    let with_csrc = PacketBuilder::new(96, 6, 0, ssrc).csrc(0x8061_6263).payload(tail).build();

    for crafted in [padded, with_csrc] {
        let mut dgrams = rtp_preamble(ssrc);
        dgrams.push(dgram(100, crafted.clone()));
        let out = dissect_call(&dgrams, &DpiConfig::default());
        let last = out.datagrams.last().unwrap();
        assert_eq!(last.messages.len(), 1, "one whole RTP message, no bogus split: {last:?}");
        assert!(matches!(last.messages[0].kind, CandidateKind::Rtp { .. }), "{last:?}");
        assert_eq!(last.messages[0].data.len(), crafted.len(), "message spans the whole packet");
        all_messages_ref_decode(&out);
        crosscheck(&dgrams, &out);
    }
}

/// The compound-continuation vector: the historical rule consulted only
/// `accepted.last()`, so an RTCP packet continuing a compound whose
/// previous accepted entry was *nested* (inside a ChannelData or STUN DATA
/// container) was wrongly rejected.
#[test]
fn rtcp_after_container_vector_is_standard_and_oracle_agrees() {
    let mut dgrams = rtp_preamble(0x9999);
    // Nested compound: [CD [SR][BYE(foreign ssrc)] ].
    let mut compound = sr(0x9999);
    compound.extend_from_slice(&build_bye(&[0xABCD_EF01]));
    dgrams.push(dgram(100, ChannelData::build(0x4001, &compound)));
    // After-container compound: [STUN(DATA=[SR])][BYE(foreign ssrc)].
    let mut after = MessageBuilder::new(msg_type::DATA_INDICATION, [3; 12]).attribute(attr::DATA, sr(0x9999)).build();
    after.extend_from_slice(&build_bye(&[0xABCD_EF01]));
    dgrams.push(dgram(101, after));

    let out = dissect_call(&dgrams, &DpiConfig::default());
    let nested = &out.datagrams[5];
    assert_eq!(nested.class, DatagramClass::Standard, "nested compound: {nested:?}");
    assert_eq!(nested.messages.len(), 3, "CD + SR + BYE");
    let tail = &out.datagrams[6];
    assert_eq!(tail.class, DatagramClass::Standard, "after-container compound: {tail:?}");
    assert_eq!(tail.messages.len(), 3, "STUN + nested SR + top-level BYE");
    assert!(!tail.messages[2].nested, "BYE after the container is top-level");

    crosscheck(&dgrams, &out);
}
