//! The rule table: every rule reports the criterion its check always
//! reported and cites an RFC clause, and a violation renders the same
//! explanation text the checker used to build as a string at each check.

use rtc_compliance::registry::stun_attr_value_problem;
use rtc_compliance::{Criterion, Rule, Violation};
use rtc_wire::stun::attr;
use rtc_wire::{WireError, WireProtocol};

/// Each check's criterion, as the checker reported it before rules
/// existed.
const CRITERIA: &[(Rule, Criterion)] = {
    use Criterion::*;
    &[
        (Rule::StunUnparsed, HeaderFieldsValid),
        (Rule::StunTypeUndefined, MessageTypeDefined),
        (Rule::StunSequentialTxid, HeaderFieldsValid),
        (Rule::StunAttrUndefined, AttributeTypesDefined),
        (Rule::StunAttrLength, AttributeValuesValid),
        (Rule::StunChannelNumberLength, AttributeValuesValid),
        (Rule::StunChannelNumberRange, AttributeValuesValid),
        (Rule::StunTransportNotUdp, AttributeValuesValid),
        (Rule::StunRequestedFamily, AttributeValuesValid),
        (Rule::StunErrorCodeShort, AttributeValuesValid),
        (Rule::StunErrorCodeRange, AttributeValuesValid),
        (Rule::StunSha256Length, AttributeValuesValid),
        (Rule::StunUsernameLength, AttributeValuesValid),
        (Rule::StunTextLength, AttributeValuesValid),
        (Rule::StunAddressShort, AttributeValuesValid),
        (Rule::StunAddressLength, AttributeValuesValid),
        (Rule::StunAddressFamily, AttributeValuesValid),
        (Rule::StunFingerprintCrc, AttributeValuesValid),
        (Rule::StunFingerprintNotLast, SyntaxSemanticIntegrity),
        (Rule::StunAttrNotPermitted, SyntaxSemanticIntegrity),
        (Rule::StunRequiredAttrMissing, SyntaxSemanticIntegrity),
        (Rule::StunOverRetransmitted, SyntaxSemanticIntegrity),
        (Rule::StunAllocatePingPong, SyntaxSemanticIntegrity),
        (Rule::ChannelDataUnparsed, HeaderFieldsValid),
        (Rule::ChannelDataRange, HeaderFieldsValid),
        (Rule::ChannelDataTrailing, HeaderFieldsValid),
        (Rule::RtpUnparsed, HeaderFieldsValid),
        (Rule::RtpExtProfileUndefined, AttributeTypesDefined),
        (Rule::RtpExtReservedId, AttributeValuesValid),
        (Rule::RtpExtOneByteTruncated, AttributeValuesValid),
        (Rule::RtpExtTwoByteTruncated, AttributeValuesValid),
        (Rule::RtcpUnparsed, HeaderFieldsValid),
        (Rule::RtcpTypeUndefined, MessageTypeDefined),
        (Rule::RtcpCountLength, HeaderFieldsValid),
        (Rule::RtcpSdesItemUndefined, AttributeTypesDefined),
        (Rule::RtcpSdesWalk, AttributeValuesValid),
        (Rule::RtcpAppName, AttributeValuesValid),
        (Rule::RtcpRtpfbUndefined, AttributeTypesDefined),
        (Rule::RtcpPsfbUndefined, AttributeTypesDefined),
        (Rule::RtcpXrBlockUndefined, AttributeTypesDefined),
        (Rule::SrtcpNoAuthTag, AttributeValuesValid),
        (Rule::RtcpTrailerUndefined, SyntaxSemanticIntegrity),
        (Rule::QuicLongUnparsed, HeaderFieldsValid),
        (Rule::QuicLongFixedBit, HeaderFieldsValid),
        (Rule::QuicCidLength, HeaderFieldsValid),
        (Rule::QuicShortUnparsed, HeaderFieldsValid),
        (Rule::QuicShortFixedBit, HeaderFieldsValid),
        (Rule::NotQuic, HeaderFieldsValid),
    ]
};

#[test]
fn every_rule_keeps_its_criterion_and_cites_a_clause() {
    assert_eq!(CRITERIA.iter().map(|(r, _)| *r).collect::<Vec<_>>(), Rule::ALL, "one row per rule, in table order");
    for (rule, criterion) in CRITERIA {
        assert_eq!(rule.criterion(), *criterion, "{rule:?}");
        assert!(rule.clause().starts_with("RFC ") && rule.clause().len() > 6, "{rule:?}: {:?}", rule.clause());
        let v = Violation::new(*rule);
        assert_eq!(v.criterion(), *criterion, "{rule:?}");
    }
}

/// The violation `check_stun` reports for one attribute value.
fn value_violation(attr_type: u16, value: &[u8]) -> Violation {
    let p = stun_attr_value_problem(attr_type, value).expect("an invalid value");
    Violation::new(p.rule).with_ty(attr_type).with_n(p.n)
}

#[test]
fn display_reproduces_each_former_detail_string() {
    let v = |rule| Violation::new(rule);
    let cases: Vec<(Violation, &str)> = vec![
        // STUN message checks.
        (
            v(Rule::StunTypeUndefined).with_ty(0x0800),
            "message type 0x0800 is not defined in any STUN/TURN specification",
        ),
        (v(Rule::StunSequentialTxid), "transaction IDs are sequential rather than randomly generated"),
        (v(Rule::StunAttrUndefined).with_ty(0x4007), "attribute type 0x4007 is not defined in any specification"),
        (v(Rule::StunFingerprintCrc), "FINGERPRINT CRC-32 does not match the message contents"),
        (v(Rule::StunFingerprintNotLast), "FINGERPRINT is not the final attribute"),
        (
            v(Rule::StunAttrNotPermitted).with_ty(attr::CHANNEL_NUMBER).with_n(0x0017),
            "attribute 0x000c is not permitted in message type 0x0017",
        ),
        (
            v(Rule::StunRequiredAttrMissing).with_ty(attr::REQUESTED_TRANSPORT).with_n(0x0003),
            "required attribute 0x0019 missing from message type 0x0003",
        ),
        (v(Rule::StunOverRetransmitted), "request retransmitted beyond the RFC 8489 budget with no response"),
        (v(Rule::StunAllocatePingPong), "Allocate Requests repurposed as periodic connectivity checks"),
        // STUN attribute values, through the registry.
        (value_violation(attr::LIFETIME, &[0; 3]), "attribute 0x000d: expected 4 bytes, got 3"),
        (value_violation(attr::MESSAGE_INTEGRITY, &[0; 300]), "attribute 0x0008: expected 20 bytes, got 300"),
        (value_violation(attr::CHANNEL_NUMBER, &[0x40]), "attribute 0x000c: CHANNEL-NUMBER must be 4 bytes, got 1"),
        (
            value_violation(attr::CHANNEL_NUMBER, &[0, 0, 0, 0]),
            "attribute 0x000c: channel number 0x0000 outside 0x4000-0x4FFF",
        ),
        (
            value_violation(attr::REQUESTED_TRANSPORT, &[6, 0, 0, 0]),
            "attribute 0x0019: transport protocol 6 is not UDP",
        ),
        (value_violation(attr::REQUESTED_ADDRESS_FAMILY, &[3, 0, 0, 0]), "attribute 0x0017: address family 0x03"),
        (value_violation(attr::ERROR_CODE, &[0, 0]), "attribute 0x0009: ERROR-CODE shorter than 4 bytes"),
        (value_violation(attr::ERROR_CODE, &[0, 0, 7, 5]), "attribute 0x0009: error code 705"),
        (value_violation(attr::ERROR_CODE, &[0, 0, 4, 200]), "attribute 0x0009: error code 4200"),
        (value_violation(attr::MESSAGE_INTEGRITY_SHA256, &[0; 18]), "attribute 0x001c: SHA256 integrity length 18"),
        (value_violation(attr::USERNAME, &[b'u'; 514]), "attribute 0x0006: USERNAME longer than 513 bytes"),
        (value_violation(attr::SOFTWARE, &[b's'; 764]), "attribute 0x8022: value longer than 763 bytes"),
        (
            value_violation(attr::XOR_MAPPED_ADDRESS, &[0, 1]),
            "attribute 0x0020: address attribute shorter than 4 bytes",
        ),
        (
            value_violation(attr::MAPPED_ADDRESS, &[0, 2, 0, 80, 1, 2, 3, 4]),
            "attribute 0x0001: address length 8 does not match family 0x02",
        ),
        (
            value_violation(attr::XOR_PEER_ADDRESS, &[0, 0, 0, 80, 1, 2, 3, 4]),
            "attribute 0x0012: address family 0x00 (must be 0x01 or 0x02)",
        ),
        // ChannelData.
        (
            v(Rule::ChannelDataRange).with_ty(0x6000),
            "channel number 0x6000 outside RFC 8656's 0x4000-0x4FFF allocation range",
        ),
        (v(Rule::ChannelDataTrailing).with_n(3), "length field leaves 3 unexplained byte(s) after the frame"),
        // RTP header extensions.
        (
            v(Rule::RtpExtProfileUndefined).with_ty(0x8d00),
            "header-extension profile 0x8d00 is not defined (RFC 8285)",
        ),
        (v(Rule::RtpExtReservedId), "extension element with reserved ID 0 carries a non-zero length (RFC 8285 §4.2)"),
        (v(Rule::RtpExtOneByteTruncated), "extension element truncated by the extension boundary"),
        (v(Rule::RtpExtTwoByteTruncated), "two-byte-form element truncated by the extension boundary"),
        // RTCP.
        (v(Rule::RtcpTypeUndefined).with_ty(210), "RTCP packet type 210 is not defined"),
        (
            v(Rule::RtcpCountLength).with_ty(2).with_n(24),
            "count field 2 inconsistent with packet length (24 body bytes)",
        ),
        (v(Rule::RtcpSdesItemUndefined).with_ty(9), "SDES item type 9 is not defined"),
        (v(Rule::RtcpSdesWalk), "SDES chunks do not walk to the declared length"),
        (v(Rule::RtcpAppName), "APP name field is not four ASCII characters"),
        (v(Rule::RtcpRtpfbUndefined).with_ty(12), "RTPFB feedback message type 12 is not defined"),
        (v(Rule::RtcpPsfbUndefined).with_ty(10), "PSFB feedback message type 10 is not defined"),
        (v(Rule::RtcpXrBlockUndefined).with_ty(200), "XR block type 200 is not defined"),
        (v(Rule::SrtcpNoAuthTag), "SRTCP trailer carries no authentication tag (RFC 3711 §3.4 requires one)"),
        (
            v(Rule::RtcpTrailerUndefined).with_n(3),
            "3 trailing byte(s) after the RTCP compound match no defined trailer",
        ),
        // QUIC.
        (v(Rule::QuicLongFixedBit), "fixed bit is zero"),
        (v(Rule::QuicShortFixedBit), "fixed bit is zero"),
        (v(Rule::QuicCidLength), "connection ID longer than 20 bytes"),
        (v(Rule::NotQuic), "not a QUIC candidate"),
    ];
    for (violation, want) in cases {
        assert_eq!(violation.to_string(), want, "{:?}", violation.rule);
    }
}

#[test]
fn wire_rules_render_their_parse_error() {
    let e = WireError::truncated(WireProtocol::Rtcp, 6);
    let v = Violation::from_wire(Rule::RtcpUnparsed, e);
    assert_eq!(v.wire, Some(e));
    assert_eq!(v.criterion(), Criterion::HeaderFieldsValid);
    assert_eq!(v.to_string(), e.to_string());
}
