//! STUN/TURN compliance checks (criteria 1–5 for the STUN message format
//! and TURN ChannelData framing).

use crate::context::CallContext;
use crate::registry;
use crate::{Rule, TypeKey, Violation};
use rtc_dpi::{DatagramDissection, DpiMessage};
use rtc_wire::stun::{ChannelData, Message};

/// Judge one STUN/TURN message. Returns its type key and the first
/// violation, if any.
pub fn check_stun(dgram: &DatagramDissection, msg: &DpiMessage, ctx: &CallContext) -> (TypeKey, Option<Violation>) {
    let parsed = match Message::new_checked(&msg.data) {
        Ok(m) => m,
        Err(e) => {
            // The DPI only emits parseable messages; guard anyway.
            return (TypeKey::Stun(0), Some(Violation::from_wire(Rule::StunUnparsed, e)));
        }
    };
    let message_type = parsed.message_type();
    let key = TypeKey::Stun(message_type);

    // Criterion 1: the message type must be defined.
    if !registry::stun_type_defined(message_type) {
        return (key, Some(Violation::new(Rule::StunTypeUndefined).with_ty(message_type)));
    }

    // Criterion 2: header fields. The parser already guarantees the type
    // bits, length alignment and length fit; what remains is transaction-ID
    // plausibility (RFC 8489 §6: "transaction ID ... MUST be uniformly and
    // randomly chosen"), which needs stream context.
    let mut txid = [0u8; 12];
    txid.copy_from_slice(parsed.transaction_id());
    if ctx.sequential_txids.contains(&(dgram.stream, txid)) {
        return (key, Some(Violation::new(Rule::StunSequentialTxid)));
    }

    // Criterion 3: every attribute type must be defined.
    for a in parsed.attributes().flatten() {
        if !registry::stun_attr_defined(a.typ) {
            return (key, Some(Violation::new(Rule::StunAttrUndefined).with_ty(a.typ)));
        }
    }

    // Criterion 4: attribute values must be valid.
    for a in parsed.attributes().flatten() {
        if let Some(problem) = registry::stun_attr_value_problem(a.typ, a.value) {
            return (key, Some(Violation::new(problem.rule).with_ty(a.typ).with_n(problem.n)));
        }
    }
    // Criterion 4: a FINGERPRINT must carry the correct CRC-32 (RFC 8489
    // §14.7) — verifiable without keys, unlike MESSAGE-INTEGRITY.
    #[cfg(feature = "cov-probes")]
    {
        if parsed.verify_fingerprint().is_some() {
            rtc_cov::probe!("compliance.stun.fingerprint-present");
        }
    }
    if parsed.verify_fingerprint() == Some(false) {
        return (key, Some(Violation::new(Rule::StunFingerprintCrc)));
    }

    // Criterion 5: syntax and semantic integrity.
    // 5a. Attribute ordering: FINGERPRINT, when present, must be the last
    // attribute, after any MESSAGE-INTEGRITY (RFC 8489 §14.7).
    let mut attrs = parsed.attributes().flatten();
    if attrs.any(|a| a.typ == rtc_wire::stun::attr::FINGERPRINT) && attrs.next().is_some() {
        return (key, Some(Violation::new(Rule::StunFingerprintNotLast)));
    }
    // 5b. Allowed attribute set (strict for TURN indications).
    if let Some(allowed) = registry::stun_allowed_attrs(message_type) {
        rtc_cov::probe!("compliance.stun.allowed-attr-set");
        for a in parsed.attributes().flatten() {
            if !allowed.contains(&a.typ) {
                return (
                    key,
                    Some(Violation::new(Rule::StunAttrNotPermitted).with_ty(a.typ).with_n(message_type.into())),
                );
            }
        }
    }
    // 5c. Required attributes.
    for req in registry::stun_required_attrs(message_type) {
        if parsed.attribute(*req).is_none() {
            return (
                key,
                Some(Violation::new(Rule::StunRequiredAttrMissing).with_ty(*req).with_n(message_type.into())),
            );
        }
    }
    // 5d. Behavioral context: over-retransmission and Allocate ping-pong.
    if ctx.over_retransmitted.contains(&(dgram.stream, txid)) {
        return (key, Some(Violation::new(Rule::StunOverRetransmitted)));
    }
    if ctx.pingpong_allocates.contains(&(dgram.stream, txid)) {
        return (key, Some(Violation::new(Rule::StunAllocatePingPong)));
    }

    (key, None)
}

/// Judge one TURN ChannelData frame.
pub fn check_channeldata(dgram: &DatagramDissection, msg: &DpiMessage) -> (TypeKey, Option<Violation>) {
    let key = TypeKey::ChannelData;
    let parsed = match ChannelData::new_checked(&msg.data) {
        Ok(c) => c,
        Err(e) => return (key, Some(Violation::from_wire(Rule::ChannelDataUnparsed, e))),
    };
    // Criterion 2: the channel number must fall in RFC 8656's range.
    if !ChannelData::CHANNEL_RANGE.contains(&parsed.channel_number()) {
        return (key, Some(Violation::new(Rule::ChannelDataRange).with_ty(parsed.channel_number())));
    }
    // Criterion 2: over UDP the frame must cover the datagram exactly —
    // ChannelData has no padding outside stream transports (RFC 8656 §12.5).
    if !dgram.trailing.is_empty() {
        return (key, Some(Violation::new(Rule::ChannelDataTrailing).with_n(dgram.trailing.len() as u32)));
    }
    (key, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Criterion;
    use bytes::Bytes;
    use rtc_dpi::{CandidateKind, Protocol};
    use rtc_pcap::Timestamp;
    use rtc_wire::ip::FiveTuple;
    use rtc_wire::stun::{attr, msg_type, MessageBuilder};

    fn wrap(data: Vec<u8>) -> (DatagramDissection, DpiMessage) {
        let msg = DpiMessage {
            protocol: Protocol::StunTurn,
            kind: CandidateKind::Stun { message_type: 0, modern: true },
            offset: 0,
            data: Bytes::from(data),
            nested: false,
        };
        let dgram = DatagramDissection {
            ts: Timestamp::ZERO,
            stream: FiveTuple::udp("10.0.0.1:1".parse().unwrap(), "1.2.3.4:2".parse().unwrap()),
            payload_len: msg.data.len(),
            messages: vec![],
            prefix: Bytes::new(),
            trailing: Bytes::new(),
            class: rtc_dpi::DatagramClass::Standard,
            prop_header_len: 0,
        };
        (dgram, msg)
    }

    #[test]
    fn facetime_data_indication_fails_at_channel_number_value() {
        // CHANNEL-NUMBER with value 0x00000000 inside a Data Indication:
        // criterion 4 fires before the criterion-5 placement rule (§5.2.1).
        let txid = [1u8; 12];
        let bytes = MessageBuilder::new(msg_type::DATA_INDICATION, txid)
            .attribute(attr::XOR_PEER_ADDRESS, vec![0, 1, 0, 80, 1, 2, 3, 4])
            .attribute(attr::DATA, vec![9; 16])
            .attribute(attr::CHANNEL_NUMBER, vec![0, 0, 0, 0])
            .build();
        let (dgram, msg) = wrap(bytes);
        let (key, v) = check_stun(&dgram, &msg, &CallContext::default());
        assert_eq!(key, TypeKey::Stun(msg_type::DATA_INDICATION));
        assert_eq!(v.unwrap().criterion(), Criterion::AttributeValuesValid);
    }

    #[test]
    fn in_range_channel_number_in_data_indication_fails_placement() {
        let txid = [1u8; 12];
        let bytes = MessageBuilder::new(msg_type::DATA_INDICATION, txid)
            .attribute(attr::XOR_PEER_ADDRESS, vec![0, 1, 0, 80, 1, 2, 3, 4])
            .attribute(attr::DATA, vec![9; 16])
            .attribute(attr::CHANNEL_NUMBER, vec![0x40, 0x00, 0, 0])
            .build();
        let (dgram, msg) = wrap(bytes);
        let (_, v) = check_stun(&dgram, &msg, &CallContext::default());
        assert_eq!(v.unwrap().criterion(), Criterion::SyntaxSemanticIntegrity);
    }

    #[test]
    fn missing_required_attribute() {
        // Allocate Request without REQUESTED-TRANSPORT.
        let bytes = MessageBuilder::new(msg_type::ALLOCATE_REQUEST, [2; 12])
            .attribute(attr::USERNAME, b"user".to_vec())
            .build();
        let (dgram, msg) = wrap(bytes);
        let (_, v) = check_stun(&dgram, &msg, &CallContext::default());
        let v = v.unwrap();
        assert_eq!(v.criterion(), Criterion::SyntaxSemanticIntegrity);
        assert!(v.to_string().contains("0x0019"), "{v}");
    }

    #[test]
    fn alternate_server_family_zero_fails_criterion_four() {
        let bytes = MessageBuilder::new(msg_type::BINDING_SUCCESS, [3; 12])
            .attribute(attr::XOR_MAPPED_ADDRESS, vec![0, 1, 0, 80, 1, 2, 3, 4])
            .attribute(attr::ALTERNATE_SERVER, vec![0, 0x00, 0x0D, 0x96, 1, 2, 3, 4])
            .build();
        let (dgram, msg) = wrap(bytes);
        let (_, v) = check_stun(&dgram, &msg, &CallContext::default());
        let v = v.unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeValuesValid);
        assert!(v.to_string().contains("family"), "{v}");
    }

    #[test]
    fn channeldata_in_range_ok_out_of_range_flagged() {
        let (dgram, _) = wrap(vec![]);
        let ok = DpiMessage {
            protocol: Protocol::StunTurn,
            kind: CandidateKind::ChannelData { channel: 0x4001 },
            offset: 0,
            data: Bytes::from(ChannelData::build(0x4001, b"abcd")),
            nested: false,
        };
        assert!(check_channeldata(&dgram, &ok).1.is_none());
        let bad = DpiMessage {
            protocol: Protocol::StunTurn,
            kind: CandidateKind::ChannelData { channel: 0x6000 },
            offset: 0,
            data: Bytes::from(ChannelData::build(0x6000, b"abcd")),
            nested: false,
        };
        let v = check_channeldata(&dgram, &bad).1.unwrap();
        assert_eq!(v.criterion(), Criterion::HeaderFieldsValid);
    }

    #[test]
    fn bad_fingerprint_crc_fails_criterion_four() {
        let mut bytes = MessageBuilder::new(msg_type::BINDING_REQUEST, [5; 12])
            .attribute(attr::PRIORITY, vec![0, 0, 1, 0])
            .build_with_fingerprint();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // corrupt the CRC
        let (dgram, msg) = wrap(bytes);
        let (_, v) = check_stun(&dgram, &msg, &CallContext::default());
        let v = v.unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeValuesValid);
        assert!(v.to_string().contains("FINGERPRINT"), "{v}");
    }

    #[test]
    fn good_fingerprint_passes() {
        let bytes = MessageBuilder::new(msg_type::BINDING_REQUEST, [5; 12])
            .attribute(attr::PRIORITY, vec![0, 0, 1, 0])
            .build_with_fingerprint();
        let (dgram, msg) = wrap(bytes);
        assert!(check_stun(&dgram, &msg, &CallContext::default()).1.is_none());
    }

    #[test]
    fn fingerprint_not_last_fails_criterion_five() {
        // Build manually: FINGERPRINT followed by SOFTWARE. Compute the CRC
        // as if FINGERPRINT were the end of a shorter message, then append
        // more — both the placement and the stale CRC violate the spec; the
        // placement check needs a *correct* CRC to be reached, so craft one
        // over the final length.
        let body = MessageBuilder::new(msg_type::BINDING_REQUEST, [6; 12])
            .attribute(attr::PRIORITY, vec![0, 0, 1, 0])
            .attribute(attr::FINGERPRINT, vec![0, 0, 0, 0])
            .attribute(attr::SOFTWARE, b"late".to_vec())
            .build();
        // Fix the CRC so criterion 4 passes and the ordering check fires.
        // Layout: header (20) + PRIORITY (8) = 28; FINGERPRINT TLV at 28,
        // its value at 32..36.
        let crc = (rtc_wire::stun::crc32(&body[..28]) ^ rtc_wire::stun::FINGERPRINT_XOR).to_be_bytes();
        let mut bytes = body;
        bytes[32..36].copy_from_slice(&crc);
        let (dgram, msg) = wrap(bytes);
        let (_, v) = check_stun(&dgram, &msg, &CallContext::default());
        let v = v.unwrap();
        assert_eq!(v.criterion(), Criterion::SyntaxSemanticIntegrity, "{v}");
        assert!(v.to_string().contains("final attribute"), "{v}");
    }

    #[test]
    fn goog_ping_is_compliant() {
        let bytes = MessageBuilder::new(msg_type::GOOG_PING_REQUEST, [4; 12]).build();
        let (dgram, msg) = wrap(bytes);
        let (key, v) = check_stun(&dgram, &msg, &CallContext::default());
        assert_eq!(key, TypeKey::Stun(0x0200));
        assert!(v.is_none());
    }
}
