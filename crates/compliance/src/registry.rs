//! RFC registries: the "defined in the specifications" ground truth the
//! criteria consult.
//!
//! The paper counts an element as defined if *any* officially published RFC
//! defines it (STUN has three generations: RFC 3489, 5389, 8489; TURN two:
//! RFC 5766, 8656) or if it comes from publicly documented WebRTC
//! extensions (§4.2 "public WebRTC documentations and RFCs"); the
//! GOOG-PING method and GOOG-NETWORK-INFO attribute fall in the latter
//! bucket, which is how Google Meet's 0x0200/0x0300 exchanges count as
//! compliant in Table 4.

use crate::Rule;
use rtc_wire::stun::{attr, family, msg_type};

/// Whether a STUN/TURN 16-bit message type is defined.
pub fn stun_type_defined(message_type: u16) -> bool {
    use msg_type::*;
    matches!(
        message_type,
        // STUN binding (RFC 3489 / 5389 / 8489).
        BINDING_REQUEST | BINDING_INDICATION | BINDING_SUCCESS | BINDING_ERROR
        // RFC 3489 shared-secret family (deprecated but published).
        | SHARED_SECRET_REQUEST | SHARED_SECRET_SUCCESS | SHARED_SECRET_ERROR
        // TURN (RFC 5766 / 8656).
        | ALLOCATE_REQUEST | ALLOCATE_SUCCESS | ALLOCATE_ERROR
        | REFRESH_REQUEST | REFRESH_SUCCESS | REFRESH_ERROR
        | SEND_INDICATION | DATA_INDICATION
        | CREATE_PERMISSION_REQUEST | CREATE_PERMISSION_SUCCESS | CREATE_PERMISSION_ERROR
        | CHANNEL_BIND_REQUEST | CHANNEL_BIND_SUCCESS | CHANNEL_BIND_ERROR
        // TURN-TCP (RFC 6062): Connect / ConnectionBind / ConnectionAttempt.
        | 0x000A | 0x010A | 0x011A | 0x000B | 0x010B | 0x011B | 0x001C
        // GOOG-PING (libwebrtc, publicly documented).
        | GOOG_PING_REQUEST | GOOG_PING_SUCCESS
    )
}

/// Whether a STUN/TURN attribute type is defined.
pub fn stun_attr_defined(attr_type: u16) -> bool {
    use attr::*;
    matches!(
        attr_type,
        MAPPED_ADDRESS | RESPONSE_ADDRESS | CHANGE_REQUEST | SOURCE_ADDRESS | CHANGED_ADDRESS
            | USERNAME | PASSWORD | MESSAGE_INTEGRITY | ERROR_CODE | UNKNOWN_ATTRIBUTES
            | REFLECTED_FROM | CHANNEL_NUMBER | LIFETIME | XOR_PEER_ADDRESS | DATA | REALM
            | NONCE | XOR_RELAYED_ADDRESS | REQUESTED_ADDRESS_FAMILY | EVEN_PORT
            | REQUESTED_TRANSPORT | DONT_FRAGMENT | MESSAGE_INTEGRITY_SHA256 | PASSWORD_ALGORITHM
            | USERHASH | XOR_MAPPED_ADDRESS | RESERVATION_TOKEN | PRIORITY | USE_CANDIDATE
            | PADDING | RESPONSE_PORT | CONNECTION_ID | ADDITIONAL_ADDRESS_FAMILY
            | ADDRESS_ERROR_CODE | PASSWORD_ALGORITHMS | ALTERNATE_DOMAIN | ICMP | SOFTWARE
            | ALTERNATE_SERVER | FINGERPRINT | ICE_CONTROLLED | ICE_CONTROLLING | RESPONSE_ORIGIN
            | OTHER_ADDRESS | GOOG_NETWORK_INFO
            // RFC 5780 NAT-behavior discovery: CACHE-TIMEOUT.
            | 0x8027
            // draft-thatcher-ice-renomination (public WebRTC usage): NOMINATION.
            | 0x0030
    )
}

/// A criterion-4 problem with one STUN attribute value: the rule it breaks
/// and that rule's length/value operand (the attribute type is the other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueProblem {
    /// The broken rule.
    pub rule: Rule,
    /// The operand the rule's explanation prints (see [`Rule`]).
    pub n: u32,
}

fn problem(rule: Rule, n: usize) -> ValueProblem {
    ValueProblem { rule, n: n as u32 }
}

/// Validate a defined attribute's value shape (criterion 4). Returns the
/// problem, or `None` if valid.
pub fn stun_attr_value_problem(attr_type: u16, value: &[u8]) -> Option<ValueProblem> {
    use attr::*;
    // STUN attribute lengths are 16-bit, so the actual length fits below
    // the expected one in the operand.
    let fixed = |n: usize| (value.len() != n).then(|| problem(Rule::StunAttrLength, n << 16 | value.len()));
    match attr_type {
        MAPPED_ADDRESS | RESPONSE_ADDRESS | SOURCE_ADDRESS | CHANGED_ADDRESS | REFLECTED_FROM | ALTERNATE_SERVER
        | XOR_MAPPED_ADDRESS | XOR_PEER_ADDRESS | XOR_RELAYED_ADDRESS | RESPONSE_ORIGIN | OTHER_ADDRESS => {
            address_value_problem(value)
        }
        CHANNEL_NUMBER => {
            if value.len() != 4 {
                return Some(problem(Rule::StunChannelNumberLength, value.len()));
            }
            let channel = u16::from_be_bytes([value[0], value[1]]);
            if !(0x4000..=0x4FFF).contains(&channel) {
                return Some(problem(Rule::StunChannelNumberRange, channel.into()));
            }
            None
        }
        LIFETIME | PRIORITY | FINGERPRINT | RESPONSE_PORT => fixed(4),
        REQUESTED_TRANSPORT => {
            fixed(4).or_else(|| (value[0] != 17).then(|| problem(Rule::StunTransportNotUdp, value[0].into())))
        }
        REQUESTED_ADDRESS_FAMILY => fixed(4).or_else(|| {
            (value[0] != family::IPV4 && value[0] != family::IPV6)
                .then(|| problem(Rule::StunRequestedFamily, value[0].into()))
        }),
        ERROR_CODE => {
            if value.len() < 4 {
                return Some(problem(Rule::StunErrorCodeShort, 0));
            }
            let class = value[2] & 0x07;
            let number = value[3];
            if !(3..=6).contains(&class) || number > 99 {
                return Some(problem(Rule::StunErrorCodeRange, usize::from(class) << 8 | usize::from(number)));
            }
            None
        }
        MESSAGE_INTEGRITY => fixed(20),
        MESSAGE_INTEGRITY_SHA256 => (value.len() < 16 || value.len() > 32 || !value.len().is_multiple_of(4))
            .then(|| problem(Rule::StunSha256Length, value.len())),
        RESERVATION_TOKEN => fixed(8),
        EVEN_PORT => fixed(1),
        USE_CANDIDATE | DONT_FRAGMENT => fixed(0),
        ICE_CONTROLLED | ICE_CONTROLLING => fixed(8),
        CONNECTION_ID => fixed(4),
        USERNAME => (value.len() > 513).then(|| problem(Rule::StunUsernameLength, 0)),
        REALM | NONCE | SOFTWARE | ALTERNATE_DOMAIN => (value.len() > 763).then(|| problem(Rule::StunTextLength, 0)),
        _ => None,
    }
}

fn address_value_problem(value: &[u8]) -> Option<ValueProblem> {
    if value.len() < 4 {
        return Some(problem(Rule::StunAddressShort, 0));
    }
    match value[1] {
        family::IPV4 if value.len() == 8 => None,
        family::IPV6 if value.len() == 20 => None,
        family::IPV4 | family::IPV6 => {
            Some(problem(Rule::StunAddressLength, value.len() << 8 | usize::from(value[1])))
        }
        other => Some(problem(Rule::StunAddressFamily, other.into())),
    }
}

/// The attribute set a message type permits, or `None` when unrestricted.
///
/// RFC 8656 is strict for indications: a Data Indication carries exactly
/// XOR-PEER-ADDRESS and DATA (plus ICMP per RFC 8656 §11.5), a Send
/// Indication XOR-PEER-ADDRESS, DATA and DONT-FRAGMENT. Other types accept
/// the general STUN attribute vocabulary, so they are unrestricted here.
pub fn stun_allowed_attrs(message_type: u16) -> Option<&'static [u16]> {
    match message_type {
        msg_type::DATA_INDICATION => Some(&[attr::XOR_PEER_ADDRESS, attr::DATA, attr::ICMP]),
        msg_type::SEND_INDICATION => Some(&[attr::XOR_PEER_ADDRESS, attr::DATA, attr::DONT_FRAGMENT]),
        _ => None,
    }
}

/// Attributes a message type requires.
pub fn stun_required_attrs(message_type: u16) -> &'static [u16] {
    match message_type {
        msg_type::BINDING_SUCCESS => &[attr::XOR_MAPPED_ADDRESS],
        msg_type::ALLOCATE_REQUEST => &[attr::REQUESTED_TRANSPORT],
        msg_type::ALLOCATE_SUCCESS => &[attr::XOR_RELAYED_ADDRESS, attr::LIFETIME, attr::XOR_MAPPED_ADDRESS],
        msg_type::REFRESH_SUCCESS => &[attr::LIFETIME],
        msg_type::CHANNEL_BIND_REQUEST => &[attr::CHANNEL_NUMBER, attr::XOR_PEER_ADDRESS],
        msg_type::CREATE_PERMISSION_REQUEST => &[attr::XOR_PEER_ADDRESS],
        msg_type::SEND_INDICATION | msg_type::DATA_INDICATION => &[attr::XOR_PEER_ADDRESS, attr::DATA],
        msg_type::BINDING_ERROR
        | msg_type::ALLOCATE_ERROR
        | msg_type::REFRESH_ERROR
        | msg_type::CREATE_PERMISSION_ERROR
        | msg_type::CHANNEL_BIND_ERROR => &[attr::ERROR_CODE],
        _ => &[],
    }
}

/// Whether an RTCP packet type is defined (RFC 3550 / 4585 / 3611, plus the
/// pre-AVPF FIR/NACK codepoints of RFC 2032).
pub fn rtcp_type_defined(packet_type: u8) -> bool {
    matches!(packet_type, 192 | 193 | 200..=207)
}

/// Whether an SDES item type is defined (RFC 3550 §6.5).
pub fn sdes_item_defined(item: u8) -> bool {
    (1..=8).contains(&item)
}

/// Whether an RTPFB feedback message type is defined (RFC 4585 / 5104 /
/// 6051 / 6285 / 6642 / 8888 + the widely documented transport-cc FMT 15).
pub fn rtpfb_fmt_defined(fmt: u8) -> bool {
    matches!(fmt, 1 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 15)
}

/// Whether a PSFB feedback message type is defined (RFC 4585 / 5104 + AFB).
pub fn psfb_fmt_defined(fmt: u8) -> bool {
    matches!(fmt, 1..=9 | 15)
}

/// Whether an XR block type is defined (RFC 3611 and extensions).
pub fn xr_block_defined(block: u8) -> bool {
    (1..=14).contains(&block)
}

/// Whether an RTP extension profile identifier selects a defined mechanism
/// (RFC 8285 one-byte 0xBEDE or two-byte 0x100x forms).
pub fn rtp_ext_profile_defined(profile: u16) -> bool {
    profile == rtc_wire::rtp::ONE_BYTE_PROFILE || rtc_wire::rtp::TWO_BYTE_PROFILE_RANGE.contains(&profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_type_vocabulary() {
        // Defined types from Table 4's compliant columns.
        for t in [
            0x0001u16, 0x0003, 0x0004, 0x0008, 0x0009, 0x0016, 0x0017, 0x0101, 0x0103, 0x0104, 0x0108, 0x0109,
            0x0113, 0x0118, 0x0200, 0x0300, 0x0002,
        ] {
            assert!(stun_type_defined(t), "{t:#06x} should be defined");
        }
        // Undefined types from the non-compliant columns.
        for t in [0x0800u16, 0x0801, 0x0802, 0x0803, 0x0804, 0x0805] {
            assert!(!stun_type_defined(t), "{t:#06x} should be undefined");
        }
    }

    #[test]
    fn paper_attribute_vocabulary() {
        for a in [0x4000u16, 0x4003, 0x4004, 0x4007, 0x8007, 0x8008, 0x0101, 0x0103] {
            assert!(!stun_attr_defined(a), "{a:#06x} should be undefined");
        }
        for a in [0x0001u16, 0x0020, 0x8023, 0x8028, 0xC057] {
            assert!(stun_attr_defined(a), "{a:#06x} should be defined");
        }
    }

    #[test]
    fn address_family_rules() {
        assert!(address_value_problem(&[0, 1, 0, 80, 1, 2, 3, 4]).is_none());
        assert!(address_value_problem(&[0, 0, 0, 80, 1, 2, 3, 4]).is_some()); // family 0x00
        assert!(address_value_problem(&[0, 1, 0, 80, 1, 2, 3]).is_some()); // short v4
        assert!(address_value_problem(&[0, 2, 0, 80]).is_some()); // short v6
    }

    #[test]
    fn channel_number_rules() {
        assert!(stun_attr_value_problem(attr::CHANNEL_NUMBER, &[0x40, 0x00, 0, 0]).is_none());
        assert!(stun_attr_value_problem(attr::CHANNEL_NUMBER, &[0x00, 0x00, 0, 0]).is_some());
        assert!(stun_attr_value_problem(attr::CHANNEL_NUMBER, &[0x50, 0x00, 0, 0]).is_some());
        assert!(stun_attr_value_problem(attr::CHANNEL_NUMBER, &[0x40]).is_some());
    }

    #[test]
    fn reservation_token_length() {
        assert!(stun_attr_value_problem(attr::RESERVATION_TOKEN, &[0; 8]).is_none());
        assert!(stun_attr_value_problem(attr::RESERVATION_TOKEN, &[0; 7]).is_some());
    }

    #[test]
    fn error_code_rules() {
        assert!(stun_attr_value_problem(attr::ERROR_CODE, &[0, 0, 4, 38]).is_none());
        assert!(stun_attr_value_problem(attr::ERROR_CODE, &[0, 0, 7, 0]).is_some());
        assert!(stun_attr_value_problem(attr::ERROR_CODE, &[0, 0]).is_some());
    }

    #[test]
    fn indication_attribute_sets() {
        let data_allowed = stun_allowed_attrs(msg_type::DATA_INDICATION).unwrap();
        assert!(data_allowed.contains(&attr::DATA));
        assert!(!data_allowed.contains(&attr::CHANNEL_NUMBER));
        assert!(stun_allowed_attrs(msg_type::BINDING_REQUEST).is_none());
    }

    #[test]
    fn rtcp_registries() {
        assert!(rtcp_type_defined(200));
        assert!(rtcp_type_defined(207));
        assert!(!rtcp_type_defined(199));
        assert!(!rtcp_type_defined(210));
        assert!(rtpfb_fmt_defined(15));
        assert!(!rtpfb_fmt_defined(12));
        assert!(psfb_fmt_defined(1));
        assert!(!psfb_fmt_defined(10));
        assert!(sdes_item_defined(1));
        assert!(!sdes_item_defined(9));
    }

    #[test]
    fn ext_profile_registry() {
        assert!(rtp_ext_profile_defined(0xBEDE));
        assert!(rtp_ext_profile_defined(0x1000));
        assert!(rtp_ext_profile_defined(0x100F));
        assert!(!rtp_ext_profile_defined(0x8001));
        assert!(!rtp_ext_profile_defined(0x0084));
    }
}
