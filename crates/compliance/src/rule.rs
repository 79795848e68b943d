//! The rule table: one [`Rule`] per check the compliance layer makes, each
//! with the criterion it belongs to and the RFC clause it enforces.
//!
//! A verdict names its rule instead of carrying text, so judging a message
//! allocates nothing; [`Violation`]'s `Display` renders the explanation
//! from the rule and its two numeric operands only when someone reads it.
//! The criterion is read from the table, so a rule cannot report two
//! different criteria at two sites.

use crate::{Criterion, Violation};

macro_rules! rules {
    ($($(#[$doc:meta])* $name:ident => $criterion:ident, $clause:literal;)+) => {
        /// One check of the five-criterion model. The discriminant indexes
        /// the rule table; [`Rule::criterion`] and [`Rule::clause`] read it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum Rule {
            $($(#[$doc])* $name,)+
        }

        impl Rule {
            /// Every rule, in table order.
            pub const ALL: &'static [Rule] = &[$(Rule::$name),+];
        }

        const TABLE: &[(Criterion, &str)] = &[$((Criterion::$criterion, $clause)),+];
    };
}

rules! {
    /// The STUN message no longer parses. Carries the wire error.
    StunUnparsed => HeaderFieldsValid, "RFC 8489 §5";
    /// `ty`: a message type no STUN/TURN specification defines.
    StunTypeUndefined => MessageTypeDefined, "RFC 8489 §18.2";
    /// Transaction IDs count up instead of being random.
    StunSequentialTxid => HeaderFieldsValid, "RFC 8489 §6";
    /// `ty`: an attribute type no specification defines.
    StunAttrUndefined => AttributeTypesDefined, "RFC 8489 §18.3";
    /// `ty`: the attribute; `n`: expected length << 16 | actual length.
    StunAttrLength => AttributeValuesValid, "RFC 8489 §14";
    /// `ty`: CHANNEL-NUMBER; `n`: its length, not 4.
    StunChannelNumberLength => AttributeValuesValid, "RFC 8656 §18.1";
    /// `ty`: CHANNEL-NUMBER; `n`: a channel outside 0x4000-0x4FFF.
    StunChannelNumberRange => AttributeValuesValid, "RFC 8656 §12";
    /// `ty`: REQUESTED-TRANSPORT; `n`: a protocol number other than UDP.
    StunTransportNotUdp => AttributeValuesValid, "RFC 8656 §18";
    /// `ty`: REQUESTED-ADDRESS-FAMILY; `n`: neither IPv4 nor IPv6.
    StunRequestedFamily => AttributeValuesValid, "RFC 8656 §18";
    /// `ty`: ERROR-CODE, shorter than 4 bytes.
    StunErrorCodeShort => AttributeValuesValid, "RFC 8489 §14.8";
    /// `ty`: ERROR-CODE; `n`: class << 8 | number, outside 300-699.
    StunErrorCodeRange => AttributeValuesValid, "RFC 8489 §14.8";
    /// `ty`: MESSAGE-INTEGRITY-SHA256; `n`: a length not in 16..=32 or not
    /// a multiple of 4.
    StunSha256Length => AttributeValuesValid, "RFC 8489 §14.6";
    /// `ty`: USERNAME, longer than 513 bytes.
    StunUsernameLength => AttributeValuesValid, "RFC 8489 §14.3";
    /// `ty`: REALM, NONCE, SOFTWARE or ALTERNATE-DOMAIN, longer than 763
    /// bytes.
    StunTextLength => AttributeValuesValid, "RFC 8489 §14";
    /// `ty`: an address attribute shorter than 4 bytes.
    StunAddressShort => AttributeValuesValid, "RFC 8489 §14.1";
    /// `ty`: an address attribute; `n`: length << 8 | family, where the
    /// length does not fit the family.
    StunAddressLength => AttributeValuesValid, "RFC 8489 §14.1";
    /// `ty`: an address attribute; `n`: a family other than 0x01 or 0x02.
    StunAddressFamily => AttributeValuesValid, "RFC 8489 §14.1";
    /// FINGERPRINT's CRC-32 does not match the message.
    StunFingerprintCrc => AttributeValuesValid, "RFC 8489 §14.7";
    /// FINGERPRINT is not the last attribute.
    StunFingerprintNotLast => SyntaxSemanticIntegrity, "RFC 8489 §14.7";
    /// `ty`: an attribute the message type `n` does not permit.
    StunAttrNotPermitted => SyntaxSemanticIntegrity, "RFC 8656 §11";
    /// `ty`: an attribute the message type `n` requires but lacks.
    StunRequiredAttrMissing => SyntaxSemanticIntegrity, "RFC 8489 §14; RFC 8656 §7-§12";
    /// A request sent more often than RFC 8489's budget, never answered.
    StunOverRetransmitted => SyntaxSemanticIntegrity, "RFC 8489 §6.2.1";
    /// Allocate Requests used as a periodic connectivity check.
    StunAllocatePingPong => SyntaxSemanticIntegrity, "RFC 8656 §7";
    /// The ChannelData frame no longer parses. Carries the wire error.
    ChannelDataUnparsed => HeaderFieldsValid, "RFC 8656 §12.4";
    /// `ty`: a channel number outside 0x4000-0x4FFF.
    ChannelDataRange => HeaderFieldsValid, "RFC 8656 §12";
    /// `n`: bytes left in the datagram after the frame.
    ChannelDataTrailing => HeaderFieldsValid, "RFC 8656 §12.5";
    /// The RTP packet no longer parses. Carries the wire error.
    RtpUnparsed => HeaderFieldsValid, "RFC 3550 §5.1";
    /// `ty`: an undefined header-extension profile.
    RtpExtProfileUndefined => AttributeTypesDefined, "RFC 8285 §4";
    /// A one-byte-form element with reserved ID 0 carries data.
    RtpExtReservedId => AttributeValuesValid, "RFC 8285 §4.2";
    /// A one-byte-form element overruns the extension.
    RtpExtOneByteTruncated => AttributeValuesValid, "RFC 8285 §4.2";
    /// A two-byte-form element overruns the extension.
    RtpExtTwoByteTruncated => AttributeValuesValid, "RFC 8285 §4.3";
    /// The RTCP packet no longer parses. Carries the wire error.
    RtcpUnparsed => HeaderFieldsValid, "RFC 3550 §6.4";
    /// `ty`: an undefined RTCP packet type.
    RtcpTypeUndefined => MessageTypeDefined, "RFC 3550 §12.1";
    /// `ty`: the count field; `n`: body bytes too few for it.
    RtcpCountLength => HeaderFieldsValid, "RFC 3550 §6.4";
    /// `ty`: an undefined SDES item type.
    RtcpSdesItemUndefined => AttributeTypesDefined, "RFC 3550 §6.5";
    /// SDES chunks do not walk to the packet length.
    RtcpSdesWalk => AttributeValuesValid, "RFC 3550 §6.5";
    /// APP's name field is not four ASCII characters.
    RtcpAppName => AttributeValuesValid, "RFC 3550 §6.7";
    /// `ty`: an undefined RTPFB feedback message type.
    RtcpRtpfbUndefined => AttributeTypesDefined, "RFC 4585 §6.2";
    /// `ty`: an undefined PSFB feedback message type.
    RtcpPsfbUndefined => AttributeTypesDefined, "RFC 4585 §6.3";
    /// `ty`: an undefined XR block type.
    RtcpXrBlockUndefined => AttributeTypesDefined, "RFC 3611 §4";
    /// An SRTCP trailer without an authentication tag.
    SrtcpNoAuthTag => AttributeValuesValid, "RFC 3711 §3.4";
    /// `n`: trailing bytes after the compound that form no trailer.
    RtcpTrailerUndefined => SyntaxSemanticIntegrity, "RFC 3711 §3.4";
    /// The QUIC long header no longer parses. Carries the wire error.
    QuicLongUnparsed => HeaderFieldsValid, "RFC 9000 §17.2";
    /// A long header with the fixed bit cleared.
    QuicLongFixedBit => HeaderFieldsValid, "RFC 9000 §17.2";
    /// A long header with a connection ID over 20 bytes.
    QuicCidLength => HeaderFieldsValid, "RFC 9000 §17.2";
    /// The QUIC short header no longer parses. Carries the wire error.
    QuicShortUnparsed => HeaderFieldsValid, "RFC 9000 §17.3";
    /// A short header with the fixed bit cleared.
    QuicShortFixedBit => HeaderFieldsValid, "RFC 9000 §17.3";
    /// A non-QUIC candidate handed to the QUIC checker.
    NotQuic => HeaderFieldsValid, "RFC 9000 §17";
}

impl Rule {
    /// The criterion a failure of this rule reports.
    pub const fn criterion(self) -> Criterion {
        TABLE[self as usize].0
    }

    /// The RFC clause this rule enforces, e.g. `"RFC 8489 §14.7"`.
    pub const fn clause(self) -> &'static str {
        TABLE[self as usize].1
    }
}

impl core::fmt::Display for Violation {
    /// The explanation, rendered from the rule and its operands.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(wire) = &self.wire {
            return write!(f, "{wire}");
        }
        let (ty, n) = (self.ty, self.n);
        match self.rule {
            Rule::StunTypeUndefined => {
                write!(f, "message type {ty:#06x} is not defined in any STUN/TURN specification")
            }
            Rule::StunSequentialTxid => f.write_str("transaction IDs are sequential rather than randomly generated"),
            Rule::StunAttrUndefined => write!(f, "attribute type {ty:#06x} is not defined in any specification"),
            Rule::StunAttrLength => write!(f, "attribute {ty:#06x}: expected {} bytes, got {}", n >> 16, n & 0xFFFF),
            Rule::StunChannelNumberLength => {
                write!(f, "attribute {ty:#06x}: CHANNEL-NUMBER must be 4 bytes, got {n}")
            }
            Rule::StunChannelNumberRange => {
                write!(f, "attribute {ty:#06x}: channel number {n:#06x} outside 0x4000-0x4FFF")
            }
            Rule::StunTransportNotUdp => write!(f, "attribute {ty:#06x}: transport protocol {n} is not UDP"),
            Rule::StunRequestedFamily => write!(f, "attribute {ty:#06x}: address family {n:#04x}"),
            Rule::StunErrorCodeShort => write!(f, "attribute {ty:#06x}: ERROR-CODE shorter than 4 bytes"),
            Rule::StunErrorCodeRange => write!(f, "attribute {ty:#06x}: error code {}{:02}", n >> 8, n & 0xFF),
            Rule::StunSha256Length => write!(f, "attribute {ty:#06x}: SHA256 integrity length {n}"),
            Rule::StunUsernameLength => write!(f, "attribute {ty:#06x}: USERNAME longer than 513 bytes"),
            Rule::StunTextLength => write!(f, "attribute {ty:#06x}: value longer than 763 bytes"),
            Rule::StunAddressShort => write!(f, "attribute {ty:#06x}: address attribute shorter than 4 bytes"),
            Rule::StunAddressLength => {
                write!(f, "attribute {ty:#06x}: address length {} does not match family {:#04x}", n >> 8, n & 0xFF)
            }
            Rule::StunAddressFamily => {
                write!(f, "attribute {ty:#06x}: address family {n:#04x} (must be 0x01 or 0x02)")
            }
            Rule::StunFingerprintCrc => f.write_str("FINGERPRINT CRC-32 does not match the message contents"),
            Rule::StunFingerprintNotLast => f.write_str("FINGERPRINT is not the final attribute"),
            Rule::StunAttrNotPermitted => {
                write!(f, "attribute {ty:#06x} is not permitted in message type {n:#06x}")
            }
            Rule::StunRequiredAttrMissing => {
                write!(f, "required attribute {ty:#06x} missing from message type {n:#06x}")
            }
            Rule::StunOverRetransmitted => {
                f.write_str("request retransmitted beyond the RFC 8489 budget with no response")
            }
            Rule::StunAllocatePingPong => f.write_str("Allocate Requests repurposed as periodic connectivity checks"),
            Rule::ChannelDataRange => {
                write!(f, "channel number {ty:#06x} outside RFC 8656's 0x4000-0x4FFF allocation range")
            }
            Rule::ChannelDataTrailing => write!(f, "length field leaves {n} unexplained byte(s) after the frame"),
            Rule::RtpExtProfileUndefined => {
                write!(f, "header-extension profile {ty:#06x} is not defined (RFC 8285)")
            }
            Rule::RtpExtReservedId => {
                f.write_str("extension element with reserved ID 0 carries a non-zero length (RFC 8285 §4.2)")
            }
            Rule::RtpExtOneByteTruncated => f.write_str("extension element truncated by the extension boundary"),
            Rule::RtpExtTwoByteTruncated => f.write_str("two-byte-form element truncated by the extension boundary"),
            Rule::RtcpTypeUndefined => write!(f, "RTCP packet type {ty} is not defined"),
            Rule::RtcpCountLength => {
                write!(f, "count field {ty} inconsistent with packet length ({n} body bytes)")
            }
            Rule::RtcpSdesItemUndefined => write!(f, "SDES item type {ty} is not defined"),
            Rule::RtcpSdesWalk => f.write_str("SDES chunks do not walk to the declared length"),
            Rule::RtcpAppName => f.write_str("APP name field is not four ASCII characters"),
            Rule::RtcpRtpfbUndefined => write!(f, "RTPFB feedback message type {ty} is not defined"),
            Rule::RtcpPsfbUndefined => write!(f, "PSFB feedback message type {ty} is not defined"),
            Rule::RtcpXrBlockUndefined => write!(f, "XR block type {ty} is not defined"),
            Rule::SrtcpNoAuthTag => {
                f.write_str("SRTCP trailer carries no authentication tag (RFC 3711 §3.4 requires one)")
            }
            Rule::RtcpTrailerUndefined => {
                write!(f, "{n} trailing byte(s) after the RTCP compound match no defined trailer")
            }
            Rule::QuicLongFixedBit | Rule::QuicShortFixedBit => f.write_str("fixed bit is zero"),
            Rule::QuicCidLength => f.write_str("connection ID longer than 20 bytes"),
            Rule::NotQuic => f.write_str("not a QUIC candidate"),
            // A wire rule always carries its error, printed above.
            Rule::StunUnparsed
            | Rule::ChannelDataUnparsed
            | Rule::RtpUnparsed
            | Rule::RtcpUnparsed
            | Rule::QuicLongUnparsed
            | Rule::QuicShortUnparsed => write!(f, "{:?}: no wire error recorded", self.rule),
        }
    }
}
