//! RTP compliance checks.
//!
//! The paper's Table 5 treats the *payload type* as the RTP message type.
//! Every 7-bit payload type is representable and the paper counts even
//! exotic static types (Zoom's PT 0/3/4/…) as compliant, so criterion 1
//! never fires for RTP; the violations it reports come from header
//! extensions — undefined profile identifiers (criterion 3, FaceTime and
//! Discord) and reserved-ID misuse (criterion 4, Discord).

use crate::registry;
use crate::{Rule, TypeKey, Violation};
use rtc_dpi::{DatagramDissection, DpiMessage};
use rtc_wire::rtp::Packet;

/// Judge one RTP message.
pub fn check_rtp(_dgram: &DatagramDissection, msg: &DpiMessage) -> (TypeKey, Option<Violation>) {
    let parsed = match Packet::new_checked(&msg.data) {
        Ok(p) => p,
        Err(e) => return (TypeKey::Rtp(0), Some(Violation::from_wire(Rule::RtpUnparsed, e))),
    };
    let key = TypeKey::Rtp(parsed.payload_type());

    // Criterion 1: all 7-bit payload types are representable; types 72–79
    // would collide with RTCP, but the DPI demux already excludes them.
    // Criterion 2: version/padding/CSRC consistency is guaranteed by the
    // checked parse above.

    if let Some(ext) = parsed.extension() {
        #[cfg(feature = "cov-probes")]
        {
            if ext.is_one_byte_form() {
                rtc_cov::probe!("compliance.rtp.ext-one-byte");
            } else {
                rtc_cov::probe!("compliance.rtp.ext-two-byte");
            }
        }
        // Criterion 3: the extension mechanism must be a defined one.
        if !registry::rtp_ext_profile_defined(ext.profile) {
            return (key, Some(Violation::new(Rule::RtpExtProfileUndefined).with_ty(ext.profile)));
        }
        // Criterion 4: element-level rules.
        if ext.is_one_byte_form() {
            for el in ext.one_byte_elements() {
                if el.id == 0 && (el.wire_len > 0 || !el.data.is_empty()) {
                    return (key, Some(Violation::new(Rule::RtpExtReservedId)));
                }
                if el.data.len() != el.wire_len as usize + 1 {
                    return (key, Some(Violation::new(Rule::RtpExtOneByteTruncated)));
                }
            }
        } else {
            for el in ext.two_byte_elements() {
                if el.data.len() != el.wire_len as usize {
                    return (key, Some(Violation::new(Rule::RtpExtTwoByteTruncated)));
                }
            }
        }
    }

    (key, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Criterion;
    use bytes::Bytes;
    use rtc_dpi::{CandidateKind, DatagramClass, Protocol};
    use rtc_pcap::Timestamp;
    use rtc_wire::ip::FiveTuple;
    use rtc_wire::rtp::{PacketBuilder, ONE_BYTE_PROFILE};

    fn wrap(data: Vec<u8>) -> (DatagramDissection, DpiMessage) {
        let msg = DpiMessage {
            protocol: Protocol::Rtp,
            kind: CandidateKind::Rtp { ssrc: 1, payload_type: 96, seq: 0 },
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
            class: DatagramClass::Standard,
            prop_header_len: 0,
        };
        (dgram, msg)
    }

    #[test]
    fn plain_rtp_is_compliant() {
        let (d, m) = wrap(PacketBuilder::new(111, 1, 2, 3).payload(vec![0; 40]).build());
        let (key, v) = check_rtp(&d, &m);
        assert_eq!(key, TypeKey::Rtp(111));
        assert!(v.is_none());
    }

    #[test]
    fn compliant_one_byte_extension() {
        let (d, m) = wrap(
            PacketBuilder::new(111, 1, 2, 3)
                .one_byte_extension(&[(1, &[0x30]), (3, &[1, 2])])
                .payload(vec![0; 40])
                .build(),
        );
        assert!(check_rtp(&d, &m).1.is_none());
    }

    #[test]
    fn undefined_profile_fails() {
        let (d, m) =
            wrap(PacketBuilder::new(104, 1, 2, 3).extension(0x8D00, vec![1, 2, 3, 4]).payload(vec![0; 40]).build());
        let v = check_rtp(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeTypesDefined);
        assert!(v.to_string().contains("0x8d00"), "{v}");
    }

    #[test]
    fn reserved_id_zero_fails() {
        let mut data = vec![0x02u8];
        data.extend_from_slice(&[7, 8, 9]);
        let (d, m) =
            wrap(PacketBuilder::new(120, 1, 2, 3).extension(ONE_BYTE_PROFILE, data).payload(vec![0; 4]).build());
        let v = check_rtp(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeValuesValid);
    }

    #[test]
    fn zoom_static_payload_types_are_compliant() {
        for pt in [0u8, 3, 13, 33, 95, 110, 127] {
            let (d, m) = wrap(PacketBuilder::new(pt, 1, 2, 3).payload(vec![0; 20]).build());
            let (key, v) = check_rtp(&d, &m);
            assert_eq!(key, TypeKey::Rtp(pt));
            assert!(v.is_none(), "pt {pt}");
        }
    }
}
