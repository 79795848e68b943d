//! QUIC compliance checks (RFC 9000 header invariants).
//!
//! QUIC payloads are always encrypted, so only header fields are judged:
//! the fixed bit, a known version, and connection-ID lengths. The paper
//! found all observed QUIC traffic (FaceTime's) fully compliant.

use crate::{Rule, TypeKey, Violation};
use rtc_dpi::{CandidateKind, DatagramDissection, DpiMessage};
use rtc_wire::quic::{LongHeaderRef, ShortHeader};

/// Judge one QUIC packet (long or short header).
pub fn check_quic(_dgram: &DatagramDissection, msg: &DpiMessage) -> (TypeKey, Option<Violation>) {
    match &msg.kind {
        CandidateKind::QuicLong { .. } => {
            rtc_cov::probe!("compliance.quic.long");
            let parsed = match LongHeaderRef::parse(&msg.data) {
                Ok(h) => h,
                Err(e) => return (TypeKey::QuicLong(0), Some(Violation::from_wire(Rule::QuicLongUnparsed, e))),
            };
            let key = TypeKey::QuicLong(parsed.long_type.bits());
            // Criterion 2: the fixed bit MUST be 1 (RFC 9000 §17.2) and
            // connection IDs are capped at 20 bytes (§17.2).
            if !parsed.fixed_bit {
                return (key, Some(Violation::new(Rule::QuicLongFixedBit)));
            }
            if parsed.dcid.len() > 20 || parsed.scid.len() > 20 {
                return (key, Some(Violation::new(Rule::QuicCidLength)));
            }
            (key, None)
        }
        CandidateKind::QuicShortProbe => {
            rtc_cov::probe!("compliance.quic.short");
            let key = TypeKey::QuicShort;
            // The DPI validated the DCID against the stream's connection
            // IDs; here the fixed bit is re-checked on the first byte.
            match ShortHeader::parse(&msg.data, 0) {
                Ok(h) if h.fixed_bit => (key, None),
                Ok(_) => (key, Some(Violation::new(Rule::QuicShortFixedBit))),
                Err(e) => (key, Some(Violation::from_wire(Rule::QuicShortUnparsed, e))),
            }
        }
        _ => (TypeKey::QuicShort, Some(Violation::new(Rule::NotQuic))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Criterion;
    use bytes::Bytes;
    use rtc_dpi::{DatagramClass, Protocol};
    use rtc_pcap::Timestamp;
    use rtc_wire::ip::FiveTuple;
    use rtc_wire::quic::{LongHeader, LongType, VERSION_1};

    fn wrap(kind: CandidateKind, data: Vec<u8>) -> (DatagramDissection, DpiMessage) {
        let msg = DpiMessage { protocol: Protocol::Quic, kind, offset: 0, data: Bytes::from(data), nested: false };
        let dgram = DatagramDissection {
            ts: Timestamp::ZERO,
            stream: FiveTuple::udp("10.0.0.1:1".parse().unwrap(), "1.2.3.4:2".parse().unwrap()),
            payload_len: 0,
            messages: vec![],
            prefix: Bytes::new(),
            trailing: Bytes::new(),
            class: DatagramClass::Standard,
            prop_header_len: 0,
        };
        (dgram, msg)
    }

    #[test]
    fn compliant_long_header() {
        let h = LongHeader {
            fixed_bit: true,
            long_type: LongType::Initial,
            type_specific: 0,
            version: VERSION_1,
            dcid: vec![1; 8],
            scid: vec![2; 8],
            header_len: 0,
        };
        let (d, m) = wrap(CandidateKind::QuicLong { version: VERSION_1 }, h.build());
        let (key, v) = check_quic(&d, &m);
        assert_eq!(key, TypeKey::QuicLong(0));
        assert!(v.is_none());
    }

    #[test]
    fn cleared_fixed_bit_fails() {
        let h = LongHeader {
            fixed_bit: false,
            long_type: LongType::Handshake,
            type_specific: 0,
            version: VERSION_1,
            dcid: vec![],
            scid: vec![],
            header_len: 0,
        };
        let (d, m) = wrap(CandidateKind::QuicLong { version: VERSION_1 }, h.build());
        let v = check_quic(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::HeaderFieldsValid);
    }

    #[test]
    fn oversized_cid_fails() {
        let h = LongHeader {
            fixed_bit: true,
            long_type: LongType::Initial,
            type_specific: 0,
            version: VERSION_1,
            dcid: vec![1; 21],
            scid: vec![],
            header_len: 0,
        };
        // The DPI drops >20-byte CIDs at extraction (RFC 9000 §17.2), but
        // the checker re-parses the wire bytes and must still flag them if
        // handed such a message directly.
        let (d, m) = wrap(CandidateKind::QuicLong { version: VERSION_1 }, h.build());
        assert!(check_quic(&d, &m).1.is_some());
    }

    #[test]
    fn compliant_short_header() {
        let h = ShortHeader { fixed_bit: true, spin: true, dcid: vec![], header_len: 0 };
        let mut bytes = h.build();
        bytes.extend_from_slice(&[0; 20]);
        let (d, m) = wrap(CandidateKind::QuicShortProbe, bytes);
        let (key, v) = check_quic(&d, &m);
        assert_eq!(key, TypeKey::QuicShort);
        assert!(v.is_none());
    }
}
