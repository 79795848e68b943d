//! RTCP / SRTCP compliance checks.
//!
//! Two regimes per carrying datagram, decided by its trailing bytes:
//!
//! * **Plaintext RTCP** (no trailing bytes): the packet bodies are visible,
//!   so structure (count vs. length, SDES item walking, feedback formats)
//!   is fully verified.
//! * **SRTCP** (trailing bytes parse as an RFC 3711 trailer): the body
//!   beyond the first 8 bytes is ciphertext, so only the plaintext header
//!   and the trailer are judged. RFC 3711 §3.4 makes the authentication
//!   tag mandatory — Google Meet's relayed-Wi-Fi messages omit it (a
//!   criterion-4 violation, §5.2.3).
//!
//! Trailing bytes that are *not* a plausible SRTCP trailer (e.g. Discord's
//! 3-byte counter + direction flag, §5.2.3/§5.3) are undefined syntax — a
//! criterion-5 violation.

use crate::registry;
use crate::{Rule, TypeKey, Violation};
use rtc_dpi::{DatagramDissection, DpiMessage};
use rtc_wire::rtcp::{self, Packet, SdesEntry};

/// How the carrying datagram's trailing bytes classify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailerKind {
    /// No trailing bytes: plaintext RTCP.
    None,
    /// An SRTCP trailer with the given auth-tag length.
    Srtcp {
        /// Bytes of authentication tag following the 4-byte index word.
        auth_tag_len: usize,
    },
    /// Trailing bytes that match no defined trailer syntax.
    Undefined {
        /// How many trailing bytes were left unexplained.
        len: usize,
    },
}

/// Classify a datagram's trailing bytes.
pub fn classify_trailer(trailing: &[u8]) -> TrailerKind {
    #[cfg(feature = "cov-probes")]
    {
        match trailing.len() {
            0 => rtc_cov::probe!("compliance.trailer.none"),
            4 | 8 | 14 | 20 => rtc_cov::probe!("compliance.trailer.srtcp"),
            _ => rtc_cov::probe!("compliance.trailer.undefined"),
        }
    }
    match trailing.len() {
        0 => TrailerKind::None,
        // An SRTCP trailer is the 4-byte E||index word plus an
        // authentication tag. Plausible tags are 0 (the violation the paper
        // observed), 4 (HMAC-SHA1-32), 10 (HMAC-SHA1-80, default) or 16
        // (GCM); anything else is not SRTCP.
        4 => TrailerKind::Srtcp { auth_tag_len: 0 },
        8 => TrailerKind::Srtcp { auth_tag_len: 4 },
        14 => TrailerKind::Srtcp { auth_tag_len: 10 },
        20 => TrailerKind::Srtcp { auth_tag_len: 16 },
        n => TrailerKind::Undefined { len: n },
    }
}

/// Judge one RTCP packet.
pub fn check_rtcp(dgram: &DatagramDissection, msg: &DpiMessage) -> (TypeKey, Option<Violation>) {
    let parsed = match Packet::new_checked(&msg.data) {
        Ok(p) => p,
        Err(e) => return (TypeKey::Rtcp(0), Some(Violation::from_wire(Rule::RtcpUnparsed, e))),
    };
    let pt = parsed.packet_type();
    let key = TypeKey::Rtcp(pt);

    // Criterion 1: packet type defined.
    if !registry::rtcp_type_defined(pt) {
        return (key, Some(Violation::new(Rule::RtcpTypeUndefined).with_ty(pt.into())));
    }

    // Criterion 2: header consistency — the count field must fit the
    // declared length (these header fields stay in the clear even under
    // SRTCP).
    let body_len = parsed.body().len();
    let count = parsed.count() as usize;
    let min_body = match pt {
        200 => 24 + 24 * count,
        201 => 4 + 24 * count,
        202 => 4 * count, // at least an SSRC per chunk
        203 => 4 * count,
        204 => 8,
        205 | 206 => 8,
        _ => 4,
    };
    if body_len < min_body {
        return (key, Some(Violation::new(Rule::RtcpCountLength).with_ty(count as u16).with_n(body_len as u32)));
    }

    let trailer = classify_trailer(&dgram.trailing);
    let encrypted = matches!(trailer, TrailerKind::Srtcp { .. });
    #[cfg(feature = "cov-probes")]
    {
        if encrypted {
            rtc_cov::probe!("compliance.rtcp.srtcp-regime");
        }
    }

    // Criteria 3/4 on packet internals — only meaningful in plaintext.
    if !encrypted {
        match pt {
            202 => {
                // Walk the whole packet before judging its items: a walk
                // that fails anywhere is a criterion-4 failure, which
                // outranks an undefined item before it.
                let mut undefined = None;
                let walk = rtcp::Sdes::walk(&parsed, |entry| {
                    if let SdesEntry::Item { kind, .. } = entry {
                        if undefined.is_none() && !registry::sdes_item_defined(kind) {
                            undefined = Some(kind);
                        }
                    }
                });
                if walk.is_err() {
                    return (key, Some(Violation::new(Rule::RtcpSdesWalk)));
                }
                if let Some(item) = undefined {
                    return (key, Some(Violation::new(Rule::RtcpSdesItemUndefined).with_ty(item.into())));
                }
            }
            204 => {
                let body = parsed.body();
                if body.len() >= 8 && !body[4..8].iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
                    return (key, Some(Violation::new(Rule::RtcpAppName)));
                }
            }
            205 if !registry::rtpfb_fmt_defined(parsed.count()) => {
                return (key, Some(Violation::new(Rule::RtcpRtpfbUndefined).with_ty(parsed.count().into())));
            }
            206 if !registry::psfb_fmt_defined(parsed.count()) => {
                return (key, Some(Violation::new(Rule::RtcpPsfbUndefined).with_ty(parsed.count().into())));
            }
            207 => {
                // Walk XR blocks: type(1) reserved(1) length(2 words).
                let body = parsed.body();
                let mut o = 4;
                while o + 4 <= body.len() {
                    let block = body[o];
                    if !registry::xr_block_defined(block) {
                        return (key, Some(Violation::new(Rule::RtcpXrBlockUndefined).with_ty(block.into())));
                    }
                    let words = u16::from_be_bytes([body[o + 2], body[o + 3]]) as usize;
                    o += 4 + 4 * words;
                }
            }
            _ => {}
        }
    }

    // Criterion 4 (SRTCP): the authentication tag is mandatory (RFC 3711).
    if let TrailerKind::Srtcp { auth_tag_len } = trailer {
        if auth_tag_len == 0 {
            return (key, Some(Violation::new(Rule::SrtcpNoAuthTag)));
        }
    }

    // Criterion 5: unexplained trailing bytes after the compound.
    if let TrailerKind::Undefined { len } = trailer {
        return (key, Some(Violation::new(Rule::RtcpTrailerUndefined).with_n(len as u32)));
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

    fn wrap(data: Vec<u8>, trailing: Vec<u8>) -> (DatagramDissection, DpiMessage) {
        let msg = DpiMessage {
            protocol: Protocol::Rtcp,
            kind: CandidateKind::Rtcp { packet_type: data[1], count: data[0] & 0x1F },
            offset: 0,
            data: Bytes::from(data),
            nested: false,
        };
        let dgram = DatagramDissection {
            ts: Timestamp::ZERO,
            stream: FiveTuple::udp("10.0.0.1:1".parse().unwrap(), "1.2.3.4:2".parse().unwrap()),
            payload_len: 0,
            messages: vec![],
            prefix: Bytes::new(),
            trailing: Bytes::from(trailing),
            class: DatagramClass::Standard,
            prop_header_len: 0,
        };
        (dgram, msg)
    }

    fn sample_sr() -> Vec<u8> {
        rtcp::SenderReport {
            ssrc: 7,
            ntp_timestamp: 1,
            rtp_timestamp: 2,
            packet_count: 3,
            octet_count: 4,
            reports: vec![],
        }
        .build()
    }

    #[test]
    fn plaintext_sr_is_compliant() {
        let (d, m) = wrap(sample_sr(), vec![]);
        let (key, v) = check_rtcp(&d, &m);
        assert_eq!(key, TypeKey::Rtcp(200));
        assert!(v.is_none());
    }

    #[test]
    fn srtcp_with_tag_is_compliant() {
        let trailer = rtcp::SrtcpTrailer { encrypted: true, index: 9, auth_tag_len: 10 }.build(1);
        let (d, m) = wrap(sample_sr(), trailer);
        assert!(check_rtcp(&d, &m).1.is_none());
    }

    #[test]
    fn srtcp_missing_tag_fails_criterion_four() {
        let trailer = rtcp::SrtcpTrailer { encrypted: true, index: 9, auth_tag_len: 0 }.build(1);
        let (d, m) = wrap(sample_sr(), trailer);
        let v = check_rtcp(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeValuesValid);
        assert!(v.to_string().contains("authentication tag"));
    }

    #[test]
    fn discord_three_byte_trailer_fails_criterion_five() {
        let (d, m) = wrap(sample_sr(), vec![0x00, 0x2A, 0x80]);
        let v = check_rtcp(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::SyntaxSemanticIntegrity);
    }

    #[test]
    fn count_length_mismatch_fails_criterion_two() {
        // SR claiming 2 report blocks but carrying none.
        let mut sr = sample_sr();
        sr[0] = (sr[0] & 0xE0) | 2;
        let (d, m) = wrap(sr, vec![]);
        let v = check_rtcp(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::HeaderFieldsValid);
    }

    #[test]
    fn undefined_fb_fmt_fails_criterion_three() {
        let fb = rtcp::Feedback {
            packet_type: rtcp::packet_type::RTPFB,
            fmt: 12, // unassigned
            sender_ssrc: 1,
            media_ssrc: 2,
            fci: vec![0; 4],
        }
        .build();
        let (d, m) = wrap(fb, vec![]);
        let v = check_rtcp(&d, &m).1.unwrap();
        assert_eq!(v.criterion(), Criterion::AttributeTypesDefined);
    }

    #[test]
    fn scrambled_sdes_under_srtcp_is_not_penalized() {
        // A type-202 packet with ciphertext body but a full SRTCP trailer.
        let mut body = 7u32.to_be_bytes().to_vec();
        body.extend_from_slice(&[0xA7; 12]); // ciphertext
        let pkt = rtcp::build_raw(1, 202, &body);
        let trailer = rtcp::SrtcpTrailer { encrypted: true, index: 3, auth_tag_len: 10 }.build(2);
        let (d, m) = wrap(pkt, trailer);
        assert!(check_rtcp(&d, &m).1.is_none());
    }

    #[test]
    fn scrambled_sdes_in_plaintext_fails() {
        let mut body = 7u32.to_be_bytes().to_vec();
        body.extend_from_slice(&[0xA7; 12]);
        let pkt = rtcp::build_raw(1, 202, &body);
        let (d, m) = wrap(pkt, vec![]);
        assert!(check_rtcp(&d, &m).1.is_some());
    }
}
