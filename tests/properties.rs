//! Property-based tests over the whole stack: the parsers, the DPI, the
//! filter and the compliance checker must be total (no panics) and must
//! uphold their structural invariants for *arbitrary* inputs, not just the
//! traffic our emulators produce.

use bytes::Bytes;
use rtc_conformance::{check_cases, SplitMix64};
use rtc_core::pcap::trace::Datagram;
use rtc_core::pcap::Timestamp;
use rtc_core::wire::ip::{FiveTuple, Transport};

/// Cases per property.
const CASES: u32 = 96;

fn arb_tuple(rng: &mut SplitMix64) -> FiveTuple {
    let a = (rng.next_u64() as u32).to_be_bytes();
    let pa = rng.in_range(1..65_535u16);
    let b = (rng.next_u64() as u32).to_be_bytes();
    let pb = rng.in_range(1..65_535u16);
    let udp = rng.below(2) == 1;
    let src = std::net::SocketAddr::new(std::net::Ipv4Addr::from(a).into(), pa);
    let dst = std::net::SocketAddr::new(std::net::Ipv4Addr::from(b).into(), pb);
    FiveTuple { src, dst, transport: if udp { Transport::Udp } else { Transport::Tcp } }
}

fn arb_datagram(rng: &mut SplitMix64) -> Datagram {
    let ts = rng.in_range(0u64..600_000_000);
    let five_tuple = arb_tuple(rng);
    Datagram { ts: Timestamp::from_micros(ts), five_tuple, payload: Bytes::from(rng.bytes(0..600)) }
}

fn arb_datagrams(rng: &mut SplitMix64, max: usize) -> Vec<Datagram> {
    (0..rng.in_range(0..max)).map(|_| arb_datagram(rng)).collect()
}

// ---------------- wire-format totality -------------------------------

#[test]
fn stun_parser_never_panics() {
    check_cases("stun_parser_never_panics", CASES, |rng| {
        let bytes = rng.bytes(0..256);
        if let Ok(m) = rtc_core::wire::stun::Message::new_checked(&bytes) {
            // Accessors must stay in bounds for accepted inputs.
            let _ = m.message_type();
            let _ = m.transaction_id();
            for a in m.attributes() {
                let _ = a;
            }
        }
        let _ = rtc_core::wire::stun::ChannelData::new_checked(&bytes);
    });
}

#[test]
fn rtp_rtcp_parsers_never_panic() {
    check_cases("rtp_rtcp_parsers_never_panic", CASES, |rng| {
        let bytes = rng.bytes(0..512);
        if let Ok(p) = rtc_core::wire::rtp::Packet::new_checked(&bytes) {
            let _ = p.payload();
            let _ = p.csrcs().count();
            if let Some(ext) = p.extension() {
                let _ = ext.elements();
            }
        }
        let (packets, trailer) = rtc_core::wire::rtcp::split_compound(&bytes);
        let consumed: usize = packets.iter().map(|p| p.wire_len()).sum();
        assert_eq!(consumed + trailer.len(), bytes.len());
    });
}

#[test]
fn quic_and_tls_parsers_never_panic() {
    check_cases("quic_and_tls_parsers_never_panic", CASES, |rng| {
        let bytes = rng.bytes(0..256);
        let _ = rtc_core::wire::quic::LongHeader::parse(&bytes);
        let _ = rtc_core::wire::quic::ShortHeader::parse(&bytes, 8);
        let _ = rtc_core::wire::tls::client_hello_sni(&bytes);
    });
}

#[test]
fn ethernet_roundtrip_arbitrary_payload() {
    check_cases("ethernet_roundtrip_arbitrary_payload", CASES, |rng| {
        let tuple = arb_tuple(rng);
        let payload = rng.bytes(0..900);
        let frame = rtc_core::wire::ip::build_ethernet_packet(&tuple, &payload, 7);
        let parsed = rtc_core::wire::ip::parse_ethernet_packet(&frame).unwrap();
        assert_eq!(parsed.five_tuple, tuple);
        assert_eq!(parsed.payload, &payload[..]);
    });
}

// ---------------- STUN builder/parser identity ------------------------

#[test]
fn stun_build_parse_roundtrip() {
    check_cases("stun_build_parse_roundtrip", CASES, |rng| {
        let message_type = rng.in_range(0u16..0x3FFF);
        let txid: [u8; 12] = rng.bytes(12..=12).try_into().unwrap();
        let attrs: Vec<(u16, Vec<u8>)> =
            (0..rng.in_range(0..6)).map(|_| (rng.next_u64() as u16, rng.bytes(0..40))).collect();
        let mut b = rtc_core::wire::stun::MessageBuilder::new(message_type, txid);
        for (t, v) in &attrs {
            b = b.attribute(*t, v.clone());
        }
        let bytes = b.build();
        let m = rtc_core::wire::stun::Message::new_checked(&bytes).unwrap();
        assert_eq!(m.message_type(), message_type);
        assert_eq!(m.transaction_id(), &txid);
        let parsed: Vec<_> = m.attributes().collect::<Result<_, _>>().unwrap();
        assert_eq!(parsed.len(), attrs.len());
        for (got, (t, v)) in parsed.iter().zip(&attrs) {
            assert_eq!(got.typ, *t);
            assert_eq!(got.value, &v[..]);
        }
    });
}

#[test]
fn rtp_build_parse_roundtrip() {
    check_cases("rtp_build_parse_roundtrip", CASES, |rng| {
        let pt = rng.in_range(0u8..128);
        let seq = rng.next_u64() as u16;
        let ts = rng.next_u64() as u32;
        let ssrc = rng.next_u64() as u32;
        let marker = rng.below(2) == 1;
        let payload = rng.bytes(0..300);
        let bytes = rtc_core::wire::rtp::PacketBuilder::new(pt, seq, ts, ssrc)
            .marker(marker)
            .payload(payload.clone())
            .build();
        let p = rtc_core::wire::rtp::Packet::new_checked(&bytes).unwrap();
        assert_eq!(p.payload_type(), pt);
        assert_eq!(p.sequence_number(), seq);
        assert_eq!(p.timestamp(), ts);
        assert_eq!(p.ssrc(), ssrc);
        assert_eq!(p.marker(), marker);
        assert_eq!(p.payload(), &payload[..]);
    });
}

// ---------------- DPI totality and invariants -------------------------

#[test]
fn dpi_never_panics_and_messages_stay_in_bounds() {
    check_cases("dpi_never_panics_and_messages_stay_in_bounds", CASES, |rng| {
        let d = arb_datagrams(rng, 24);
        let out = rtc_core::dpi::dissect_call(&d, &rtc_core::dpi::DpiConfig::default());
        assert_eq!(out.datagrams.len(), d.len());
        let rejected: usize = out.rejections.values().sum();
        assert!(rejected <= d.len(), "rejection taxonomy counts more datagrams than exist");
        for (dd, orig) in out.datagrams.iter().zip(&d) {
            assert_eq!(dd.payload_len, orig.payload.len());
            let mut free = 0usize;
            for m in &dd.messages {
                assert!(m.offset + m.data.len() <= orig.payload.len());
                if !m.nested {
                    // Top-level messages never overlap.
                    assert!(m.offset >= free, "overlap at {}", m.offset);
                    free = m.offset + m.data.len();
                }
            }
            if dd.messages.is_empty() {
                assert_eq!(dd.class, rtc_core::dpi::DatagramClass::FullyProprietary);
            }
        }
    });
}

#[test]
fn embedded_rtp_is_recovered_at_any_offset() {
    check_cases("embedded_rtp_is_recovered_at_any_offset", CASES, |rng| {
        let prefix_len = rng.in_range(0usize..150);
        let ssrc = rng.in_range(1u32..u32::MAX);
        // A proprietary prefix of low-valued bytes (no version-2 aliasing)
        // followed by a well-formed RTP stream must always be recovered.
        let mut dgrams = Vec::new();
        for i in 0..6u16 {
            let mut payload: Vec<u8> = (0..prefix_len).map(|j| (j % 0x30) as u8).collect();
            payload.extend(
                rtc_core::wire::rtp::PacketBuilder::new(96, 100 + i, 0, ssrc).payload(vec![0xEE; 40]).build(),
            );
            dgrams.push(Datagram {
                ts: Timestamp::from_millis(i as u64 * 20),
                five_tuple: FiveTuple::udp("10.0.0.1:5000".parse().unwrap(), "1.2.3.4:6000".parse().unwrap()),
                payload: Bytes::from(payload),
            });
        }
        let out = rtc_core::dpi::dissect_call(&dgrams, &rtc_core::dpi::DpiConfig::default());
        for dd in &out.datagrams {
            assert_eq!(dd.messages.len(), 1);
            assert_eq!(dd.messages[0].offset, prefix_len);
            let expected = if prefix_len == 0 {
                rtc_core::dpi::DatagramClass::Standard
            } else {
                rtc_core::dpi::DatagramClass::ProprietaryHeader
            };
            assert_eq!(dd.class, expected);
            assert_eq!(dd.prop_header_len, prefix_len);
        }
    });
}

// ---------------- filter invariants ------------------------------------

#[test]
fn filter_partitions_streams() {
    check_cases("filter_partitions_streams", CASES, |rng| {
        let d = arb_datagrams(rng, 40);
        let window = (Timestamp::from_secs(60), Timestamp::from_secs(360));
        let r = rtc_core::filter::run(&d, window, &rtc_core::filter::FilterConfig::default());
        let buckets = [r.stage1, r.stage2, r.rtc];
        let sum = |field: fn(&rtc_core::filter::StageStats) -> usize| buckets.iter().map(field).sum::<usize>();
        assert_eq!(r.raw.udp_streams, sum(|s| s.udp_streams), "every UDP stream in exactly one bucket");
        assert_eq!(r.raw.tcp_streams, sum(|s| s.tcp_streams), "every TCP stream in exactly one bucket");
        assert_eq!(r.raw.udp_datagrams, sum(|s| s.udp_datagrams));
        assert_eq!(r.raw.tcp_segments, sum(|s| s.tcp_segments));
        assert_eq!(r.raw.udp_datagrams + r.raw.tcp_segments, d.len(), "every datagram in exactly one bucket");
        assert_eq!(r.accepted_udp.len(), r.rtc.udp_datagrams, "every datagram of a kept UDP stream is handed on");
        // Kept streams honor the expanded call window.
        let expanded = Timestamp::from_secs(58)..=Timestamp::from_secs(362);
        assert!(r.accepted_udp.iter().all(|x| expanded.contains(&x.ts)));
    });
}

// ---------------- compliance invariants ---------------------------------

#[test]
fn checker_is_total_and_consistent() {
    check_cases("checker_is_total_and_consistent", CASES, |rng| {
        let d = arb_datagrams(rng, 24);
        let dis = rtc_core::dpi::dissect_call(&d, &rtc_core::dpi::DpiConfig::default());
        let checked = rtc_core::compliance::check_call(&dis);
        let n_messages = dis.datagrams.iter().map(|x| x.messages.len()).sum::<usize>();
        assert_eq!(checked.messages.len(), n_messages);
        let v = checked.volume_compliance();
        assert!((0.0..=1.0).contains(&v));
    });
}
