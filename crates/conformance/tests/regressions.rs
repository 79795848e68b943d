//! Named regression vectors for the bugs this harness flushed out.
//!
//! Each test pins one fixed bug with the concrete input that used to
//! trigger it. Keep the names stable — CHANGES.md and the DESIGN notes
//! refer to them.

use bytes::Bytes;
use rtc_filter::{FilterConfig, Window};
use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_wire::ip::{FiveTuple, Transport};

const WINDOW: (Timestamp, Timestamp) = (Timestamp::from_secs(60), Timestamp::from_secs(360));

fn dg(ts_us: u64, src: &str, dst: &str, transport: Transport, payload: &[u8]) -> Datagram {
    Datagram {
        ts: Timestamp::from_micros(ts_us),
        five_tuple: FiveTuple { src: src.parse().unwrap(), dst: dst.parse().unwrap(), transport },
        payload: Bytes::copy_from_slice(payload),
    }
}

/// Bug: the filter's RTC UDP output flattened streams in BTreeMap
/// (5-tuple) order, so downstream DPI saw all of one stream before any of
/// another even when their datagrams interleaved in capture time.
#[test]
fn regression_interleaved_streams_merge_by_capture_time() {
    // Tuple order ("10.0.0.1" < "10.0.0.9") is the opposite of time order.
    let d = vec![
        dg(100_000_000, "10.0.0.9:700", "1.2.3.4:200", Transport::Udp, b"first"),
        dg(101_000_000, "10.0.0.1:600", "1.2.3.4:200", Transport::Udp, b"second"),
        dg(102_000_000, "10.0.0.9:700", "1.2.3.4:200", Transport::Udp, b"third"),
    ];
    let r = rtc_filter::run(&d, WINDOW, &FilterConfig::default());
    let order: Vec<&[u8]> = r.accepted_udp.iter().map(|d| d.payload.as_ref()).collect();
    assert_eq!(order, vec![&b"first"[..], b"second", b"third"]);
}

/// Bug: stage 1 and the stage-2 out-of-window observation loop each wrote
/// their own boundary comparisons; a datagram stamped exactly at a window
/// edge depended on which copy of the logic looked at it. The semantics
/// now live in one closed-interval predicate.
#[test]
fn regression_window_boundary_is_closed_on_both_edges() {
    let w = Window::around(WINDOW, 2_000_000);
    let lo = w.lo.as_micros();
    let hi = w.hi.as_micros();
    let edge = vec![
        dg(lo, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
        dg(hi, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
    ];
    let r = rtc_filter::run(&edge, WINDOW, &FilterConfig::default());
    assert_eq!(r.rtc.udp_streams, 1, "exact-boundary datagrams are in-window");
    assert!(r.stage2_heuristics.is_empty(), "and are not out-of-window observations either");

    let past = vec![
        dg(lo - 1, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
        dg(hi + 1, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
    ];
    let r = rtc_filter::run(&past, WINDOW, &FilterConfig::default());
    assert_eq!(r.rtc.udp_streams, 0, "1 µs past either edge is out-of-window");
}

/// Bug: `stream_sni` (and blocklist derivation) only tried each TCP
/// segment in isolation, so a ClientHello spanning a segment boundary
/// parsed as truncated everywhere and blocklisted flows survived.
#[test]
fn regression_split_client_hello_reassembled_before_sni_match() {
    let hello = rtc_wire::tls::build_client_hello(Some("ads.doubleclick.net"), [3; 32]);
    for split in [1, 5, hello.len() / 2, hello.len() - 1] {
        let (a, b) = hello.split_at(split);
        let d = vec![
            dg(100_000_000, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, a),
            dg(100_050_000, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, b),
        ];
        let r = rtc_filter::run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc.tcp_streams, 0, "split at {split}: blocklisted SNI must be filtered");
        assert_eq!(r.stage2_heuristics.get(&rtc_filter::Heuristic::TlsSni), Some(&1), "split at {split}");
        assert_eq!(rtc_filter::derive_sni_blocklist(&d).len(), 1, "split at {split}");
    }
}

/// Bug: `Stream::first_ts`/`last_ts` returned `Timestamp::ZERO` for empty
/// streams, which read as "active since before any call window". They now
/// return `Option`.
#[test]
fn regression_empty_stream_timespan_is_none() {
    let s = rtc_filter::Stream {
        tuple: FiveTuple::udp("10.0.0.1:1".parse().unwrap(), "1.2.3.4:2".parse().unwrap()),
        datagrams: vec![],
    };
    assert_eq!(s.first_ts(), None);
    assert_eq!(s.last_ts(), None);
}

/// Bug class pinned by the error-taxonomy migration: parser rejections
/// used to be bare strings, so the DPI could not aggregate *why* datagrams
/// were non-standard. These vectors pin the taxonomy keys the study report
/// now surfaces.
#[test]
fn regression_rejection_taxonomy_keys_are_stable() {
    // A STUN-classed payload with an unaligned length field.
    let mut stun = rtc_wire::stun::MessageBuilder::new(0x0001, [7; 12]).build();
    stun[3] = 3;
    stun.extend_from_slice(&[0; 3]);
    assert_eq!(rtc_dpi::rejection_key(&stun), "stun: length alignment");
    // A QUIC long header cut short.
    assert_eq!(rtc_dpi::rejection_key(&[0xDE; 10]), "quic: truncated");
    // Not parseable as anything; empty input has its own bucket.
    assert_eq!(rtc_dpi::rejection_key(&[]), "empty payload");
}
