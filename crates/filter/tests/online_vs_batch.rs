//! Differential tests: the online filter ([`OnlineFilter`], which
//! [`rtc_filter::run`] and every production caller drive) must be
//! observationally equivalent to the batch pipeline it replaced
//! (`support/reference.rs`) on every input the study can produce — same
//! accepted RTC UDP datagrams in the same order, same per-stage
//! statistics, same stage-2 heuristic attribution — while retaining at
//! most what the batch run holds. These tests pin the only place the two
//! can diverge: the monotone payload-drop ("doomed stream") logic and its
//! sweeps.

#[path = "support/reference.rs"]
mod reference;

use std::collections::BTreeMap;

use bytes::Bytes;
use reference::{assert_matches_reference, run_reference};
use rtc_capture::{run_call, ExperimentConfig};
use rtc_conformance::check_cases;
use rtc_filter::{run, FilterConfig, Heuristic, OnlineFilter, OnlineOutcome, Retention};
use rtc_netemu::NetworkConfig;
use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_wire::ip::{FiveTuple, Transport};

/// Run the online filter over `datagrams` and assert every observable
/// output agrees with the batch reference. Returns the online outcome so
/// callers can make memory-bound assertions on top.
fn assert_equivalent(datagrams: &[Datagram], window: (Timestamp, Timestamp), config: &FilterConfig) -> OnlineOutcome {
    let streamed = run(datagrams, window, config);
    assert_matches_reference(&streamed, &run_reference(datagrams, window, config));
    streamed
}

#[test]
fn streaming_matches_batch_on_generated_calls() {
    // Real emulated captures: every app of the smoke matrix over a relay
    // and a P2P network, i.e. the exact traffic mix the study feeds the
    // filter (media, STUN/TURN handshakes, background noise, pre/post-call
    // activity).
    let config = ExperimentConfig::smoke(11);
    for app in config.applications() {
        for network in [NetworkConfig::WifiRelay, NetworkConfig::WifiP2p] {
            let capture = run_call(&config, app, network, 0);
            let datagrams = capture.trace.datagrams();
            let window = capture.manifest.call_window();
            let peak = assert_equivalent(&datagrams, window, &FilterConfig::default()).peak_retained_bytes;
            // Each capture carries background traffic the filter rejects;
            // the streaming mode must have shed at least some of it.
            let total: usize = datagrams.iter().map(|d| d.payload.len()).sum();
            assert!(
                peak < total,
                "{} / {}: streaming retained every byte ({peak} of {total})",
                app.slug(),
                network.label()
            );
        }
    }
}

#[test]
fn streaming_is_insensitive_to_cross_stream_arrival_order() {
    // Interleave the capture's streams in a pseudo-random order while
    // preserving each stream's internal order (what out-of-order delivery
    // across flows looks like). Classification and output must not move.
    let config = ExperimentConfig::smoke(23);
    let app = config.applications()[0];
    let capture = run_call(&config, app, NetworkConfig::WifiRelay, 0);
    let datagrams = capture.trace.datagrams();
    let window = capture.manifest.call_window();

    // Group per 5-tuple (preserving capture order within each stream)...
    let mut per_stream: BTreeMap<String, Vec<Datagram>> = BTreeMap::new();
    for d in &datagrams {
        per_stream.entry(d.five_tuple.to_string()).or_default().push(d.clone());
    }
    // ...then merge with an LCG picking which stream advances next.
    let mut queues: Vec<Vec<Datagram>> = per_stream
        .into_values()
        .map(|mut v| {
            v.reverse(); // pop() yields capture order
            v
        })
        .collect();
    let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
    let mut shuffled = Vec::with_capacity(datagrams.len());
    while !queues.is_empty() {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let i = (lcg >> 33) as usize % queues.len();
        shuffled.push(queues[i].pop().unwrap());
        if queues[i].is_empty() {
            queues.swap_remove(i);
        }
    }
    assert_eq!(shuffled.len(), datagrams.len());

    let streamed = run(&shuffled, window, &FilterConfig::default());
    assert_matches_reference(&streamed, &run_reference(&datagrams, window, &FilterConfig::default()));
}

const WINDOW: (Timestamp, Timestamp) = (Timestamp::from_secs(60), Timestamp::from_secs(360));

fn dg(ts_s: u64, tuple: FiveTuple, payload: &[u8]) -> Datagram {
    Datagram { ts: Timestamp::from_secs(ts_s), five_tuple: tuple, payload: Bytes::copy_from_slice(payload) }
}

fn udp(src: &str, dst: &str) -> FiveTuple {
    FiveTuple::udp(src.parse().unwrap(), dst.parse().unwrap())
}

#[test]
fn doomed_streams_never_accumulate_payloads() {
    // Every stream here is provably rejected at (or before) its first
    // datagram: out-of-window start, excluded port, or an out-of-window
    // observation on its destination 3-tuple. The streaming filter must
    // retain zero bytes while still producing batch-identical accounting.
    let rebinder = udp("10.0.0.1:9000", "203.0.113.9:40000"); // active pre-call...
    let same_dst = udp("10.0.0.1:9001", "203.0.113.9:40000"); // ...dooming this in-window twin
    let dns = udp("10.0.0.1:5353", "203.0.113.53:53");
    let big = vec![0xAB; 1000];

    let datagrams =
        vec![dg(10, rebinder, &big), dg(100, same_dst, &big), dg(120, rebinder, &big), dg(130, dns, &big)];
    let peak = assert_equivalent(&datagrams, WINDOW, &FilterConfig::default()).peak_retained_bytes;
    assert_eq!(peak, 0, "every stream was doomed on arrival yet bytes were retained");
}

#[test]
fn late_observation_sweeps_already_retained_payloads() {
    // A stream looks acceptable while the call runs, then a post-call
    // datagram on the same destination 3-tuple retroactively dooms it.
    // The sweep must release the retained payloads (peak stays at the
    // pre-sweep high-water mark) and classification must match batch.
    let candidate = udp("10.0.0.1:9000", "203.0.113.9:40000");
    let rebinder = udp("10.0.0.1:9001", "203.0.113.9:40000");
    let keeper = udp("10.0.0.1:9002", "203.0.113.10:40001");

    let datagrams = vec![
        dg(100, candidate, &[1; 300]),
        dg(150, candidate, &[2; 300]),
        dg(200, keeper, &[3; 100]),
        dg(250, keeper, &[4; 100]),
        dg(400, rebinder, &[5; 50]), // out of window: dooms both 203.0.113.9 streams
    ];
    let peak = assert_equivalent(&datagrams, WINDOW, &FilterConfig::default()).peak_retained_bytes;
    assert_eq!(peak, 800, "peak should be the pre-sweep residency");

    // After the sweep only the keeper's 200 bytes remain live: the freed
    // 600 candidate bytes must actually leave the residency counter.
    let mut online = OnlineFilter::new(WINDOW, FilterConfig::default(), Retention::AcceptedUdp);
    for d in &datagrams {
        online.push(d.clone());
    }
    assert_eq!(online.peak_retained_bytes(), 800);
    assert_eq!(online.retained_bytes(), 200, "sweep must release the doomed payloads");
}

#[test]
fn late_precall_pair_sweeps_a_local_stream_born_clean() {
    // A local-range stream is acceptable at birth. Then a pre-call
    // datagram on the same IP pair (another port pair, arriving out of
    // capture order) dooms it. The stream already exists, so only the
    // pre-call pair's sweep can drop its payloads; its later datagrams
    // must not be retained either.
    let local = udp("192.168.1.5:6000", "192.168.1.9:6001");
    let precall = udp("192.168.1.9:7000", "192.168.1.5:7001");
    let keeper = udp("10.0.0.1:9002", "203.0.113.10:40001");

    let datagrams = vec![
        dg(100, local, &[1; 300]),
        dg(150, local, &[2; 300]),
        dg(200, keeper, &[3; 100]),
        dg(30, precall, &[4; 50]), // before the call starts: dooms `local`
        dg(250, local, &[5; 300]),
    ];
    let out = assert_equivalent(&datagrams, WINDOW, &FilterConfig::default());
    assert_eq!(out.peak_retained_bytes, 700, "peak should be the pre-sweep residency");
    assert_eq!(out.stage2_heuristics.get(&Heuristic::LocalIp), Some(&1), "only the local stream is local-ip removed");
    assert!(out.accepted_udp.iter().all(|d| d.five_tuple != local));

    let mut online = OnlineFilter::new(WINDOW, FilterConfig::default(), Retention::AcceptedUdp);
    for d in &datagrams[..3] {
        online.push(d.clone());
    }
    assert_eq!(online.retained_bytes(), 700);
    online.push(datagrams[3].clone());
    assert_eq!(online.retained_bytes(), 100, "the sweep must release the local stream's 600 bytes");
    online.push(datagrams[4].clone());
    assert_eq!(online.retained_bytes(), 100, "a swept stream retains nothing more");
    assert_eq!(online.peak_retained_bytes(), 700);
}

/// A small adversarial alphabet: RTC candidates, a shared destination
/// 3-tuple, an excluded port, a local-range pair, and a TCP flow.
fn alphabet() -> [FiveTuple; 6] {
    [
        udp("10.0.0.1:5004", "203.0.113.1:40000"),
        udp("10.0.0.1:5006", "203.0.113.2:40002"),
        udp("10.0.0.1:9001", "203.0.113.1:40000"), // shares dst 3-tuple with [0]
        udp("10.0.0.1:7777", "203.0.113.3:53"),    // excluded port
        udp("192.168.1.5:6000", "192.168.1.9:6001"), // local-range pair
        FiveTuple::tcp("10.0.0.1:4444".parse().unwrap(), "203.0.113.4:5223".parse().unwrap()),
    ]
}

/// Random capture-ordered mixes over the alphabet, with timestamps
/// straddling the window on both sides, must classify identically
/// under both drivers. This hammers the doom/sweep interplay: which
/// observation lands first, whether payloads were already retained,
/// and boundary-straddling first/last timestamps.
#[test]
fn random_captures_classify_identically() {
    check_cases("random_captures_classify_identically", 128, |rng| {
        let tuples = alphabet();
        let mut datagrams: Vec<Datagram> = (0..rng.in_range(0..48))
            .map(|_| {
                let t = rng.in_range(0usize..6);
                let ts = rng.in_range(0u64..500);
                let len = rng.in_range(1usize..24);
                dg(ts, tuples[t], &vec![t as u8 + 1; len])
            })
            .collect();
        // Captures are timestamp-sorted (Trace::push maintains this), and
        // within-stream order is an input invariant of both drivers.
        datagrams.sort_by_key(|d| d.ts);
        let out = assert_equivalent(&datagrams, WINDOW, &FilterConfig::default());
        // Transport sanity: TCP never reaches the accepted UDP output.
        assert!(out.accepted_udp.iter().all(|d| d.five_tuple.transport == Transport::Udp));
    });
}
