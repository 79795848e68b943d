//! Differential tests: `TrafficSink`, which frames packets into shared
//! chunks as they are pushed and orders an index at `finish`, must render
//! exactly the records of the per-event render it replaced
//! (`support/reference.rs`): the same timestamps and the same frame bytes,
//! TCP sequence numbers included, in the same order.

#[path = "support/reference.rs"]
mod reference;

use reference::render_reference;
use rtc_capture::{run_call, ExperimentConfig};
use rtc_conformance::{check_cases, SplitMix64};
use rtc_netemu::{DetRng, NetworkConfig, TrafficSink};
use rtc_pcap::{Record, Timestamp};
use rtc_wire::ip::FiveTuple;
use std::hash::{DefaultHasher, Hash, Hasher};

type Event = (Timestamp, FiveTuple, Vec<u8>);

/// Push `events` in order into a fresh sink and render it.
fn render_sink(events: &[Event]) -> Vec<Record> {
    let mut sink = TrafficSink::new(NetworkConfig::WifiP2p.path_profile(), DetRng::new(1));
    for (ts, tuple, payload) in events {
        sink.push(*ts, *tuple, payload.clone());
    }
    assert_eq!(sink.len(), events.len());
    sink.finish().records
}

fn assert_records_eq(got: &[Record], want: &[Record], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.ts, w.ts, "{what}: timestamp of record {i}");
        assert_eq!(g.data, w.data, "{what}: bytes of record {i}");
    }
}

fn tuples() -> [FiveTuple; 5] {
    [
        FiveTuple::udp("192.168.1.101:50000".parse().unwrap(), "203.0.113.50:3478".parse().unwrap()),
        FiveTuple::udp("203.0.113.50:3478".parse().unwrap(), "192.168.1.101:50000".parse().unwrap()),
        FiveTuple::tcp("192.168.1.101:52000".parse().unwrap(), "17.57.8.1:443".parse().unwrap()),
        FiveTuple::udp("[2001:db8::1]:40000".parse().unwrap(), "[2001:db8::2]:3478".parse().unwrap()),
        FiveTuple::tcp("[2001:db8::1]:40001".parse().unwrap(), "[2001:db8::3]:443".parse().unwrap()),
    ]
}

#[test]
fn sink_matches_reference_on_random_event_sequences() {
    let tuples = tuples();
    check_cases("sink_matches_reference", 64, |rng: &mut SplitMix64| {
        let n = rng.in_range(0..=300usize);
        // A few distinct timestamps, so equal times and equal (ts, tuple)
        // keys are common and push order decides between them.
        let times = rng.in_range(1..=40u64);
        let mut events: Vec<Event> = (0..n)
            .map(|_| {
                let ts = Timestamp::from_micros(rng.in_range(0..times) * 1000);
                let tuple = tuples[rng.below(tuples.len())];
                let len = match rng.below(4) {
                    0 => 0,
                    1 => rng.in_range(1..=40usize),
                    _ => rng.in_range(41..=1400usize),
                };
                (ts, tuple, rng.bytes(len..=len))
            })
            .collect();
        // One frame larger than a chunk, which gets a chunk of its own.
        let big = (
            Timestamp::from_micros(rng.in_range(0..times) * 1000),
            tuples[rng.below(tuples.len())],
            vec![0xA5; 70_000],
        );
        events.insert(rng.below(events.len() + 1), big);
        assert_records_eq(&render_sink(&events), &render_reference(events), "random events");
    });
}

/// Reorder `events` by a hash of their `(ts, tuple)` key. The sort is
/// stable, so events sharing a key keep their relative order.
fn scramble(events: &mut [Event]) {
    events.sort_by_key(|(ts, tuple, _)| {
        let mut h = DefaultHasher::new();
        (ts, tuple).hash(&mut h);
        h.finish()
    });
}

#[test]
fn sink_matches_reference_on_the_smoke_matrix() {
    // Real emulated calls. Their events are read back from the generated
    // trace and scrambled, so both renders have the ordering to do again:
    // generation must equal the reference render of its own events, and
    // the sink must render the scrambled events exactly as the reference
    // does.
    for seed in [1, 42] {
        let config = ExperimentConfig::smoke(seed);
        for app in config.applications() {
            for network in config.network_configs() {
                let what = format!("{} / {network}, seed {seed}", app.name());
                let trace = run_call(&config, app, network, 0).trace;
                let mut events: Vec<Event> =
                    trace.datagrams().into_iter().map(|d| (d.ts, d.five_tuple, d.payload.to_vec())).collect();
                assert_eq!(events.len(), trace.records.len(), "{what}: every record decodes");
                scramble(&mut events);
                let want = render_reference(events.clone());
                assert_records_eq(&trace.records, &want, &what);
                assert_records_eq(&render_sink(&events), &want, &what);
            }
        }
    }
}
