//! The render `TrafficSink` replaced: keep every event with its own
//! payload, stable-sort the events by `(ts, tuple)`, then frame each one
//! in a buffer of its own with a per-tuple TCP sequence number that starts
//! at 1 and advances by the payload length (at least 1). It is the
//! reference the chunked sink is differentially tested against in
//! `tests/sink_vs_reference.rs`.

use rtc_pcap::{Record, Timestamp};
use rtc_wire::ip::{build_ethernet_packet, FiveTuple};
use std::collections::HashMap;

/// Render `events`, given in push order, into capture-ordered records.
pub fn render_reference(mut events: Vec<(Timestamp, FiveTuple, Vec<u8>)>) -> Vec<Record> {
    events.sort_by_key(|(ts, tuple, _)| (*ts, *tuple));
    let mut tcp_seq: HashMap<FiveTuple, u32> = HashMap::new();
    events
        .into_iter()
        .map(|(ts, tuple, payload)| {
            let seq = tcp_seq.entry(tuple).or_insert(1);
            let frame = build_ethernet_packet(&tuple, &payload, *seq);
            *seq = seq.wrapping_add(payload.len().max(1) as u32);
            Record { ts, data: frame.into() }
        })
        .collect()
}
