//! The capture vantage point.
//!
//! Application models emit `(timestamp, five-tuple, payload)` events; the
//! sink applies path effects (loss for lossy media pushes, sampled delays
//! for request/response scheduling) and renders everything into a
//! time-ordered Ethernet [`Trace`], exactly what the paper's merged
//! two-device Wireshark capture provides to the analysis pipeline.
//!
//! Modeling note: each packet is captured **once** (at its sending hop).
//! The paper captures at both devices, so a P2P packet can be seen twice
//! there; that uniform factor scales absolute counts, never the compliance
//! *ratios* the study reports.

use crate::net::PathProfile;
use crate::rng::DetRng;
use bytes::Bytes;
use rtc_pcap::{LinkType, Record, Timestamp, Trace};
use rtc_wire::ip::{ethernet_frame_len, tcp_seq_offset, write_ethernet_packet, FiveTuple, Transport};
use std::collections::HashMap;

/// Size of the buffers frames are rendered into. A frame larger than this
/// gets a buffer of its own.
const CHUNK_BYTES: usize = 64 << 10;

/// Where one captured frame sits in the sink's chunks.
#[derive(Debug, Clone, Copy)]
struct Frame {
    ts: Timestamp,
    /// Index into the sink's interned tuples.
    tuple: u32,
    chunk: u32,
    offset: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Frame>() == 24);

/// Collects emulated packets and renders a pcap trace.
///
/// Each pushed packet is framed (Ethernet, IP and UDP/TCP headers, then
/// the payload) straight into 64 KiB chunks, its one copy, and the model's
/// payload is dropped at once; the sink keeps a 24-byte index entry per
/// packet. [`TrafficSink::finish`] orders the index, fills in TCP sequence
/// numbers in capture order, and hands every record out as a view of its
/// chunk, so the trace costs one allocation per chunk, not per packet.
#[derive(Debug)]
pub struct TrafficSink {
    profile: PathProfile,
    rng: DetRng,
    chunks: Vec<Vec<u8>>,
    frames: Vec<Frame>,
    tuples: Vec<FiveTuple>,
    tuple_ids: HashMap<FiveTuple, u32>,
    dropped: u64,
}

impl TrafficSink {
    /// Create a sink for one call experiment.
    pub fn new(profile: PathProfile, rng: DetRng) -> TrafficSink {
        TrafficSink {
            profile,
            rng,
            chunks: Vec::new(),
            frames: Vec::new(),
            tuples: Vec::new(),
            tuple_ids: HashMap::new(),
            dropped: 0,
        }
    }

    /// Capture a packet unconditionally (control traffic, keepalives —
    /// anything whose count the emulation must preserve exactly).
    pub fn push(&mut self, ts: Timestamp, tuple: FiveTuple, payload: Vec<u8>) {
        // Models push runs of one stream, so the previous packet's tuple
        // spares most lookups.
        let id = match self.frames.last() {
            Some(last) if self.tuples[last.tuple as usize] == tuple => last.tuple,
            _ => {
                let next = self.tuples.len() as u32;
                let id = *self.tuple_ids.entry(tuple).or_insert(next);
                if id == next {
                    self.tuples.push(tuple);
                }
                id
            }
        };
        let len = ethernet_frame_len(&tuple, payload.len());
        if self.chunks.last().is_none_or(|c| c.capacity() - c.len() < len) {
            self.chunks.push(Vec::with_capacity(len.max(CHUNK_BYTES)));
        }
        let chunk = self.chunks.len() - 1;
        let buf = &mut self.chunks[chunk];
        let offset = buf.len();
        // The sequence number is filled in by `finish`, once capture order
        // is known.
        write_ethernet_packet(buf, &tuple, &payload, 0);
        let index = |n: usize| u32::try_from(n).expect("capture index fits in 32 bits");
        self.frames.push(Frame { ts, tuple: id, chunk: index(chunk), offset: index(offset), len: index(len) });
    }

    /// Capture a packet subject to the path's loss process (bulk media).
    /// Returns `false` if the packet was dropped.
    pub fn push_lossy(&mut self, ts: Timestamp, tuple: FiveTuple, payload: Vec<u8>) -> bool {
        if self.profile.sample_loss(&mut self.rng) {
            self.dropped += 1;
            false
        } else {
            self.push(ts, tuple, payload);
            true
        }
    }

    /// Sample a one-way path delay, for scheduling responses.
    pub fn one_way_us(&mut self) -> u64 {
        self.profile.sample_delay_us(&mut self.rng)
    }

    /// Sample a round-trip delay.
    pub fn rtt_us(&mut self) -> u64 {
        self.one_way_us() + self.one_way_us()
    }

    /// Packets dropped by the loss process so far.
    pub fn dropped(&mut self) -> u64 {
        self.dropped
    }

    /// Number of captured events so far.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Render the capture: order the frames by `(time, tuple)`, keeping
    /// push order among equal keys; number each TCP stream's segments in
    /// that order, starting at 1 and advancing by the payload length (at
    /// least 1); then freeze the chunks and return every frame as a view.
    pub fn finish(mut self) -> Trace {
        let tuples = &self.tuples;
        // Stable, and the tuples are compared only between equal times.
        self.frames
            .sort_by(|a, b| a.ts.cmp(&b.ts).then_with(|| tuples[a.tuple as usize].cmp(&tuples[b.tuple as usize])));

        let mut next_seq = vec![1u32; tuples.len()];
        for f in &self.frames {
            let tuple = &tuples[f.tuple as usize];
            if tuple.transport == Transport::Tcp {
                let seq = &mut next_seq[f.tuple as usize];
                let at = f.offset as usize + tcp_seq_offset(tuple);
                self.chunks[f.chunk as usize][at..at + 4].copy_from_slice(&seq.to_be_bytes());
                let payload_len = f.len as usize - ethernet_frame_len(tuple, 0);
                *seq = seq.wrapping_add(payload_len.max(1) as u32);
            }
        }

        let chunks: Vec<Bytes> = self.chunks.into_iter().map(Bytes::from).collect();
        let records = self
            .frames
            .iter()
            .map(|f| {
                let start = f.offset as usize;
                Record { ts: f.ts, data: chunks[f.chunk as usize].slice(start..start + f.len as usize) }
            })
            .collect();
        Trace { link_type: LinkType::Ethernet, records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;

    fn sink() -> TrafficSink {
        TrafficSink::new(NetworkConfig::WifiP2p.path_profile(), DetRng::new(4))
    }

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::udp(format!("192.168.1.101:{port}").parse().unwrap(), "203.0.113.50:3478".parse().unwrap())
    }

    #[test]
    fn finish_orders_by_time() {
        let mut s = sink();
        s.push(Timestamp::from_millis(30), tuple(1000), vec![3]);
        s.push(Timestamp::from_millis(10), tuple(1001), vec![1]);
        s.push(Timestamp::from_millis(20), tuple(1002), vec![2]);
        let trace = s.finish();
        let ts: Vec<u64> = trace.records.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn datagrams_survive_roundtrip() {
        let mut s = sink();
        s.push(Timestamp::from_millis(1), tuple(2000), b"abc".to_vec());
        let trace = s.finish();
        let d = trace.datagrams();
        assert_eq!(d.len(), 1);
        assert_eq!(&d[0].payload[..], b"abc");
        assert_eq!(d[0].five_tuple, tuple(2000));
    }

    #[test]
    fn lossy_pushes_drop_some_packets() {
        let mut s = TrafficSink::new(PathProfile { base_latency_us: 1000, jitter_us: 10, loss: 0.2 }, DetRng::new(8));
        let mut kept = 0;
        for i in 0..2000 {
            if s.push_lossy(Timestamp::from_millis(i), tuple(3000), vec![0]) {
                kept += 1;
            }
        }
        assert!(kept < 2000);
        assert!(s.dropped() > 200);
        assert_eq!(s.len(), kept);
    }

    #[test]
    fn unconditional_push_never_drops() {
        let mut s = TrafficSink::new(PathProfile { base_latency_us: 1000, jitter_us: 10, loss: 1.0 }, DetRng::new(8));
        for i in 0..100 {
            s.push(Timestamp::from_millis(i), tuple(4000), vec![0]);
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn rtt_exceeds_one_way() {
        let mut s = sink();
        let ow = s.one_way_us();
        assert!(ow > 0);
        assert!(s.rtt_us() > 0);
    }

    #[test]
    fn tcp_segments_roundtrip() {
        let mut s = sink();
        let t = FiveTuple::tcp("192.168.1.101:52000".parse().unwrap(), "17.57.8.1:443".parse().unwrap());
        s.push(Timestamp::from_millis(1), t, b"tls-bytes".to_vec());
        let trace = s.finish();
        let d = trace.datagrams();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].five_tuple, t);
        assert_eq!(&d[0].payload[..], b"tls-bytes");
    }
}
