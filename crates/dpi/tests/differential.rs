//! Differential property tests for the extraction fast path.
//!
//! The prefiltered extractor ([`rtc_dpi::extract_into`] and the batch
//! wrapper around it) must return candidate lists byte-identical to
//! [`rtc_dpi::extract_candidates_naive`] — the retained
//! every-matcher-at-every-offset reference loop — on *arbitrary* payloads
//! and extraction depths, not just the traffic our emulators produce.
//! These tests run the build's own bulk sweep; the SWAR-only sweep of
//! non-x86-64 builds is checked against the same reference by
//! `pattern`'s unit tests. The chunked extract-and-cut driver must
//! dissect a call as the serial one does, wherever chunk boundaries fall.

use bytes::Bytes;
use rtc_conformance::{check_cases, SplitMix64};
use rtc_dpi::par::{planned_threads, CHUNK_DATAGRAMS};
use rtc_dpi::{
    dissect_call_sampled, extract_candidates, extract_candidates_naive, CandidateBatch, DpiConfig, Protocol,
};
use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_wire::ip::FiveTuple;
use rtc_wire::rtp::PacketBuilder;

/// Cases per property.
const CASES: u32 = 96;

/// A payload with a real protocol message (or pure junk) behind an
/// arbitrary prefix, so the sweep exercises both matcher hits and the
/// prefilter's reject paths at every offset.
fn structured_payload(rng: &mut SplitMix64) -> Vec<u8> {
    let pick = rng.in_range(0u8..6);
    let prefix_len = rng.in_range(0usize..48);
    let seq = rng.next_u64() as u16;
    let ssrc = rng.next_u64() as u32;
    let junk = rng.bytes(0..64);
    let mut p: Vec<u8> = (0..prefix_len).map(|j| (j * 13) as u8).collect();
    match pick {
        0 => p.extend(PacketBuilder::new((seq % 128) as u8, seq, ssrc, ssrc).payload(junk).build()),
        1 => {
            let mut b = rtc_wire::stun::MessageBuilder::new(seq & 0x3FFF, [7; 12]);
            if !junk.is_empty() {
                b = b.attribute(rtc_wire::stun::attr::DATA, junk);
            }
            p.extend(b.build());
        }
        2 => p.extend(rtc_wire::rtcp::build_bye(&[ssrc])),
        3 => p.extend(rtc_wire::stun::ChannelData::build(0x4000 | (seq & 0x0FFF), &junk)),
        4 => {
            let h = rtc_wire::quic::LongHeader {
                fixed_bit: true,
                long_type: rtc_wire::quic::LongType::Initial,
                type_specific: 0,
                version: rtc_wire::quic::VERSION_1,
                dcid: junk.iter().copied().take(20).collect(),
                scid: vec![2; (seq % 21) as usize],
                header_len: 0,
            };
            p.extend(h.build());
            p.extend(junk);
        }
        _ => p.extend(junk),
    }
    p
}

fn structured_payloads(rng: &mut SplitMix64, max: usize) -> Vec<Vec<u8>> {
    (0..rng.in_range(0..max)).map(|_| structured_payload(rng)).collect()
}

#[test]
fn fast_path_matches_naive_on_arbitrary_bytes() {
    check_cases("fast_path_matches_naive_on_arbitrary_bytes", CASES, |rng| {
        let payload = rng.bytes(0..600);
        let k = rng.in_range(0usize..=400);
        assert_eq!(extract_candidates(&payload, k), extract_candidates_naive(&payload, k));
    });
}

#[test]
fn fast_path_matches_naive_on_structured_payloads() {
    check_cases("fast_path_matches_naive_on_structured_payloads", CASES, |rng| {
        let payload = structured_payload(rng);
        let k = rng.in_range(0usize..=400);
        assert_eq!(extract_candidates(&payload, k), extract_candidates_naive(&payload, k));
    });
}

#[test]
fn chunk_split_batches_append_identically() {
    let (mut chunked_runs, mut cut, mut validated_rtp) = (0usize, 0u64, 0usize);
    check_cases("chunk_split_batches_append_identically", CASES, |rng| {
        let payloads = structured_payloads(rng, 12);
        let split = rng.in_range(0usize..12).min(payloads.len());
        let k = rng.in_range(0usize..=400);
        // The chunked driver extracts each chunk on its own and cuts the
        // chunks together; a payload must dissect the same whichever side
        // of a chunk boundary it lands on. Filler datagrams put the first
        // boundary `split` payloads in. Around the boundary sit repeats of
        // the payloads (noise groups) and an RTP stream of 0 to 8 packets
        // (a group at about the cut's threshold), both spanning it; the
        // rest of the fillers are empty.
        let filler = CHUNK_DATAGRAMS - split;
        let ssrc = rng.next_u64() as u32;
        let (before, after) = (rng.in_range(0..=4usize), rng.in_range(0..=4usize));
        let rtp = |j: usize| PacketBuilder::new(96, j as u16, j as u32, ssrc).payload(vec![0x3C; 40]).build();
        let copies = if payloads.is_empty() { 0 } else { rng.in_range(0..=8 * payloads.len()).min(filler - before) };
        let tuple = FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap());
        let datagrams: Vec<Datagram> = (0..filler - before - copies)
            .map(|_| Vec::new())
            .chain((0..copies).map(|j| payloads[j % payloads.len()].clone()))
            .chain((0..before).map(rtp))
            .chain(payloads.iter().cloned())
            .chain((before..before + after).map(rtp))
            .enumerate()
            .map(|(i, p)| Datagram {
                ts: Timestamp::from_millis(i as u64),
                five_tuple: tuple,
                payload: Bytes::from(p),
            })
            .collect();
        let extracted: u64 = datagrams.iter().map(|d| extract_candidates_naive(&d.payload, k).len() as u64).sum();
        for min_group in [0, DpiConfig::default().rtp_min_group] {
            let serial = DpiConfig { max_offset: k, rtp_min_group: min_group, threads: 1, ..DpiConfig::default() };
            let chunked = DpiConfig { threads: 3, parallel_threshold: 1, ..serial };
            assert_eq!(planned_threads(datagrams.len(), &chunked) > 1, datagrams.len() > CHUNK_DATAGRAMS);
            let (want, want_stats) = dissect_call_sampled(&datagrams, &serial, 0);
            let (got, got_stats) = dissect_call_sampled(&datagrams, &chunked, 0);
            assert_eq!(got, want, "min_group {min_group}");
            assert_eq!(got_stats, want_stats, "min_group {min_group}");
            assert_eq!(want_stats.candidates.iter().sum::<u64>(), extracted, "min_group {min_group}");
            if min_group == 0 {
                assert_eq!(want_stats.kept_candidates, extracted);
            } else {
                chunked_runs += (datagrams.len() > CHUNK_DATAGRAMS) as usize;
                cut += extracted - want_stats.kept_candidates;
                validated_rtp += want.messages().filter(|(_, m)| m.protocol == Protocol::Rtp).count();
            }
        }
    });
    assert!(chunked_runs > 0, "some cases must run the chunked path");
    assert!(cut > 0 && validated_rtp > 0, "the cases must both cut noise and validate groups");
}

#[test]
fn batch_spans_match_per_payload_naive_extraction() {
    check_cases("batch_spans_match_per_payload_naive_extraction", CASES, |rng| {
        let payloads = structured_payloads(rng, 8);
        let k = rng.in_range(0usize..=400);
        let mut batch = CandidateBatch::with_capacity(payloads.len());
        for p in &payloads {
            batch.push_payload(p, k);
        }
        assert_eq!(batch.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(batch.get(i), &extract_candidates_naive(p, k)[..]);
        }
    });
}

/// The classic bulk-scan off-by-one spots, exhaustively: a real message
/// placed at every offset around u64-lane and 16-byte-block boundaries,
/// with every short-tail length that forces the vector loops to hand the
/// payload end back to the scalar loop.
#[test]
fn lane_boundary_straddles_match_naive() {
    let rtp = rtc_wire::rtp::PacketBuilder::new(96, 7, 0xABCD_EF01, 0x42).payload(vec![0x5A; 9]).build();
    let stun = rtc_wire::stun::MessageBuilder::new(0x0001, [9; 12]).build();
    let rtcp = rtc_wire::rtcp::build_bye(&[0xFEED_BEEF]);
    for msg in [&rtp[..], &stun[..], &rtcp[..]] {
        for prefix in 0..48usize {
            for tail in 0..24usize {
                let mut p: Vec<u8> = (0..prefix).map(|j| (j * 7 + 1) as u8).collect();
                p.extend_from_slice(msg);
                p.extend((0..tail).map(|j| (j * 11 + 3) as u8));
                assert_eq!(
                    extract_candidates(&p, 200),
                    extract_candidates_naive(&p, 200),
                    "prefix={prefix} tail={tail}"
                );
            }
        }
    }
}
