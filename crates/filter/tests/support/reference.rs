//! The batch two-stage filter the online engine replaced: group every
//! datagram into its stream first, then classify whole streams. It is the
//! reference the online engine is differentially tested against; the unit
//! tests in `src/lib.rs` and `tests/online_vs_batch.rs` both include this
//! file.

use std::collections::{BTreeMap, HashSet};
use std::net::IpAddr;

use rtc_filter::{
    derive_sni_blocklist, group_streams, FilterConfig, Heuristic, OnlineOutcome, StageStats, Stream, Window,
};
use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_wire::ip::{ThreeTuple, Transport};

fn absorb(stats: &mut StageStats, s: &Stream) {
    match s.tuple.transport {
        Transport::Udp => {
            stats.udp_streams += 1;
            stats.udp_datagrams += s.len();
        }
        Transport::Tcp => {
            stats.tcp_streams += 1;
            stats.tcp_segments += s.len();
        }
    }
}

/// Run the batch pipeline over one call's datagrams. The outcome has the
/// online engine's shape; its `peak_retained_bytes` is every payload byte,
/// since the batch run holds the whole capture.
pub fn run_reference(
    datagrams: &[Datagram],
    call_window: (Timestamp, Timestamp),
    config: &FilterConfig,
) -> OnlineOutcome {
    let (call_start, _call_end) = call_window;
    let win = Window::around(call_window, config.slack_us);

    let mut out_of_window_3tuples: HashSet<ThreeTuple> = HashSet::new();
    let mut precall_ip_pairs: HashSet<(IpAddr, IpAddr)> = HashSet::new();
    for d in datagrams {
        if !win.contains(d.ts) {
            out_of_window_3tuples.insert(d.five_tuple.dst_three_tuple());
        }
        if d.ts < call_start {
            let (a, b) = (d.five_tuple.src.ip(), d.five_tuple.dst.ip());
            precall_ip_pairs.insert(if a <= b { (a, b) } else { (b, a) });
        }
    }

    let streams = group_streams(datagrams);
    let mut raw = StageStats::default();
    for s in &streams {
        absorb(&mut raw, s);
    }

    let mut stage1_removed = Vec::new();
    let mut survivors = Vec::new();
    for s in streams {
        let enclosed = match (s.first_ts(), s.last_ts()) {
            (Some(first), Some(last)) => win.encloses(first, last),
            _ => false,
        };
        if enclosed {
            survivors.push(s);
        } else {
            stage1_removed.push(s);
        }
    }

    let mut stage2_removed = Vec::new();
    let mut rtc_streams = Vec::new();
    for s in survivors {
        let heuristic = if out_of_window_3tuples.contains(&s.tuple.dst_three_tuple()) {
            Some(Heuristic::ThreeTupleTiming)
        } else if s.tuple.transport == Transport::Tcp
            // The SNI of this one TCP stream, by the public derivation.
            && derive_sni_blocklist(&s.datagrams).iter().any(|sni| config.sni_blocklist.contains(sni))
        {
            Some(Heuristic::TlsSni)
        } else if s.tuple.touches_local_range() && {
            let (a, b) = (s.tuple.src.ip(), s.tuple.dst.ip());
            let pair = if a <= b { (a, b) } else { (b, a) };
            precall_ip_pairs.contains(&pair)
        } {
            Some(Heuristic::LocalIp)
        } else if config.excluded_ports.contains(&s.tuple.src.port())
            || config.excluded_ports.contains(&s.tuple.dst.port())
        {
            Some(Heuristic::PortExclusion)
        } else {
            None
        };
        match heuristic {
            Some(h) => stage2_removed.push((s, h)),
            None => rtc_streams.push(s),
        }
    }

    let mut stage1 = StageStats::default();
    for s in &stage1_removed {
        absorb(&mut stage1, s);
    }
    let mut stage2 = StageStats::default();
    let mut stage2_heuristics: BTreeMap<Heuristic, usize> = BTreeMap::new();
    for (s, h) in &stage2_removed {
        absorb(&mut stage2, s);
        *stage2_heuristics.entry(*h).or_default() += 1;
    }
    let mut rtc = StageStats::default();
    for s in &rtc_streams {
        absorb(&mut rtc, s);
    }

    let mut accepted_udp: Vec<Datagram> = rtc_streams
        .iter()
        .filter(|s| s.tuple.transport == Transport::Udp)
        .flat_map(|s| s.datagrams.iter().cloned())
        .collect();
    // Stable, so same-timestamp datagrams keep stream order.
    accepted_udp.sort_by_key(|d| d.ts);
    let peak_retained_bytes = datagrams.iter().map(|d| d.payload.len()).sum();
    OnlineOutcome { accepted_udp, raw, stage1, stage2, rtc, stage2_heuristics, peak_retained_bytes }
}

/// Assert that an online outcome agrees with the reference's on everything
/// the filter hands on, and that it never retained more than the batch run
/// holds.
pub fn assert_matches_reference(online: &OnlineOutcome, reference: &OnlineOutcome) {
    assert_eq!(online.accepted_udp, reference.accepted_udp, "accepted RTC UDP datagrams diverge");
    assert_eq!(online.raw, reference.raw, "raw stats diverge");
    assert_eq!(online.stage1, reference.stage1, "stage-1 stats diverge");
    assert_eq!(online.stage2, reference.stage2, "stage-2 stats diverge");
    assert_eq!(online.rtc, reference.rtc, "rtc stats diverge");
    assert_eq!(online.stage2_heuristics, reference.stage2_heuristics, "stage-2 attribution diverges");
    assert!(online.peak_retained_bytes <= reference.peak_retained_bytes);
}
