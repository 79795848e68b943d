//! Every rendered artifact is a function of the set of calls, not of
//! their order: for random multi-application studies, any permutation of
//! the call list renders the nine artifacts (text and CSV) and the JSON
//! export byte for byte the same.

use rtc_compliance::TypeKey;
use rtc_conformance::{check_cases, SplitMix64};
use rtc_dpi::Protocol;
use rtc_filter::StageStats;
use rtc_report::json::study_to_json;
use rtc_report::{CallSummary, StudyData, TypeCount, ARTIFACTS};
use std::collections::BTreeMap;

const APPS: [&str; 4] = ["Zoom", "Discord", "FaceTime", "Messenger"];
const NETWORKS: [&str; 3] = ["wifi-p2p", "cellular", "wifi-relay"];
const REJECTIONS: [&str; 3] = ["stun: truncated", "rtp: version", "no grammar matched"];

fn arb_stats(rng: &mut SplitMix64) -> StageStats {
    StageStats {
        udp_streams: rng.in_range(0usize..50),
        udp_datagrams: rng.in_range(0usize..100_000),
        tcp_streams: rng.in_range(0usize..10),
        tcp_segments: rng.in_range(0usize..5_000),
    }
}

fn arb_types(rng: &mut SplitMix64) -> BTreeMap<(Protocol, TypeKey), TypeCount> {
    (0..rng.in_range(0usize..8))
        .map(|_| {
            let key = match rng.below(4) {
                0 => (Protocol::StunTurn, TypeKey::Stun(rng.in_range(0u16..4))),
                1 => (Protocol::Rtp, TypeKey::Rtp(rng.in_range(96u8..100))),
                2 => (Protocol::Rtcp, TypeKey::Rtcp(rng.in_range(200u8..206))),
                _ => (Protocol::Quic, TypeKey::QuicShort),
            };
            let messages = rng.in_range(1usize..1_000);
            // Mostly fully compliant types, so both inventory columns fill.
            let compliant = if rng.below(3) == 0 { rng.in_range(0..messages) } else { messages };
            (key, TypeCount { messages, compliant })
        })
        .collect()
}

fn arb_call(rng: &mut SplitMix64, repeat: usize) -> CallSummary {
    let fully = rng.in_range(0usize..500);
    CallSummary {
        app: APPS[rng.below(APPS.len())].to_string(),
        network: NETWORKS[rng.below(NETWORKS.len())].to_string(),
        repeat,
        raw_bytes: rng.in_range(1usize..3_000_000),
        raw: arb_stats(rng),
        stage1: arb_stats(rng),
        stage2: arb_stats(rng),
        rtc: arb_stats(rng),
        classes: (rng.in_range(0usize..5_000), rng.in_range(0usize..5_000), fully),
        types: arb_types(rng),
        fully_proprietary_datagrams: fully,
        rejections: BTreeMap::from([(REJECTIONS[rng.below(REJECTIONS.len())].to_string(), fully)]),
    }
}

/// Every byte a study renders to: all nine artifacts as text and CSV, and
/// the JSON export.
fn rendered(data: &StudyData) -> Vec<String> {
    let mut out: Vec<String> =
        ARTIFACTS.iter().flat_map(|render| [render(data).to_text(), render(data).to_csv()]).collect();
    out.push(serde_json::to_string(&study_to_json(data)).unwrap());
    out
}

fn shuffle(rng: &mut SplitMix64, calls: &mut [CallSummary]) {
    for i in (1..calls.len()).rev() {
        calls.swap(i, rng.below(i + 1));
    }
}

#[test]
fn permuted_calls_render_identically() {
    check_cases("permuted_calls_render_identically", 48, |rng| {
        let calls: Vec<CallSummary> = (0..rng.in_range(2usize..16)).map(|i| arb_call(rng, i)).collect();
        let data = StudyData { calls };
        let want = rendered(&data);
        for _ in 0..4 {
            let mut permuted = data.clone();
            shuffle(rng, &mut permuted.calls);
            let order: Vec<usize> = permuted.calls.iter().map(|c| c.repeat).collect();
            assert_eq!(rendered(&permuted), want, "calls in order {order:?}");
        }
    });
}

/// Three calls whose capture sizes, summed per call as floating-point
/// megabytes, round to 6.6 or 6.7 MB depending on the order; the exact
/// total is 6,650,000 bytes, which Table 1 shows as 6.7.
#[test]
fn table1_volume_does_not_depend_on_call_order() {
    let sizes = [1_936_279, 1_980_741, 2_732_980];
    let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for order in orders {
        let calls = order
            .iter()
            .map(|&i| CallSummary {
                app: "Zoom".into(),
                raw_bytes: sizes[i],
                ..arb_call(&mut SplitMix64::new(i as u64), i)
            })
            .collect();
        let csv = rtc_report::tables::table1(&StudyData { calls }).to_csv();
        assert!(csv.lines().nth(1).is_some_and(|row| row.starts_with("Zoom,6.7,")), "order {order:?}:\n{csv}");
    }
}
