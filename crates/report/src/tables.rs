//! Regeneration of the paper's Tables 1–6 from a [`StudyData`].

use crate::render::{pct, ratio, TextTable};
use crate::StudyData;
use rtc_dpi::Protocol;

/// Table 1 — traffic traces and filtering progress per application.
pub fn table1(data: &StudyData) -> TextTable {
    let mut t = TextTable::new(
        "Table 1: traffic traces and filtering progress",
        &[
            "Application",
            "Volume(MB)",
            "UDP strms|dgrams",
            "TCP strms|segs",
            "S1 UDP strms|dgrams",
            "S2 UDP strms|dgrams",
            "S1 TCP strms|segs",
            "S2 TCP strms|segs",
            "RTC UDP strms|dgrams",
            "RTC TCP strms|segs",
        ],
    );
    for app in data.apps() {
        let calls: Vec<_> = data.calls.iter().filter(|c| c.app == app).collect();
        let sum = |f: fn(&crate::CallSummary) -> (usize, usize)| -> (usize, usize) {
            calls.iter().fold((0, 0), |acc, c| {
                let v = f(c);
                (acc.0 + v.0, acc.1 + v.1)
            })
        };
        // Summed as integers and divided once, so the column does not
        // depend on the order of the calls.
        let mb = calls.iter().map(|c| c.raw_bytes).sum::<usize>() as f64 / 1e6;
        let raw_u = sum(|c| (c.raw.udp_streams, c.raw.udp_datagrams));
        let raw_t = sum(|c| (c.raw.tcp_streams, c.raw.tcp_segments));
        let s1_u = sum(|c| (c.stage1.udp_streams, c.stage1.udp_datagrams));
        let s2_u = sum(|c| (c.stage2.udp_streams, c.stage2.udp_datagrams));
        let s1_t = sum(|c| (c.stage1.tcp_streams, c.stage1.tcp_segments));
        let s2_t = sum(|c| (c.stage2.tcp_streams, c.stage2.tcp_segments));
        let rtc_u = sum(|c| (c.rtc.udp_streams, c.rtc.udp_datagrams));
        let rtc_t = sum(|c| (c.rtc.tcp_streams, c.rtc.tcp_segments));
        let pair = |(a, b): (usize, usize)| format!("{a} | {b}");
        t.row(vec![
            app,
            format!("{mb:.1}"),
            pair(raw_u),
            pair(raw_t),
            pair(s1_u),
            pair(s2_u),
            pair(s1_t),
            pair(s2_t),
            pair(rtc_u),
            pair(rtc_t),
        ]);
    }
    t
}

/// Table 2 — message distribution by protocol and application.
pub fn table2(data: &StudyData) -> TextTable {
    let mut t = TextTable::new(
        "Table 2: message distribution by protocols and applications",
        &["Application", "STUN/TURN", "RTP", "RTCP", "QUIC", "Fully Proprietary"],
    );
    for app in data.apps() {
        let (shares, fully) = data.app_message_distribution(&app);
        let cell = |p: Protocol| shares.get(&p).map(|s| pct(*s)).unwrap_or_else(|| "N/A".into());
        t.row(vec![
            app,
            cell(Protocol::StunTurn),
            cell(Protocol::Rtp),
            cell(Protocol::Rtcp),
            cell(Protocol::Quic),
            pct(fully),
        ]);
    }
    t
}

/// Table 3 — protocol compliance ratio by message type.
pub fn table3(data: &StudyData) -> TextTable {
    let mut t = TextTable::new(
        "Table 3: protocol compliance ratio by message type",
        &["Application", "STUN/TURN", "RTP", "RTCP", "QUIC", "All Protocols"],
    );
    for app in data.apps() {
        let cell = |p: Protocol| {
            let (ok, total) = data.app_type_ratio(&app, p);
            ratio(ok, total)
        };
        let (ok, total) = data.app_type_ratio_all(&app);
        t.row(vec![
            app.clone(),
            cell(Protocol::StunTurn),
            cell(Protocol::Rtp),
            cell(Protocol::Rtcp),
            cell(Protocol::Quic),
            ratio(ok, total),
        ]);
    }
    // The "All Apps" protocol-centric bottom row.
    let cell = |p: Protocol| {
        let (ok, total) = data.protocol_type_ratio(p);
        ratio(ok, total)
    };
    t.row(vec![
        "All Apps".into(),
        cell(Protocol::StunTurn),
        cell(Protocol::Rtp),
        cell(Protocol::Rtcp),
        cell(Protocol::Quic),
        String::new(),
    ]);
    t
}

fn type_table(data: &StudyData, protocol: Protocol, title: &str) -> TextTable {
    let mut t = TextTable::new(title, &["Application", "Compliant Types", "Non-compliant Types"]);
    for app in data.apps() {
        let (ok, bad) = data.app_type_lists(&app, protocol);
        if ok.is_empty() && bad.is_empty() {
            continue;
        }
        let fmt = |v: &[rtc_compliance::TypeKey]| {
            if v.is_empty() {
                "-".to_string()
            } else {
                v.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(", ")
            }
        };
        t.row(vec![app, fmt(&ok), fmt(&bad)]);
    }
    t
}

/// Table 4 — observed STUN/TURN message types per application.
pub fn table4(data: &StudyData) -> TextTable {
    type_table(data, Protocol::StunTurn, "Table 4: observed STUN/TURN message types")
}

/// Table 5 — observed RTP payload types per application.
pub fn table5(data: &StudyData) -> TextTable {
    type_table(data, Protocol::Rtp, "Table 5: observed RTP message types")
}

/// Table 6 — observed RTCP packet types per application.
pub fn table6(data: &StudyData) -> TextTable {
    type_table(data, Protocol::Rtcp, "Table 6: observed RTCP message types")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CallSummary, TypeCount};
    use rtc_compliance::TypeKey;

    fn sample() -> StudyData {
        StudyData {
            calls: vec![CallSummary {
                app: "Zoom".into(),
                network: "cellular".into(),
                repeat: 0,
                raw_bytes: 2_500_000,
                raw: rtc_filter::StageStats {
                    udp_streams: 10,
                    udp_datagrams: 1000,
                    tcp_streams: 5,
                    tcp_segments: 50,
                },
                stage1: rtc_filter::StageStats {
                    udp_streams: 3,
                    udp_datagrams: 30,
                    tcp_streams: 2,
                    tcp_segments: 20,
                },
                stage2: rtc_filter::StageStats {
                    udp_streams: 2,
                    udp_datagrams: 20,
                    tcp_streams: 1,
                    tcp_segments: 10,
                },
                rtc: rtc_filter::StageStats { udp_streams: 5, udp_datagrams: 950, tcp_streams: 2, tcp_segments: 20 },
                classes: (1, 900, 99),
                rejections: Default::default(),
                types: [
                    ((Protocol::Rtp, TypeKey::Rtp(98)), TypeCount { messages: 1, compliant: 1 }),
                    ((Protocol::StunTurn, TypeKey::Stun(2)), TypeCount { messages: 1, compliant: 0 }),
                ]
                .into(),
                fully_proprietary_datagrams: 99,
            }],
        }
    }

    #[test]
    fn all_tables_render() {
        let s = sample();
        for t in [table1(&s), table2(&s), table3(&s), table4(&s), table5(&s), table6(&s)] {
            let text = t.to_text();
            assert!(text.contains("Zoom") || text.contains("Table"), "{text}");
            assert!(!t.to_csv().is_empty());
        }
    }

    #[test]
    fn table3_contents() {
        let s = sample();
        let text = table3(&s).to_text();
        assert!(text.contains("0/1"), "{text}"); // STUN: one type, non-compliant
        assert!(text.contains("1/1"), "{text}"); // RTP: one type, compliant
        assert!(text.contains("All Apps"));
    }

    #[test]
    fn table4_lists_stun_types() {
        let s = sample();
        let text = table4(&s).to_text();
        assert!(text.contains("0x0002"), "{text}");
    }

    #[test]
    fn table1_aggregates_counts() {
        let s = sample();
        let text = table1(&s).to_text();
        assert!(text.contains("2.5"), "{text}"); // MB
        assert!(text.contains("10 | 1000"), "{text}");
        assert!(text.contains("5 | 950"), "{text}");
    }
}
