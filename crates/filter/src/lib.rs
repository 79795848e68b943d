//! # rtc-filter
//!
//! The paper's two-stage filtering pipeline (§3.2), which isolates RTC media
//! traffic from everything else a phone emits during a capture.
//!
//! 1. **Stream grouping** — packets are grouped into transport streams by
//!    their 5-tuple (source IP/port, destination IP/port, protocol).
//! 2. **Stage 1, timespan filtering** — any stream whose active span is not
//!    fully enclosed in the call window (expanded by a ±2 s slack) is
//!    removed: streams that start before the call, end after it, or span it
//!    are background activity (§3.2.1).
//! 3. **Stage 2, intra-call heuristics** (§3.2.2):
//!    * *3-tuple timing*: if a destination-side (IP, port, protocol) tuple
//!      is also seen outside the call window, every in-window stream to it
//!      is removed (catches persistent push services that rebind source
//!      ports),
//!    * *TLS SNI*: TCP streams whose ClientHello SNI matches a blocklist of
//!      known non-RTC domains are removed,
//!    * *local IP*: streams touching private/link-local ranges whose IP
//!      pair was already seen in the pre-call phase are removed (LAN
//!      management chatter) — P2P media between the two handsets survives
//!      because its IP pair first appears mid-call,
//!    * *port exclusion*: streams on well-known non-RTC service ports
//!      (DNS, DHCP, NTP, SSDP, mDNS, …) are removed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_wire::ip::{FiveTuple, ThreeTuple, Transport};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::net::IpAddr;

/// A transport stream: one 5-tuple and its datagrams in time order.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The 5-tuple key.
    pub tuple: FiveTuple,
    /// Datagrams of the stream, in capture order.
    pub datagrams: Vec<Datagram>,
}

impl Stream {
    /// First capture time, `None` for an empty stream. (An empty stream
    /// must not read as "active at time zero" — that would classify it as
    /// starting before any call window.)
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.datagrams.first().map(|d| d.ts)
    }

    /// Last capture time, `None` for an empty stream.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.datagrams.last().map(|d| d.ts)
    }

    /// Number of datagrams/segments.
    pub fn len(&self) -> usize {
        self.datagrams.len()
    }

    /// Whether the stream holds no datagrams.
    pub fn is_empty(&self) -> bool {
        self.datagrams.is_empty()
    }
}

/// The expanded call window of stage 1: a **closed** interval
/// `[lo, hi]`. Both stage 1 and the stage-2 out-of-window observations
/// share this one predicate, so a datagram stamped exactly at a boundary
/// is "inside" for both — the two stages can never disagree about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Earliest in-window time (inclusive).
    pub lo: Timestamp,
    /// Latest in-window time (inclusive).
    pub hi: Timestamp,
}

impl Window {
    /// Expand a `(start, end)` call window by `slack_us` on each side
    /// (saturating at time zero).
    pub fn around(call_window: (Timestamp, Timestamp), slack_us: u64) -> Window {
        let (start, end) = call_window;
        Window {
            lo: Timestamp::from_micros(start.as_micros().saturating_sub(slack_us)),
            hi: end.plus_micros(slack_us),
        }
    }

    /// Whether `ts` lies inside the closed interval.
    pub fn contains(self, ts: Timestamp) -> bool {
        self.lo <= ts && ts <= self.hi
    }

    /// Whether a stream spanning `[first, last]` lies entirely inside the
    /// window.
    pub fn encloses(self, first: Timestamp, last: Timestamp) -> bool {
        self.contains(first) && self.contains(last)
    }
}

/// Group decoded datagrams into per-5-tuple streams.
pub fn group_streams(datagrams: &[Datagram]) -> Vec<Stream> {
    let mut map: BTreeMap<FiveTuple, Vec<Datagram>> = BTreeMap::new();
    for d in datagrams {
        map.entry(d.five_tuple).or_default().push(d.clone());
    }
    map.into_iter().map(|(tuple, datagrams)| Stream { tuple, datagrams }).collect()
}

/// Which heuristic removed a stream in stage 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Heuristic {
    /// Destination 3-tuple also active outside the call window.
    ThreeTupleTiming,
    /// TLS SNI matched the non-RTC domain blocklist.
    TlsSni,
    /// Local-scope endpoints whose IP pair was seen pre-call.
    LocalIp,
    /// Transport port reserved for a non-RTC service.
    PortExclusion,
}

impl Heuristic {
    /// All heuristics, in the paper's application order.
    pub const ALL: [Heuristic; 4] =
        [Heuristic::ThreeTupleTiming, Heuristic::TlsSni, Heuristic::LocalIp, Heuristic::PortExclusion];

    /// Stable kebab-case label (used as a metrics label value).
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::ThreeTupleTiming => "3tuple-timing",
            Heuristic::TlsSni => "tls-sni",
            Heuristic::LocalIp => "local-ip",
            Heuristic::PortExclusion => "port-exclusion",
        }
    }
}

/// Configuration of the pipeline.
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// Call-window slack on each side, microseconds (paper: 2 s).
    pub slack_us: u64,
    /// Blocklisted SNI domains (paper: derived from 7.5 h of idle traffic).
    pub sni_blocklist: HashSet<String>,
    /// Excluded well-known ports (paper: IANA registry).
    pub excluded_ports: HashSet<u16>,
}

/// The default SNI blocklist, standing in for the paper's idle-traffic
/// derivation.
pub const DEFAULT_SNI_BLOCKLIST: [&str; 8] = [
    "oauth2.googleapis.com",
    "web.facebook.com",
    "itunes.apple.com",
    "app-measurement.com",
    "graph.instagram.com",
    "ads.doubleclick.net",
    "mesu.apple.com",
    "gsp-ssl.ls.apple.com",
];

/// Well-known non-RTC service ports excluded by default (paper: IANA
/// Service Name and Port Number Registry).
pub const DEFAULT_EXCLUDED_PORTS: [u16; 12] = [53, 67, 68, 123, 137, 138, 139, 546, 547, 1900, 5353, 5355];

/// Derive an SNI blocklist from idle-phone captures (paper §3.2.2): every
/// hostname observed in a TLS ClientHello during idle recording is, by
/// construction, not RTC traffic.
pub fn derive_sni_blocklist(idle_datagrams: &[Datagram]) -> HashSet<String> {
    // Grouped into streams first, so a ClientHello split across TCP
    // segments is reassembled exactly like in the stage-2 SNI filter.
    group_streams(idle_datagrams)
        .iter()
        .filter(|s| s.tuple.transport == Transport::Tcp)
        .filter_map(|s| segments_sni(&s.datagrams))
        .collect()
}

impl Default for FilterConfig {
    fn default() -> FilterConfig {
        FilterConfig {
            slack_us: 2_000_000,
            sni_blocklist: DEFAULT_SNI_BLOCKLIST.iter().map(|s| s.to_string()).collect(),
            excluded_ports: DEFAULT_EXCLUDED_PORTS.into_iter().collect(),
        }
    }
}

/// Per-stage removal statistics, split by transport (the columns of the
/// paper's Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// UDP streams removed.
    pub udp_streams: usize,
    /// UDP datagrams removed.
    pub udp_datagrams: usize,
    /// TCP streams removed.
    pub tcp_streams: usize,
    /// TCP segments removed.
    pub tcp_segments: usize,
}

impl StageStats {
    /// Count one stream of `datagrams` datagrams or segments.
    fn add_stream(&mut self, transport: Transport, datagrams: usize) {
        match transport {
            Transport::Udp => {
                self.udp_streams += 1;
                self.udp_datagrams += datagrams;
            }
            Transport::Tcp => {
                self.tcp_streams += 1;
                self.tcp_segments += datagrams;
            }
        }
    }
}

/// How many early segments of a TCP stream are scanned for a ClientHello.
const SNI_SCAN_SEGMENTS: usize = 8;

/// Extract the SNI of a TCP stream by scanning its early segments for a
/// TLS ClientHello. `segments` are the stream's payloads in capture order;
/// only the first [`SNI_SCAN_SEGMENTS`] are consulted.
fn segments_sni(segments: &[Datagram]) -> Option<String> {
    // A ClientHello in a single segment (the common case): try each early
    // segment on its own, so a hello that starts mid-stream is still found.
    if let Some(sni) = segments
        .iter()
        .take(SNI_SCAN_SEGMENTS)
        .find_map(|d| rtc_wire::tls::client_hello_sni(&d.payload).ok().flatten())
    {
        return Some(sni);
    }
    // Large hellos (big ALPN/key-share lists) span TCP segment boundaries,
    // where every individual segment parses as truncated. Reassemble the
    // stream head progressively and retry after each segment.
    let mut head = Vec::new();
    for d in segments.iter().take(SNI_SCAN_SEGMENTS).skip(1) {
        if head.is_empty() {
            head.extend_from_slice(&segments[0].payload);
        }
        head.extend_from_slice(&d.payload);
        if let Ok(sni) = rtc_wire::tls::client_hello_sni(&head) {
            return sni;
        }
    }
    None
}

/// What the online filter retains per stream while datagrams arrive.
///
/// There is one policy, and no code branches on it. [`OnlineFilter::new`]
/// still takes it only because rtcperf's per-layer re-drive
/// (`rtcperf/src/redrive.rs`) names [`Retention::AcceptedUdp`]; the type
/// and the parameter go when that re-drive is deleted (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep only what classification needs: UDP payloads until a stream is
    /// provably rejected, and the first few TCP segments for SNI
    /// extraction. Peak memory is O(live candidate streams) instead of
    /// O(capture).
    AcceptedUdp,
}

/// The outcome of a filter pass.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Kept RTC UDP datagrams merged in global capture-time order (the
    /// input to the DPI stage — the paper analyzes UDP only, §3.3). The
    /// grouping into per-tuple streams does not leak into the order
    /// downstream timing analyses see.
    pub accepted_udp: Vec<Datagram>,
    /// Raw traffic statistics before filtering.
    pub raw: StageStats,
    /// Stage-1 removal statistics.
    pub stage1: StageStats,
    /// Stage-2 removal statistics.
    pub stage2: StageStats,
    /// RTC (kept) statistics.
    pub rtc: StageStats,
    /// Streams removed by each stage-2 heuristic (the per-heuristic
    /// breakdown of `stage2`, for the observability layer).
    pub stage2_heuristics: BTreeMap<Heuristic, usize>,
    /// High-water mark of retained payload bytes while streaming.
    pub peak_retained_bytes: usize,
}

#[derive(Debug)]
struct StreamAcct {
    first_ts: Timestamp,
    last_ts: Timestamp,
    count: usize,
    retained: Vec<Datagram>,
    /// Retention was abandoned because the stream is already provably
    /// rejected (accounting continues regardless).
    dropped: bool,
}

fn ip_pair(t: &FiveTuple) -> (IpAddr, IpAddr) {
    let (a, b) = (t.src.ip(), t.dst.ip());
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Whether a stream whose first datagram is `d` is already provably
/// rejected (a *monotone* condition: it can never become RTC later).
fn doomed_at_birth(
    win: Window,
    config: &FilterConfig,
    out_of_window_3tuples: &HashSet<ThreeTuple>,
    precall_ip_pairs: &HashSet<(IpAddr, IpAddr)>,
    d: &Datagram,
) -> bool {
    let tuple = &d.five_tuple;
    // First datagram outside the window → stage-1 removed, forever.
    !win.contains(d.ts)
        // Any out-of-window activity on this destination 3-tuple (the
        // sets only grow, and an out-of-window datagram of the stream
        // itself inserts its own destination) → stage 1 or 2 removed.
        || out_of_window_3tuples.contains(&tuple.dst_three_tuple())
        // Excluded ports are static properties of the tuple.
        || config.excluded_ports.contains(&tuple.src.port())
        || config.excluded_ports.contains(&tuple.dst.port())
        // A local IP pair seen pre-call stays seen.
        || (tuple.touches_local_range() && precall_ip_pairs.contains(&ip_pair(tuple)))
}

/// Where the final classification placed a stream.
enum StreamClass {
    Stage1,
    Stage2(Heuristic),
    Rtc,
}

/// The two-stage pipeline as an online engine: datagrams are pushed as they
/// arrive, per-stream accounting and the stage-2 observation sets grow
/// incrementally, and the final classification happens at [`finish`].
///
/// The key to bounded memory is that every retention drop is *monotone*:
/// a stream's payloads are only discarded once it is provably impossible
/// for the final classification to call it RTC (its first datagram lies
/// outside the window, it touched an out-of-window destination 3-tuple, it
/// runs on an excluded port, or its local IP pair was seen pre-call).
/// Doom is decided once, when a stream's first datagram arrives; after
/// that, the only route to doom is a sweep run by a fresh out-of-window
/// 3-tuple or pre-call IP pair. Dropping affects retention only — counts
/// and timestamps keep accumulating — and the final classification is
/// computed from the complete accounting. The outcome therefore equals
/// that of the batch pipeline the engine replaced (group every stream,
/// then classify whole streams), even on unsorted input;
/// `tests/support/reference.rs` keeps that pipeline, and the crate's
/// tests compare the two.
///
/// [`finish`]: OnlineFilter::finish_streaming
#[derive(Debug)]
pub struct OnlineFilter {
    call_start: Timestamp,
    win: Window,
    config: FilterConfig,
    streams: BTreeMap<FiveTuple, StreamAcct>,
    out_of_window_3tuples: HashSet<ThreeTuple>,
    precall_ip_pairs: HashSet<(IpAddr, IpAddr)>,
    retained_bytes: usize,
    peak_retained_bytes: usize,
}

impl OnlineFilter {
    /// Start an online filtering pass for one call.
    ///
    /// `call_window` is the (initiation, termination) pair from the capture
    /// manifest. The retention policy has one value; see [`Retention`].
    pub fn new(call_window: (Timestamp, Timestamp), config: FilterConfig, _retention: Retention) -> OnlineFilter {
        let win = Window::around(call_window, config.slack_us);
        OnlineFilter {
            call_start: call_window.0,
            win,
            config,
            streams: BTreeMap::new(),
            out_of_window_3tuples: HashSet::new(),
            precall_ip_pairs: HashSet::new(),
            retained_bytes: 0,
            peak_retained_bytes: 0,
        }
    }

    /// Currently retained payload bytes.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// High-water mark of retained payload bytes.
    pub fn peak_retained_bytes(&self) -> usize {
        self.peak_retained_bytes
    }

    /// Feed one decoded datagram, in capture order.
    pub fn push(&mut self, d: Datagram) {
        // Stage-2 observations, gathered from the FULL capture:
        // destination-side 3-tuples active outside the call window, and
        // local IP pairs seen before the call. A fresh observation can doom
        // streams that were still retaining payloads — sweep them.
        if !self.win.contains(d.ts) && self.out_of_window_3tuples.insert(d.five_tuple.dst_three_tuple()) {
            let hit = d.five_tuple.dst_three_tuple();
            self.sweep(|tuple| tuple.dst_three_tuple() == hit);
        }
        if d.ts < self.call_start {
            let pair = ip_pair(&d.five_tuple);
            if self.precall_ip_pairs.insert(pair) {
                self.sweep(|tuple| tuple.touches_local_range() && ip_pair(tuple) == pair);
            }
        }

        // One map walk per datagram. A stream's doom is decided at birth
        // from its first timestamp and static tuple; the observation sets
        // only grow afterwards, and each growth sweeps every stream it
        // dooms, so for an existing stream `dropped` already says it all.
        let acct = match self.streams.entry(d.five_tuple) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let dropped = d.five_tuple.transport == Transport::Udp
                    && doomed_at_birth(
                        self.win,
                        &self.config,
                        &self.out_of_window_3tuples,
                        &self.precall_ip_pairs,
                        &d,
                    );
                e.insert(StreamAcct { first_ts: d.ts, last_ts: d.ts, count: 0, retained: Vec::new(), dropped })
            }
        };
        acct.last_ts = d.ts;
        acct.count += 1;

        let retain = match d.five_tuple.transport {
            // TCP payloads only ever feed SNI extraction, which scans the
            // first SNI_SCAN_SEGMENTS segments: cap the head, keep it even
            // for doomed streams (stage-2 attribution may still need it).
            Transport::Tcp => acct.retained.len() < SNI_SCAN_SEGMENTS,
            Transport::Udp => !acct.dropped,
        };
        if retain {
            self.retained_bytes += d.payload.len();
            self.peak_retained_bytes = self.peak_retained_bytes.max(self.retained_bytes);
            acct.retained.push(d);
        }
    }

    /// Drop retained payloads of UDP streams newly doomed by a fresh
    /// observation.
    fn sweep(&mut self, doomed: impl Fn(&FiveTuple) -> bool) {
        let mut freed = 0;
        for (tuple, acct) in self.streams.iter_mut() {
            if tuple.transport == Transport::Udp && !acct.dropped && doomed(tuple) {
                acct.dropped = true;
                freed += acct.retained.iter().map(|r| r.payload.len()).sum::<usize>();
                acct.retained = Vec::new();
            }
        }
        self.retained_bytes -= freed;
    }

    /// The paper's classification of one stream, from its complete
    /// accounting.
    fn classify(&self, tuple: &FiveTuple, acct: &StreamAcct) -> StreamClass {
        // Stage 1: timespan alignment.
        if !self.win.encloses(acct.first_ts, acct.last_ts) {
            return StreamClass::Stage1;
        }
        // Stage 2: intra-call heuristics, applied in the paper's order.
        let excluded = |port: u16| self.config.excluded_ports.contains(&port);
        if self.out_of_window_3tuples.contains(&tuple.dst_three_tuple()) {
            StreamClass::Stage2(Heuristic::ThreeTupleTiming)
        } else if tuple.transport == Transport::Tcp
            && segments_sni(&acct.retained).is_some_and(|sni| self.config.sni_blocklist.contains(&sni))
        {
            StreamClass::Stage2(Heuristic::TlsSni)
        } else if tuple.touches_local_range() && self.precall_ip_pairs.contains(&ip_pair(tuple)) {
            StreamClass::Stage2(Heuristic::LocalIp)
        } else if excluded(tuple.src.port()) || excluded(tuple.dst.port()) {
            StreamClass::Stage2(Heuristic::PortExclusion)
        } else {
            StreamClass::Rtc
        }
    }

    /// Finish the pass: classify every stream from its accounting and emit
    /// the accepted RTC UDP datagrams in global capture-time order, plus
    /// the per-stage statistics. Peak payload residency was bounded by the
    /// live candidate streams.
    pub fn finish_streaming(mut self) -> OnlineOutcome {
        let mut raw = StageStats::default();
        let mut stage1 = StageStats::default();
        let mut stage2 = StageStats::default();
        let mut rtc = StageStats::default();
        let mut stage2_heuristics: BTreeMap<Heuristic, usize> = BTreeMap::new();
        // The RTC UDP streams' retained datagrams, gathered first so the
        // accepted list is allocated at its exact length.
        let mut rtc_udp = Vec::new();
        for (tuple, acct) in std::mem::take(&mut self.streams) {
            let class = self.classify(&tuple, &acct);
            // Stats count every datagram the stream saw, not just what was
            // retained.
            let stats = match class {
                StreamClass::Stage1 => &mut stage1,
                StreamClass::Stage2(h) => {
                    *stage2_heuristics.entry(h).or_default() += 1;
                    &mut stage2
                }
                StreamClass::Rtc => &mut rtc,
            };
            raw.add_stream(tuple.transport, acct.count);
            stats.add_stream(tuple.transport, acct.count);
            if matches!(class, StreamClass::Rtc) && tuple.transport == Transport::Udp {
                debug_assert!(!acct.dropped, "an RTC-classified stream must never have been dropped");
                rtc_udp.push(acct.retained);
            }
        }
        let mut accepted_udp = Vec::with_capacity(rtc_udp.iter().map(Vec::len).sum());
        for retained in rtc_udp {
            accepted_udp.extend(retained);
        }
        // Streams flatten in BTreeMap (tuple) order; the stable sort merges
        // them by capture time, so same-timestamp datagrams keep that order.
        accepted_udp.sort_by_key(|d| d.ts);
        OnlineOutcome {
            accepted_udp,
            raw,
            stage1,
            stage2,
            rtc,
            stage2_heuristics,
            peak_retained_bytes: self.peak_retained_bytes,
        }
    }
}

/// Run the two-stage pipeline over one call's decoded datagrams: push them
/// all into an [`OnlineFilter`] and finish it.
///
/// `call_window` is the (initiation, termination) pair from the capture
/// manifest; datagrams outside the capture (there are none in practice)
/// still participate in the out-of-window observations the stage-2
/// 3-tuple filter needs.
pub fn run(datagrams: &[Datagram], call_window: (Timestamp, Timestamp), config: &FilterConfig) -> OnlineOutcome {
    let mut filter = OnlineFilter::new(call_window, config.clone(), Retention::AcceptedUdp);
    for d in datagrams {
        filter.push(d.clone());
    }
    filter.finish_streaming()
}

// The batch pipeline the online engine replaced, shared with the
// integration tests; it names this crate `rtc_filter` as they do.
#[cfg(test)]
extern crate self as rtc_filter;
#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches_reference, run_reference};
    use bytes::Bytes;

    fn dg(ts_s: u64, src: &str, dst: &str, transport: Transport, payload: &[u8]) -> Datagram {
        Datagram {
            ts: Timestamp::from_secs(ts_s),
            five_tuple: FiveTuple { src: src.parse().unwrap(), dst: dst.parse().unwrap(), transport },
            payload: Bytes::copy_from_slice(payload),
        }
    }

    const WINDOW: (Timestamp, Timestamp) = (Timestamp::from_secs(60), Timestamp::from_secs(360));

    fn removed_by(h: Heuristic, streams: usize) -> BTreeMap<Heuristic, usize> {
        BTreeMap::from([(h, streams)])
    }

    #[test]
    fn stream_grouping_by_exact_tuple() {
        let d = vec![
            dg(70, "10.0.0.1:100", "1.2.3.4:200", Transport::Udp, b"a"),
            dg(71, "10.0.0.1:100", "1.2.3.4:200", Transport::Udp, b"b"),
            dg(72, "1.2.3.4:200", "10.0.0.1:100", Transport::Udp, b"c"),
        ];
        let streams = group_streams(&d);
        assert_eq!(streams.len(), 2, "directions are distinct streams");
        assert_eq!(streams.iter().map(|s| s.len()).sum::<usize>(), 3);
    }

    #[test]
    fn stage1_removes_boundary_straddlers() {
        let d = vec![
            // Starts before the call.
            dg(10, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
            dg(100, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
            // Fully inside.
            dg(100, "174.192.14.21:101", "1.2.3.4:201", Transport::Udp, b"y"),
            dg(200, "174.192.14.21:101", "1.2.3.4:201", Transport::Udp, b"y"),
            // Ends after the call.
            dg(100, "174.192.14.21:102", "1.2.3.4:202", Transport::Udp, b"z"),
            dg(400, "174.192.14.21:102", "1.2.3.4:202", Transport::Udp, b"z"),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.stage1.udp_streams, 2);
        assert_eq!(r.rtc.udp_streams, 1);
        assert_eq!(r.accepted_udp.len(), 2);
        assert!(r.accepted_udp.iter().all(|d| d.five_tuple.src.port() == 101));
    }

    #[test]
    fn slack_tolerates_two_seconds() {
        let d = vec![
            dg(59, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"), // 1 s early: ok
            dg(361, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"), // 1 s late: ok
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc.udp_streams, 1);
        assert_eq!(r.accepted_udp.len(), 2);
    }

    #[test]
    fn three_tuple_timing_catches_rebinding_push_service() {
        let d = vec![
            // Same destination 3-tuple before the call (different source port).
            dg(20, "10.0.0.1:100", "17.57.1.1:5223", Transport::Tcp, b"apns"),
            // In-window stream to the same destination: removed by 3-tuple.
            dg(100, "10.0.0.1:333", "17.57.1.1:5223", Transport::Tcp, b"apns"),
            dg(120, "10.0.0.1:333", "17.57.1.1:5223", Transport::Tcp, b"apns"),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc, StageStats::default());
        assert_eq!(r.stage2_heuristics, removed_by(Heuristic::ThreeTupleTiming, 1));
        assert_eq!(r.stage2.tcp_segments, 2);
    }

    #[test]
    fn sni_blocklist_removes_tracker_flows() {
        let hello = rtc_wire::tls::build_client_hello(Some("ads.doubleclick.net"), [1; 32]);
        let ok_hello = rtc_wire::tls::build_client_hello(Some("rtc-media.example.com"), [2; 32]);
        let d = vec![
            dg(100, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, &hello),
            dg(101, "10.0.0.1:401", "1.2.3.5:443", Transport::Tcp, &ok_hello),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc.tcp_streams, 1);
        assert_eq!(r.stage2_heuristics, removed_by(Heuristic::TlsSni, 1));
    }

    #[test]
    fn local_ip_filter_spares_p2p_between_handsets() {
        let d = vec![
            // LAN chatter: local pair, ALSO seen pre-call → removed.
            dg(30, "192.168.1.101:49300", "192.168.1.50:49200", Transport::Udp, b"ssdp-ish"),
            dg(100, "192.168.1.101:49300", "192.168.1.50:49200", Transport::Udp, b"ssdp-ish"),
            dg(140, "192.168.1.101:49300", "192.168.1.50:49200", Transport::Udp, b"ssdp-ish"),
            // P2P media: local pair but first seen in-call → kept.
            dg(100, "192.168.1.101:50000", "192.168.1.102:50001", Transport::Udp, b"rtp"),
            dg(200, "192.168.1.101:50000", "192.168.1.102:50001", Transport::Udp, b"rtp"),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        // The pre-call LAN datagram stream is stage-1 removed (starts early);
        // the in-window LAN stream shares its 3-tuple... use distinct ports to
        // isolate the local-ip heuristic:
        let kept: Vec<_> = r.accepted_udp.iter().map(|d| d.five_tuple.src.port()).collect();
        assert!(kept.contains(&50000), "p2p media survives: {kept:?}");
        assert!(!kept.contains(&49300));
    }

    #[test]
    fn port_exclusion_removes_dns_and_ssdp() {
        let d = vec![
            dg(100, "10.0.0.1:500", "8.8.8.8:53", Transport::Udp, b"dns"),
            dg(100, "10.0.0.1:1900", "239.255.255.250:1900", Transport::Udp, b"ssdp"),
            dg(100, "10.0.0.1:501", "1.2.3.4:3478", Transport::Udp, b"stun"),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc.udp_streams, 1);
        assert_eq!(r.accepted_udp.len(), 1);
        assert_eq!(r.accepted_udp[0].five_tuple.dst.port(), 3478);
        assert_eq!(r.stage2_heuristics, removed_by(Heuristic::PortExclusion, 2));
    }

    #[test]
    fn stats_are_consistent() {
        let d = vec![
            dg(10, "10.0.0.1:100", "1.2.3.4:200", Transport::Udp, b"early"),
            dg(100, "10.0.0.1:101", "8.8.8.8:53", Transport::Udp, b"dns"),
            dg(100, "10.0.0.1:102", "1.2.3.4:202", Transport::Udp, b"rtc"),
            dg(100, "10.0.0.1:103", "1.2.3.4:443", Transport::Tcp, b"sig"),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.raw.udp_streams, 3);
        assert_eq!(r.raw.tcp_streams, 1);
        assert_eq!(r.raw.udp_datagrams, r.stage1.udp_datagrams + r.stage2.udp_datagrams + r.rtc.udp_datagrams);
        assert_eq!(r.raw.tcp_segments, r.stage1.tcp_segments + r.stage2.tcp_segments + r.rtc.tcp_segments);
        assert_eq!(r.accepted_udp.len(), r.rtc.udp_datagrams);
    }

    #[test]
    fn blocklist_derivation_from_idle_traffic() {
        let hello = |host: &str, port: u16| {
            dg(
                100,
                &format!("10.0.0.1:{port}"),
                "1.2.3.4:443",
                Transport::Tcp,
                &rtc_wire::tls::build_client_hello(Some(host), [1; 32]),
            )
        };
        let idle = vec![
            hello("tracker.example.com", 400),
            hello("push.example.net", 401),
            // Non-ClientHello TCP and UDP noise must be ignored.
            dg(100, "10.0.0.1:402", "1.2.3.4:443", Transport::Tcp, b"not-tls"),
            dg(100, "10.0.0.1:403", "1.2.3.4:53", Transport::Udp, b"dns"),
        ];
        let list = derive_sni_blocklist(&idle);
        assert_eq!(list.len(), 2);
        assert!(list.contains("tracker.example.com"));
        // And a config with the derived list filters matching in-call flows.
        let cfg = FilterConfig { sni_blocklist: list, ..Default::default() };
        let d = vec![hello("tracker.example.com", 500), hello("media.rtc.example", 501)];
        let r = run(&d, WINDOW, &cfg);
        assert_eq!(r.rtc.tcp_streams, 1);
        assert_eq!(r.stage2_heuristics, removed_by(Heuristic::TlsSni, 1));
    }

    fn dg_us(ts_us: u64, src: &str, dst: &str, transport: Transport, payload: &[u8]) -> Datagram {
        Datagram {
            ts: Timestamp::from_micros(ts_us),
            five_tuple: FiveTuple { src: src.parse().unwrap(), dst: dst.parse().unwrap(), transport },
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn window_is_a_closed_interval() {
        let w = Window::around(WINDOW, 2_000_000);
        assert_eq!(w.lo, Timestamp::from_secs(58));
        assert_eq!(w.hi, Timestamp::from_secs(362));
        assert!(w.contains(w.lo), "lower boundary is inside");
        assert!(w.contains(w.hi), "upper boundary is inside");
        assert!(!w.contains(Timestamp::from_micros(w.lo.as_micros() - 1)));
        assert!(!w.contains(Timestamp::from_micros(w.hi.as_micros() + 1)));
        assert!(w.encloses(w.lo, w.hi));
        // Expansion saturates at time zero instead of wrapping.
        let early = Window::around((Timestamp::from_secs(1), Timestamp::from_secs(2)), 2_000_000);
        assert_eq!(early.lo, Timestamp::ZERO);
    }

    #[test]
    fn stage1_keeps_streams_touching_the_exact_boundary() {
        // Regression: the boundary semantics live in one shared predicate.
        // A datagram stamped exactly at win.lo (or win.hi) is in-window for
        // stage 1 AND not an out-of-window observation for stage 2, so the
        // stream survives both stages; 1 µs beyond either edge flips both.
        let lo_us = 58_000_000u64;
        let hi_us = 362_000_000u64;
        let at_edges = vec![
            dg_us(lo_us, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
            dg_us(hi_us, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
        ];
        let r = run(&at_edges, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc.udp_streams, 1, "boundary datagrams are inside the closed window");
        assert_eq!(r.stage2, StageStats::default());

        for (early, late) in [(lo_us - 1, hi_us), (lo_us, hi_us + 1)] {
            let past_edge = vec![
                dg_us(early, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
                dg_us(late, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, b"x"),
            ];
            let r = run(&past_edge, WINDOW, &FilterConfig::default());
            assert!(r.accepted_udp.is_empty(), "1 µs beyond the window is outside");
            assert_eq!(r.stage1.udp_streams, 1);
        }
    }

    #[test]
    fn accepted_udp_merges_interleaved_streams_by_time() {
        // Regression: flattening per-stream in BTreeMap (tuple) order used
        // to emit all of stream A before all of stream B even when their
        // datagrams interleaved in capture time.
        let d = vec![
            dg_us(100_000_000, "10.0.0.9:700", "1.2.3.4:200", Transport::Udp, b"b0"),
            dg_us(101_000_000, "10.0.0.1:600", "1.2.3.4:200", Transport::Udp, b"a0"),
            dg_us(102_000_000, "10.0.0.9:700", "1.2.3.4:200", Transport::Udp, b"b1"),
            dg_us(103_000_000, "10.0.0.1:600", "1.2.3.4:200", Transport::Udp, b"a1"),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc.udp_streams, 2);
        let merged = &r.accepted_udp;
        let order: Vec<&[u8]> = merged.iter().map(|d| d.payload.as_ref()).collect();
        assert_eq!(order, vec![&b"b0"[..], b"a0", b"b1", b"a1"], "global capture-time order");
        let mut ts: Vec<_> = merged.iter().map(|d| d.ts).collect();
        let sorted = {
            let mut s = ts.clone();
            s.sort();
            s
        };
        assert_eq!(ts, sorted);
        ts.dedup();
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn split_client_hello_is_reassembled() {
        // Regression: a ClientHello spanning TCP segments parses as
        // truncated in every individual segment; both the stage-2 SNI
        // filter and the idle-traffic blocklist derivation must reassemble
        // the stream head before extraction.
        let hello = rtc_wire::tls::build_client_hello(Some("ads.doubleclick.net"), [1; 32]);
        let (seg1, seg2) = hello.split_at(hello.len() / 2);
        let d = vec![
            dg_us(100_000_000, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, seg1),
            dg_us(100_100_000, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, seg2),
        ];
        let r = run(&d, WINDOW, &FilterConfig::default());
        assert_eq!(r.rtc, StageStats::default(), "split hello still matches the blocklist");
        assert_eq!(r.stage2_heuristics, removed_by(Heuristic::TlsSni, 1));

        // The same split hello feeds blocklist derivation.
        let idle_hello = rtc_wire::tls::build_client_hello(Some("tracker.example.com"), [2; 32]);
        let (i1, i2) = idle_hello.split_at(20);
        let idle = vec![
            dg_us(100_000_000, "10.0.0.1:500", "1.2.3.4:443", Transport::Tcp, i1),
            dg_us(100_100_000, "10.0.0.1:500", "1.2.3.4:443", Transport::Tcp, i2),
        ];
        let list = derive_sni_blocklist(&idle);
        assert_eq!(list.len(), 1);
        assert!(list.contains("tracker.example.com"));
    }

    #[test]
    fn empty_stream_has_no_timespan() {
        // Regression: first_ts/last_ts used to report Timestamp::ZERO for
        // an empty stream, which read as "started before the call".
        let s = Stream {
            tuple: FiveTuple::udp("10.0.0.1:1".parse().unwrap(), "1.2.3.4:2".parse().unwrap()),
            datagrams: vec![],
        };
        assert!(s.is_empty());
        assert_eq!(s.first_ts(), None);
        assert_eq!(s.last_ts(), None);
        let full =
            Stream { tuple: s.tuple, datagrams: vec![dg(100, "10.0.0.1:1", "1.2.3.4:2", Transport::Udp, b"x")] };
        assert_eq!(full.first_ts(), Some(Timestamp::from_secs(100)));
        assert_eq!(full.last_ts(), Some(Timestamp::from_secs(100)));
    }

    #[test]
    fn empty_input() {
        let r = run(&[], WINDOW, &FilterConfig::default());
        assert!(r.accepted_udp.is_empty());
        assert_eq!(r.raw, StageStats::default());
    }

    mod online {
        use super::*;
        use rtc_conformance::{check_cases, SplitMix64};

        /// Cases per property.
        const CASES: u32 = 128;

        /// A datagram pool exercising every heuristic: pre/in/post-window
        /// timestamps, excluded ports, local IP pairs, blocklisted SNI
        /// hellos, and plain RTC-looking UDP.
        fn arb_datagram(rng: &mut SplitMix64) -> Datagram {
            // WINDOW is (60 s, 360 s); slack 2 s → closed [58 s, 362 s].
            let ts_sel = rng.in_range(0u8..6);
            let ts_raw = rng.next_u64();
            let sip = rng.in_range(0usize..4);
            let dip = rng.in_range(0usize..4);
            let sp = rng.in_range(0u16..10);
            let dp = rng.in_range(0usize..5);
            let transport = rng.in_range(0u8..4);
            let pay_sel = rng.in_range(0u8..6);
            let raw = rng.bytes(0..40);
            let ts = match ts_sel {
                0..=2 => 58_000_000 + ts_raw % (362_000_000 - 58_000_000 + 1), // in-window
                3 => ts_raw % 58_000_000,                                      // pre-call
                4 => 362_000_001 + ts_raw % 38_000_000,                        // post-call
                _ => [57_999_999, 58_000_000, 362_000_000, 362_000_001][(ts_raw % 4) as usize], // edges
            };
            let sip = ["10.0.0.1", "10.0.0.2", "192.168.1.101", "192.168.1.102"][sip];
            let dip = ["1.2.3.4", "1.2.3.5", "192.168.1.50", "192.168.1.102"][dip];
            let sp = if sp == 9 { 5353 } else { 40000 + sp };
            let dp = [3478u16, 443, 50001, 50002, 53][dp];
            let transport = if transport == 3 { Transport::Tcp } else { Transport::Udp };
            let payload = match pay_sel {
                0..=3 => raw,
                4 => rtc_wire::tls::build_client_hello(Some("ads.doubleclick.net"), [7; 32]),
                _ => rtc_wire::tls::build_client_hello(Some("media.rtc.example"), [9; 32]),
            };
            Datagram {
                ts: Timestamp::from_micros(ts),
                five_tuple: FiveTuple {
                    src: format!("{sip}:{sp}").parse().unwrap(),
                    dst: format!("{dip}:{dp}").parse().unwrap(),
                    transport,
                },
                payload: payload.into(),
            }
        }

        fn arb_datagrams(rng: &mut SplitMix64) -> Vec<Datagram> {
            (0..rng.in_range(0..120)).map(|_| arb_datagram(rng)).collect()
        }

        /// The online engine emits exactly the batch reference's accepted
        /// UDP datagrams, per-stage stats and stage-2 attribution —
        /// including on unsorted input, where first/last timestamps follow
        /// push order rather than min/max.
        #[test]
        fn accepted_udp_mode_matches_batch() {
            check_cases("accepted_udp_mode_matches_batch", CASES, |rng| {
                let datagrams = arb_datagrams(rng);
                let cfg = FilterConfig::default();
                let reference = run_reference(&datagrams, WINDOW, &cfg);
                let out = run(&datagrams, WINDOW, &cfg);
                assert_matches_reference(&out, &reference);
                assert_eq!(
                    out.accepted_udp.capacity(),
                    out.accepted_udp.len(),
                    "accepted_udp is allocated at its exact length"
                );
            });
        }

        #[test]
        fn doomed_streams_release_their_payloads() {
            // A chatty pre-call stream is dropped the moment it is seen;
            // retained bytes stay bounded by the single live RTC stream.
            let mut f = OnlineFilter::new(WINDOW, FilterConfig::default(), Retention::AcceptedUdp);
            for i in 0..100u64 {
                f.push(dg(10 + i / 50, "174.192.14.21:100", "1.2.3.4:200", Transport::Udp, &[0u8; 100]));
            }
            assert_eq!(f.retained_bytes(), 0, "pre-call stream retains nothing");
            f.push(dg(100, "174.192.14.21:101", "1.2.3.4:3478", Transport::Udp, &[0u8; 100]));
            assert_eq!(f.retained_bytes(), 100);
            // An excluded-port stream never retains.
            f.push(dg(101, "174.192.14.21:102", "8.8.8.8:53", Transport::Udp, &[0u8; 500]));
            assert_eq!(f.retained_bytes(), 100);
            assert_eq!(f.peak_retained_bytes(), 100);
            let out = f.finish_streaming();
            assert_eq!(out.accepted_udp.len(), 1);
            assert_eq!(out.raw.udp_datagrams, 102);
        }

        #[test]
        fn late_observation_sweeps_retained_stream() {
            // A stream accepted-so-far loses its payloads when its
            // destination 3-tuple later shows up out-of-window — and the
            // final classification still matches batch.
            let mut f = OnlineFilter::new(WINDOW, FilterConfig::default(), Retention::AcceptedUdp);
            let d = vec![
                dg(100, "174.192.14.21:100", "1.2.3.4:3478", Transport::Udp, &[0u8; 64]),
                dg(101, "174.192.14.21:101", "1.2.3.4:443", Transport::Udp, &[0u8; 64]),
                // Post-window datagram to 1.2.3.4:3478 → dooms the first.
                dg(380, "174.192.14.9:999", "1.2.3.4:3478", Transport::Udp, &[0u8; 8]),
            ];
            f.push(d[0].clone());
            f.push(d[1].clone());
            assert_eq!(f.retained_bytes(), 128);
            f.push(d[2].clone());
            assert_eq!(f.retained_bytes(), 64, "swept the newly doomed stream");
            let out = f.finish_streaming();
            assert_matches_reference(&out, &run_reference(&d, WINDOW, &FilterConfig::default()));
            assert_eq!(out.accepted_udp.len(), 1);
            assert_eq!(out.accepted_udp[0].five_tuple.dst.port(), 443);
        }

        #[test]
        fn tcp_head_is_capped_for_sni() {
            let hello = rtc_wire::tls::build_client_hello(Some("ads.doubleclick.net"), [1; 32]);
            let mut f = OnlineFilter::new(WINDOW, FilterConfig::default(), Retention::AcceptedUdp);
            f.push(dg(100, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, &hello));
            for i in 0..50u64 {
                f.push(dg(101 + i, "10.0.0.1:400", "1.2.3.4:443", Transport::Tcp, &[0u8; 1000]));
            }
            assert!(
                f.retained_bytes() < hello.len() + SNI_SCAN_SEGMENTS * 1000,
                "TCP retention bounded by the SNI scan head"
            );
            let out = f.finish_streaming();
            assert_eq!(out.stage2.tcp_streams, 1, "blocklisted SNI still attributed from the capped head");
            assert_eq!(out.stage2.tcp_segments, 51);
        }
    }
}
