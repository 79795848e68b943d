//! Validation and overlap resolution — step 2 of Algorithm 1 plus the
//! proprietary-header classification of §4.1.2.

use crate::pattern::{stun_data_range, Candidate, CandidateKind, CidBuf};
use crate::{DatagramClass, DatagramDissection, DpiConfig, DpiMessage, Protocol};
use rtc_pcap::trace::Datagram;
use rtc_wire::ip::FiveTuple;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Stream-context facts gathered across the whole call, used to validate
/// individual candidates.
#[derive(Debug, Default)]
pub struct ValidationContext {
    /// Slot index of every interned directional stream.
    slot_of: HashMap<FiveTuple, u32>,
    /// One frozen slot per such stream: resolving a datagram finds its
    /// slot once, then validates every candidate against it.
    slots: Vec<StreamSlot>,
    /// RTP SSRCs per *conversation* (canonical stream key), from valid
    /// groups — the RTCP cross-validation set.
    pub rtp_ssrcs: HashMap<FiveTuple, HashSet<u32>>,
}

/// What validation needs to know about one directional stream. Every list
/// is tiny and sorted ascending, so a membership probe is a few compares
/// ([`sorted_contains`]) rather than a hash.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct StreamSlot {
    /// SSRCs whose groups on this stream passed the RTP
    /// sequence-continuity test.
    rtp: Vec<u32>,
    /// Legacy message types with enough members on this stream to trust a
    /// cookie-less STUN match.
    legacy: Vec<u16>,
    /// The conversation's valid RTP SSRCs (both directions): the RTCP
    /// sender-SSRC cross-validation set.
    rtcp_ssrcs: Vec<u32>,
    /// The conversation's QUIC connection IDs, from long headers.
    quic_cids: Vec<CidBuf>,
}

/// The slot of a stream that carried no candidate: nothing validates.
static EMPTY_SLOT: StreamSlot =
    StreamSlot { rtp: Vec::new(), legacy: Vec::new(), rtcp_ssrcs: Vec::new(), quic_cids: Vec::new() };

/// Membership test on a small sorted slice via a branch-free binary search:
/// the probe is a conditional move per halving, so the (overwhelmingly
/// mispredicting) noise candidates never stall on a data-dependent branch
/// the way `slice::contains` does. Falls back to the same answer as
/// `s.contains(&x)` — callers must keep the slice sorted ascending.
#[inline]
fn sorted_contains<T: Copy + Ord>(s: &[T], x: T) -> bool {
    let mut base = 0usize;
    let mut size = s.len();
    if size == 0 {
        return false;
    }
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = if s[mid] <= x { mid } else { base };
        size -= half;
    }
    s[base] == x
}

impl ValidationContext {
    fn slot(&self, stream: &FiveTuple) -> &StreamSlot {
        self.slot_of.get(stream).map_or(&EMPTY_SLOT, |&i| self.stream_slot(i))
    }

    /// The slot of the stream [`StreamTable::intern`] numbered `sid`.
    pub(crate) fn stream_slot(&self, sid: u32) -> &StreamSlot {
        &self.slots[sid as usize]
    }
}

/// Directional streams numbered in first-seen order, so per-datagram work
/// can index by a `u32` instead of hashing a [`FiveTuple`] again.
#[derive(Debug, Default)]
pub(crate) struct StreamTable {
    ids: HashMap<FiveTuple, u32>,
    streams: Vec<FiveTuple>,
}

impl StreamTable {
    /// The id of `stream`, numbering it if it is new.
    pub(crate) fn intern(&mut self, stream: FiveTuple) -> u32 {
        *self.ids.entry(stream).or_insert_with(|| {
            self.streams.push(stream);
            (self.streams.len() - 1) as u32
        })
    }
}

impl StreamSlot {
    fn rtcp_ssrc_valid(&self, ssrc: Option<u32>) -> bool {
        match ssrc {
            // RFC 3550 does not forbid SSRC 0, and Discord uses it (§5.3).
            Some(0) => true,
            Some(s) => sorted_contains(&self.rtcp_ssrcs, s),
            None => false,
        }
    }

    fn quic_short_valid(&self, payload: &[u8]) -> bool {
        self.quic_cids.iter().any(|cid| payload.len() > cid.len() && payload[1..1 + cid.len()] == *cid.as_slice())
    }
}

/// Incrementally accumulates the cross-datagram observations that
/// [`ValidationContext`] is computed from: call [`observe`] once per
/// datagram as it streams by, then [`finish`] when the call is complete.
///
/// Validation is inherently a whole-call property (sequence continuity,
/// SSRC consistency), so the context still becomes usable only at
/// `finish`; what streaming buys is that no datagram list has to be
/// materialized — the builder holds flat integer rows, not payloads.
///
/// [`observe`]: ContextBuilder::observe
/// [`finish`]: ContextBuilder::finish
#[derive(Debug)]
pub struct ContextBuilder {
    config: DpiConfig,
    // RTP: collect per-(stream, ssrc) sequence numbers and first header
    // bytes in capture order. Legacy STUN: count per-(stream, type).
    //
    // Extraction is deliberately permissive, so most RTP candidates are
    // offset-aliasing noise — tens of candidates per datagram, nearly
    // all in singleton groups. Hashing a full `FiveTuple` and holding a
    // `Vec` per group for that volume dominated the whole DPI, so the
    // grouping works on packed integer keys instead: streams are
    // interned once per datagram, each RTP candidate becomes one
    // `(stream_id << 32 | ssrc, arrival, seq, byte)` row in a single
    // flat vector, and a sort brings the groups together while the
    // arrival index preserves capture order within each group.
    streams: StreamTable,
    rtp_rows: Vec<RtpRow>,
    legacy: HashMap<(u32, u16), u32>,
    quic_cids: HashSet<(u32, CidBuf)>,
}

type RtpRow = (u64, u32, u16, u8);

impl ContextBuilder {
    /// Start accumulating observations for one call.
    pub fn new(config: &DpiConfig) -> ContextBuilder {
        ContextBuilder::with_streams(config, StreamTable::default())
    }

    /// Start a call whose streams are already interned in `streams`; feed
    /// it with [`observe_stream`](ContextBuilder::observe_stream).
    pub(crate) fn with_streams(config: &DpiConfig, streams: StreamTable) -> ContextBuilder {
        ContextBuilder {
            config: *config,
            streams,
            rtp_rows: Vec::new(),
            legacy: HashMap::new(),
            quic_cids: HashSet::new(),
        }
    }

    /// Record one datagram's extracted candidates, in capture order.
    pub fn observe(&mut self, d: &Datagram, candidates: &[Candidate]) {
        if candidates.is_empty() {
            return;
        }
        let sid = self.streams.intern(d.five_tuple);
        self.observe_stream(sid, d, candidates);
    }

    /// [`observe`](ContextBuilder::observe) for a datagram whose stream
    /// the builder's [`StreamTable`] numbered `sid`.
    pub(crate) fn observe_stream(&mut self, sid: u32, d: &Datagram, candidates: &[Candidate]) {
        for c in candidates {
            match c.kind {
                CandidateKind::Rtp { ssrc, seq, .. } => {
                    let key = (sid as u64) << 32 | ssrc as u64;
                    self.rtp_rows.push((key, self.rtp_rows.len() as u32, seq, d.payload[c.start()]));
                }
                CandidateKind::Stun { message_type, modern: false } => {
                    *self.legacy.entry((sid, message_type)).or_default() += 1;
                }
                CandidateKind::QuicLong { .. } => {
                    // Extraction parsed this header already and kept only
                    // its version; long headers are rare enough to re-read
                    // the connection IDs here instead of carrying them.
                    if let Ok(h) = rtc_wire::quic::LongHeaderRef::parse(&d.payload[c.start()..]) {
                        for cid in [h.dcid, h.scid] {
                            if let Some(cid) = CidBuf::try_from_slice(cid).filter(|id| !id.is_empty()) {
                                self.quic_cids.insert((sid, cid));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Validate the accumulated groups into the final [`ValidationContext`],
    /// parallelizing the RTP group scan when the workload and config call
    /// for it (see [`finish_with_threads`]): below
    /// [`DpiConfig::parallel_threshold`] rows the scan is serial, otherwise
    /// `DpiConfig::threads` workers (0 = one per core) split it.
    ///
    /// [`finish_with_threads`]: ContextBuilder::finish_with_threads
    pub fn finish(self) -> ValidationContext {
        let threads = if self.rtp_rows.len() < self.config.parallel_threshold.max(1) {
            1
        } else {
            crate::par::share_threads(self.config.threads, 1)
        };
        self.finish_with_threads(threads)
    }

    /// [`finish`](ContextBuilder::finish) with an explicit worker count.
    ///
    /// `threads <= 1` runs the serial scan. Otherwise the sorted row array
    /// is cut into `threads` contiguous ranges with every boundary advanced
    /// to the next key change, so a `(stream, SSRC)` group — a run of equal
    /// keys, which the sort made contiguous — is always scanned whole by
    /// exactly one worker and the test sees the same members as the serial
    /// scan. Every per-stream list is sorted before it is frozen, so the
    /// outcome is independent of `threads`.
    pub fn finish_with_threads(self, threads: usize) -> ValidationContext {
        let ContextBuilder {
            config,
            streams: StreamTable { ids: stream_ids, streams },
            mut rtp_rows,
            legacy,
            quic_cids,
        } = self;
        let (min_group, max_gap) = (config.rtp_min_group, config.rtp_max_seq_gap);
        bucket_sort_rows(&mut rtp_rows, min_group);
        let valid_keys: Vec<u64> = if threads <= 1 || rtp_rows.len() < 2 {
            scan_groups(&rtp_rows, min_group, max_gap)
        } else {
            let t = threads.min(rtp_rows.len());
            let mut bounds = Vec::with_capacity(t + 1);
            bounds.push(0usize);
            for i in 1..t {
                let mut b = (i * rtp_rows.len() / t).max(*bounds.last().expect("non-empty"));
                while b < rtp_rows.len() && rtp_rows[b].0 == rtp_rows[b - 1].0 {
                    b += 1;
                }
                bounds.push(b);
            }
            bounds.push(rtp_rows.len());
            let parts: Vec<Vec<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = bounds
                    .windows(2)
                    .map(|w| {
                        let slice = &rtp_rows[w[0]..w[1]];
                        s.spawn(move || scan_groups(slice, min_group, max_gap))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("validation worker panicked")).collect()
            });
            parts.concat()
        };
        drop(rtp_rows);

        // Freeze one slot per stream. The RTCP and QUIC lists belong to the
        // conversation, so they are gathered by canonical key first and then
        // copied into both directions' slots.
        let mut slots: Vec<StreamSlot> = streams.iter().map(|_| StreamSlot::default()).collect();
        let mut rtp_ssrcs: HashMap<FiveTuple, HashSet<u32>> = HashMap::new();
        for key in valid_keys {
            let (sid, ssrc) = ((key >> 32) as usize, key as u32);
            slots[sid].rtp.push(ssrc);
            rtp_ssrcs.entry(streams[sid].canonical()).or_default().insert(ssrc);
        }
        for ((sid, message_type), n) in legacy {
            if n >= 2 {
                slots[sid as usize].legacy.push(message_type);
            }
        }
        let mut conversation_cids: HashMap<FiveTuple, Vec<CidBuf>> = HashMap::new();
        for (sid, cid) in quic_cids {
            conversation_cids.entry(streams[sid as usize].canonical()).or_default().push(cid);
        }
        for (stream, slot) in streams.iter().zip(&mut slots) {
            let conversation = stream.canonical();
            if let Some(ssrcs) = rtp_ssrcs.get(&conversation) {
                slot.rtcp_ssrcs.extend(ssrcs);
            }
            if let Some(cids) = conversation_cids.get(&conversation) {
                slot.quic_cids.extend(cids);
            }
            // Sorted for `sorted_contains`, and so that the slots do not
            // depend on hash iteration order.
            slot.rtp.sort_unstable();
            slot.legacy.sort_unstable();
            slot.rtcp_ssrcs.sort_unstable();
            slot.quic_cids.sort_unstable();
            slot.quic_cids.dedup();
        }
        ValidationContext { slot_of: stream_ids, slots, rtp_ssrcs }
    }
}

/// Scan one contiguous range of sorted RTP rows and return the keys of the
/// groups that pass validation, in row (= ascending-key-run) order. The
/// slice must contain only whole groups: every run of equal keys starts
/// and ends inside it.
fn scan_groups(rows: &[RtpRow], min_group: usize, max_gap: u16) -> Vec<u64> {
    let mut valid = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        let key = rows[i].0;
        let mut j = i + 1;
        while j < rows.len() && rows[j].0 == key {
            j += 1;
        }
        let members = &rows[i..j];
        i = j;
        if members.len() < min_group {
            continue;
        }
        // Majority of successive deltas must be small positive steps:
        // real media advances its sequence number monotonically (with
        // loss gaps), while pattern false-positives produce noise.
        let small = members
            .windows(2)
            .filter(|w| {
                let delta = w[1].2.wrapping_sub(w[0].2);
                (1..=max_gap).contains(&delta)
            })
            .count();
        // A real stream also keeps its first header byte (version,
        // padding/extension flags, CSRC count) essentially constant,
        // while offset-aliasing false positives read a varying byte.
        let mut byte_counts = [0u32; 256];
        let mut modal = 0u32;
        for &(_, _, _, b) in members {
            byte_counts[b as usize] += 1;
            modal = modal.max(byte_counts[b as usize]);
        }
        let consistent_header = modal as usize * 4 >= members.len() * 3;
        if small * 2 >= members.len() - 1 && consistent_header {
            valid.push(key);
        }
    }
    valid
}

/// Buckets of [`bucket_sort_rows`]: one per value of the low 16 SSRC bits.
const BUCKETS: usize = 1 << 16;

thread_local! {
    /// [`bucket_sort_rows`]'s 256 KiB count table, reused across calls.
    static BUCKET_COUNTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Sort RTP rows so equal packed `stream_id << 32 | ssrc` keys are
/// contiguous and each run is internally in full lexicographic tuple order,
/// dropping every row whose group cannot reach `min_group` by bucket
/// count alone.
///
/// One counting-sort scatter over the low 16 SSRC bits, then a comparison
/// sort inside each tiny bucket. Noise keys are near-uniform over the
/// buckets (mean occupancy ~1) while a real media stream's rows land in one
/// bucket already grouped, so the per-bucket sorts touch almost nothing —
/// about half the cost of a multi-pass radix at this volume, and far below
/// the global comparison sort.
///
/// A `(stream, SSRC)` group lies inside one bucket, so a bucket holding
/// fewer than `min_group` rows holds no group that [`scan_groups`] could
/// accept. Such buckets are neither scattered nor sorted, and the rows
/// handed back are only those that can still validate: the accepted keys
/// are exactly those of the unpruned sort, in the same order.
fn bucket_sort_rows(rows: &mut Vec<RtpRow>, min_group: usize) {
    if rows.len() < 64 {
        rows.sort_unstable();
        return;
    }
    BUCKET_COUNTS.with(|counts| {
        let counts = &mut *counts.borrow_mut();
        if counts.len() != BUCKETS {
            *counts = vec![0u32; BUCKETS];
        } else {
            counts.fill(0);
        }
        for r in rows.iter() {
            counts[r.0 as usize & (BUCKETS - 1)] += 1;
        }
        // Bucket starts in the kept output; a pruned bucket gets the
        // sentinel `u32::MAX` and is skipped by the scatter.
        let mut kept = 0u32;
        for c in counts.iter_mut() {
            let n = *c;
            if (n as usize) < min_group.max(1) {
                *c = u32::MAX;
            } else {
                *c = kept;
                kept += n;
            }
        }
        let mut out: Vec<RtpRow> = vec![(0, 0, 0, 0); kept as usize];
        for r in rows.iter() {
            let b = r.0 as usize & (BUCKETS - 1);
            if counts[b] != u32::MAX {
                out[counts[b] as usize] = *r;
                counts[b] += 1;
            }
        }
        // After the scatter a kept bucket's entry is its end; the previous
        // kept bucket's end is its start. Equal keys never span buckets.
        let mut start = 0usize;
        for &end in counts.iter().filter(|&&e| e != u32::MAX) {
            let end = end as usize;
            if end - start > 1 {
                out[start..end].sort_unstable();
            }
            start = end;
        }
        *rows = out;
    });
}

fn protocol_of(kind: &CandidateKind) -> Protocol {
    match kind {
        CandidateKind::Stun { .. } | CandidateKind::ChannelData { .. } => Protocol::StunTurn,
        CandidateKind::Rtp { .. } => Protocol::Rtp,
        CandidateKind::Rtcp { .. } => Protocol::Rtcp,
        CandidateKind::QuicLong { .. } | CandidateKind::QuicShortProbe => Protocol::Quic,
    }
}

/// Resolve one datagram: validate candidates, enforce the one-owner rule
/// (with defined nesting and RTP truncation), and classify the datagram.
pub fn resolve_datagram(d: &Datagram, candidates: &[Candidate], ctx: &ValidationContext) -> DatagramDissection {
    // One stream-key hash per datagram, and none for candidate-free ones.
    let slot = if candidates.is_empty() { &EMPTY_SLOT } else { ctx.slot(&d.five_tuple) };
    resolve_in_slot(d, candidates, slot)
}

/// [`resolve_datagram`] against the datagram's stream slot, already found.
pub(crate) fn resolve_in_slot(d: &Datagram, candidates: &[Candidate], slot: &StreamSlot) -> DatagramDissection {
    struct Accepted {
        kind: CandidateKind,
        offset: usize,
        len: usize,
        nested: bool,
    }

    let payload = &d.payload;
    let mut accepted: Vec<Accepted> = Vec::new();
    let mut free = 0usize; // next unclaimed top-level byte
    let mut container: Option<(usize, usize)> = None; // nested-allowed region
    let mut container_nested = 0usize; // nested messages in the CURRENT container
    let mut nested_free = 0usize;
    let mut gap_in_middle = false;
    let mut container_gap = false; // unclaimed container bytes adjacent to nested messages
    let mut nested_gap = 0usize; // offset of the first such gap, for prop_header_len

    for c in candidates {
        // --- Validation (step 2) -----------------------------------------
        let pre_valid = match c.kind {
            // Modern STUN: the 32-bit magic cookie is decisive on its own.
            CandidateKind::Stun { modern: true, .. } => true,
            // Classic (cookie-less) STUN: exact cover + clean TLV walk at
            // extraction, plus repetition — the paper pairs transactions to
            // the same end; a single structural match of the weak RFC 3489
            // header is not trustworthy.
            CandidateKind::Stun { modern: false, message_type } => sorted_contains(&slot.legacy, message_type),
            CandidateKind::ChannelData { .. } => true, // exact-length at extraction
            CandidateKind::Rtp { ssrc, .. } => sorted_contains(&slot.rtp, ssrc),
            CandidateKind::Rtcp { .. } => {
                let body = &payload[c.start() + 4..c.end()];
                let ssrc = (body.len() >= 4).then(|| u32::from_be_bytes([body[0], body[1], body[2], body[3]]));
                slot.rtcp_ssrc_valid(ssrc)
                    // Compound continuation: an RTCP packet that starts
                    // exactly where the most recently accepted RTCP message
                    // ends belongs to the same compound — whether that
                    // message was top-level or nested inside a container
                    // (compounds relayed through ChannelData / STUN DATA
                    // continue inside the container; a compound may also
                    // start right after a container that ends in RTCP).
                    // Byte adjacency subsumes the last *top-level* check:
                    // a non-adjacent candidate can never continue a
                    // compound, wherever the previous message sat.
                    || accepted
                        .last()
                        .is_some_and(|a| matches!(a.kind, CandidateKind::Rtcp { .. }) && a.offset + a.len == c.start())
            }
            CandidateKind::QuicLong { .. } => true,
            CandidateKind::QuicShortProbe => slot.quic_short_valid(payload),
        };
        if !pre_valid {
            continue;
        }
        let (offset, end) = (c.start(), c.end());

        // --- Overlap / nesting resolution (step 3) ------------------------
        if let Some((_, de)) = container {
            if offset >= nested_free && end <= de {
                if offset > nested_free {
                    // Unclaimed container bytes before this nested message:
                    // proprietary framing inside the container (§4.1.2) —
                    // both before the first nested message and between
                    // nested messages.
                    container_gap = true;
                    if nested_gap == 0 {
                        nested_gap = offset;
                    }
                }
                container_nested += 1;
                nested_free = end;
                accepted.push(Accepted { kind: c.kind, offset, len: c.len as usize, nested: true });
                continue;
            }
        }
        if offset >= free {
            if offset > free && !accepted.is_empty() {
                gap_in_middle = true;
            }
            // Closing the previous container: bytes between its last nested
            // message and its declared end are proprietary too. Containers
            // whose payload validated no nested message at all stay opaque
            // application data (ChannelData's normal case).
            if container_nested > 0 {
                if let Some((_, de)) = container {
                    if nested_free < de {
                        container_gap = true;
                    }
                }
            }
            // New containers: ChannelData payloads and STUN DATA attributes
            // (re-read here: few STUN candidates get this far).
            container = match c.kind {
                CandidateKind::ChannelData { .. } => Some((offset + 4, end)),
                CandidateKind::Stun { .. } => {
                    stun_data_range(&payload[offset..]).map(|(s, e)| (offset + s, offset + e))
                }
                _ => None,
            };
            container_nested = 0;
            nested_free = container.map(|(s, _)| s).unwrap_or(0);
            free = end;
            accepted.push(Accepted { kind: c.kind, offset, len: c.len as usize, nested: false });
            continue;
        }
        // Overlap with the previous top-level message: only RTP-after-RTP
        // truncation is defined (Zoom's double-RTP, §5.3). The truncated
        // prefix must itself re-parse as RTP: the original match was gated
        // against the full tail, and cutting it short can strand a padding
        // trailer or a CSRC/extension list past the new end — in that case
        // the second "packet" is a false positive inside the first one's
        // payload, not a concatenation boundary.
        let truncatable = accepted.last().is_some_and(|a| {
            !a.nested
                && matches!(a.kind, CandidateKind::Rtp { .. })
                && matches!(c.kind, CandidateKind::Rtp { .. })
                && offset >= a.offset + rtc_wire::rtp::MIN_HEADER_LEN
                && rtc_wire::rtp::Packet::new_checked(&payload[a.offset..offset]).is_ok()
        });
        if truncatable {
            let prev = accepted.last_mut().expect("just matched");
            prev.len = offset - prev.offset;
            free = end;
            accepted.push(Accepted { kind: c.kind, offset, len: c.len as usize, nested: false });
        }
        // Otherwise: overlapping candidate, dropped.
    }
    // The last container closes at end of input: a tail gap after its last
    // nested message is proprietary the same as an interior one.
    if container_nested > 0 {
        if let Some((_, de)) = container {
            if nested_free < de {
                container_gap = true;
            }
        }
    }

    // --- Classification (§4.1.2) ------------------------------------------
    let prefix = accepted.iter().find(|a| !a.nested).map(|a| a.offset).unwrap_or(0);
    let trailing_len = payload.len().saturating_sub(free);
    let last_top = accepted.iter().rev().find(|a| !a.nested);
    let last_is_rtcp = last_top.is_some_and(|a| matches!(a.kind, CandidateKind::Rtcp { .. }));
    let last_is_channeldata = last_top.is_some_and(|a| matches!(a.kind, CandidateKind::ChannelData { .. }));
    // SRTCP / proprietary RTCP trailers and short ChannelData length
    // shortfalls stay "standard" datagrams for Figure 3 — the compliance
    // layer, not the classifier, judges them.
    let trailing_tolerated =
        trailing_len == 0 || (last_is_rtcp && trailing_len <= 16) || (last_is_channeldata && trailing_len <= 3);

    let class = if accepted.is_empty() {
        DatagramClass::FullyProprietary
    } else if prefix > 0 || gap_in_middle || container_gap || !trailing_tolerated {
        DatagramClass::ProprietaryHeader
    } else {
        DatagramClass::Standard
    };
    let prop_header_len = if prefix > 0 { prefix } else { nested_gap };
    let prefix_end = accepted.iter().find(|a| !a.nested).map(|a| a.offset).unwrap_or(payload.len());

    let messages: Vec<DpiMessage> = accepted
        .into_iter()
        .map(|a| DpiMessage {
            protocol: protocol_of(&a.kind),
            kind: a.kind,
            offset: a.offset,
            data: payload.slice(a.offset..a.offset + a.len),
            nested: a.nested,
        })
        .collect();

    DatagramDissection {
        ts: d.ts,
        stream: d.five_tuple,
        payload_len: payload.len(),
        messages,
        prefix: payload.slice(..prefix_end),
        trailing: payload.slice(free.min(payload.len())..),
        class,
        prop_header_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rtc_pcap::Timestamp;
    use rtc_wire::rtp::PacketBuilder;

    fn dgram(ts_ms: u64, payload: Vec<u8>) -> Datagram {
        Datagram {
            ts: Timestamp::from_millis(ts_ms),
            five_tuple: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap()),
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn sorted_contains_agrees_with_linear_search() {
        for len in 0..12usize {
            let s: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
            for x in 0..40u32 {
                assert_eq!(sorted_contains(&s, x), s.contains(&x), "len {len}, x {x}");
            }
        }
    }

    #[test]
    fn bucket_sort_groups_equal_keys_in_tuple_order() {
        // Keys engineered to collide in the low 16 bits and to exceed the
        // 64-row sort_unstable cutoff, so the scatter + per-bucket path runs.
        let mut rows: Vec<RtpRow> = (0..200u32)
            .map(|i| {
                let key = ((i % 7) as u64) << 32 | ((i % 3) as u64) << 16 | (i % 5) as u64;
                (key, 199 - i, (i % 11) as u16, (i % 2) as u8)
            })
            .collect();
        let mut expect = rows.clone();
        expect.sort_unstable();
        bucket_sort_rows(&mut rows, 0);
        // Same multiset, equal keys contiguous and internally tuple-sorted.
        let mut seen: Vec<u64> = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let key = rows[i].0;
            assert!(!seen.contains(&key), "key {key:#x} appears in two runs");
            seen.push(key);
            let mut j = i;
            while j < rows.len() && rows[j].0 == key {
                if j > i {
                    assert!(rows[j - 1] <= rows[j], "run not sorted at {j}");
                }
                j += 1;
            }
            i = j;
        }
        let mut resorted = rows.clone();
        resorted.sort_unstable();
        assert_eq!(resorted, expect);
        // Count-table reuse: a second sort through the same thread-local
        // table must be just as correct.
        let mut rows2: Vec<RtpRow> = (0..150u32).map(|i| ((i % 4) as u64, i, i as u16, 0)).collect();
        bucket_sort_rows(&mut rows2, 0);
        assert!(rows2.windows(2).all(|w| w[0] <= w[1]));
    }

    /// SSRC groups whose rows interleave across many datagrams (and many
    /// streams) must regroup exactly, serial and partitioned alike.
    #[test]
    fn interleaved_ssrc_groups_validate_across_datagrams() {
        let config = DpiConfig::default();
        let tuples: Vec<FiveTuple> = (0..4)
            .map(|i| {
                FiveTuple::udp(format!("10.0.0.{}:1000", i + 1).parse().unwrap(), "1.2.3.4:2000".parse().unwrap())
            })
            .collect();
        let ssrcs = [0x0101u32, 0x0202, 0x0303, 0x1_0101]; // last collides with first in the low 16 bits
                                                           // Round-robin interleave: datagram n carries stream n%4, ssrc n%4,
                                                           // seq n/4 — every group's rows are maximally spread out.
        let dgrams: Vec<Datagram> = (0..48u32)
            .map(|n| {
                let payload =
                    PacketBuilder::new(96, (n / 4) as u16, n, ssrcs[(n % 4) as usize]).payload(vec![7; 40]).build();
                Datagram {
                    ts: Timestamp::from_millis(n as u64),
                    five_tuple: tuples[(n % 4) as usize],
                    payload: Bytes::from(payload),
                }
            })
            .collect();
        let build = |threads: usize| {
            let mut b = ContextBuilder::new(&config);
            for d in &dgrams {
                let cands = crate::pattern::extract_candidates(&d.payload, config.max_offset);
                b.observe(d, &cands);
            }
            b.finish_with_threads(threads)
        };
        for threads in [1usize, 2, 3, 7, 16] {
            let ctx = build(threads);
            for (i, t) in tuples.iter().enumerate() {
                let valid = &ctx.slot(t).rtp;
                assert!(valid.contains(&ssrcs[i]), "threads {threads}: stream {i} lost ssrc {:#x}", ssrcs[i]);
                assert!(valid.windows(2).all(|w| w[0] < w[1]), "unsorted ssrc list");
            }
        }
    }

    /// Partitioned validation must agree with serial over adversarial row
    /// layouts: many groups of varying size, boundaries landing mid-group.
    #[test]
    fn finish_with_threads_matches_serial() {
        let config = DpiConfig { rtp_min_group: 3, ..DpiConfig::default() };
        let tuple = FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap());
        // 40 SSRC groups, sizes 1..=8 cycling: some below min_group, some
        // valid, some with broken continuity (every 5th group scrambled).
        let mut dgrams = Vec::new();
        let mut ts = 0u64;
        for g in 0..40u32 {
            let size = (g % 8 + 1) as u16;
            for s in 0..size {
                let seq = if g % 5 == 0 { s.wrapping_mul(9371) } else { 100 + s };
                let p = PacketBuilder::new(96, seq, ts as u32, 0x4000_0000 + g).payload(vec![5; 30]).build();
                dgrams.push(Datagram { ts: Timestamp::from_millis(ts), five_tuple: tuple, payload: Bytes::from(p) });
                ts += 1;
            }
        }
        let contexts: Vec<ValidationContext> = [1usize, 2, 4, 5, 9]
            .iter()
            .map(|&threads| {
                let mut b = ContextBuilder::new(&config);
                for d in &dgrams {
                    let cands = crate::pattern::extract_candidates(&d.payload, config.max_offset);
                    b.observe(d, &cands);
                }
                b.finish_with_threads(threads)
            })
            .collect();
        let serial = &contexts[0];
        assert!(!serial.slot(&tuple).rtp.is_empty(), "test must validate something");
        for (i, ctx) in contexts.iter().enumerate().skip(1) {
            assert_eq!(ctx.slot_of, serial.slot_of, "context {i}");
            assert_eq!(ctx.slots, serial.slots, "context {i}");
            assert_eq!(ctx.rtp_ssrcs, serial.rtp_ssrcs, "context {i}");
        }
    }

    /// Bucket pruning is exact: `finish` keeps the same valid groups as an
    /// unpruned `sort_unstable` + `scan_groups` reference, on row tables
    /// whose SSRCs are forced to share a few low-16-bit buckets — so kept
    /// and pruned buckets both hold several streams' and SSRCs' groups —
    /// at every `rtp_min_group` the pruning threshold can take.
    #[test]
    fn pruned_finish_matches_unpruned_reference() {
        let tuples: Vec<FiveTuple> = (0..3)
            .map(|i| {
                FiveTuple::udp(format!("10.0.0.{}:1000", i + 1).parse().unwrap(), "1.2.3.4:2000".parse().unwrap())
            })
            .collect();
        rtc_conformance::check_cases("pruned_finish_matches_unpruned_reference", 96, |rng| {
            let lows = [rng.in_range(0..=0xFFFFu32), rng.in_range(0..=0xFFFFu32)];
            // Per-row (stream, ssrc, seq, first byte) draws, grouped first and
            // then shuffled into arrival order.
            let mut draws: Vec<(u32, u32, u16, u8)> = Vec::new();
            for _ in 0..rng.in_range(1..=24usize) {
                let sid = rng.below(tuples.len()) as u32;
                let ssrc = (rng.below(4) as u32) << 16 | lows[rng.below(lows.len())];
                let continuous = rng.below(4) != 0;
                let mut seq = rng.next_u64() as u16;
                for _ in 0..rng.in_range(1..=12usize) {
                    seq = if continuous { seq.wrapping_add(rng.in_range(1..=3u16)) } else { rng.next_u64() as u16 };
                    let byte = if rng.below(8) == 0 { rng.next_u64() as u8 } else { 0x80 };
                    draws.push((sid, ssrc, seq, byte));
                }
            }
            // Offset-aliasing noise: lone rows, some in the forced buckets.
            for _ in 0..rng.in_range(0..=80usize) {
                let ssrc =
                    if rng.below(3) == 0 { lows[0] | (rng.next_u64() as u32) << 16 } else { rng.next_u64() as u32 };
                draws.push((rng.below(tuples.len()) as u32, ssrc, rng.next_u64() as u16, rng.next_u64() as u8));
            }
            for i in (1..draws.len()).rev() {
                draws.swap(i, rng.below(i + 1));
            }
            let rows: Vec<RtpRow> = draws
                .iter()
                .enumerate()
                .map(|(i, &(sid, ssrc, seq, byte))| ((sid as u64) << 32 | ssrc as u64, i as u32, seq, byte))
                .collect();
            for min_group in [0usize, 1, 2, 5, 8] {
                let config = DpiConfig { rtp_min_group: min_group, ..DpiConfig::default() };
                let mut sorted = rows.clone();
                sorted.sort_unstable();
                let mut expect = vec![Vec::new(); tuples.len()];
                for key in scan_groups(&sorted, min_group, config.rtp_max_seq_gap) {
                    expect[(key >> 32) as usize].push(key as u32);
                }
                for threads in [1usize, 3] {
                    let mut streams = StreamTable::default();
                    for t in &tuples {
                        streams.intern(*t);
                    }
                    let builder =
                        ContextBuilder { rtp_rows: rows.clone(), ..ContextBuilder::with_streams(&config, streams) };
                    let ctx = builder.finish_with_threads(threads);
                    for (sid, t) in tuples.iter().enumerate() {
                        let mut want = expect[sid].clone();
                        want.sort_unstable();
                        assert_eq!(ctx.slot(t).rtp, want, "min_group {min_group}, threads {threads}, stream {sid}");
                    }
                    let mut want: HashMap<FiveTuple, HashSet<u32>> = HashMap::new();
                    for (t, ssrcs) in tuples.iter().zip(&expect).filter(|(_, v)| !v.is_empty()) {
                        want.entry(t.canonical()).or_default().extend(ssrcs);
                    }
                    assert_eq!(ctx.rtp_ssrcs, want, "min_group {min_group}, threads {threads}");
                }
            }
        });
    }

    /// A gap between two nested messages, or after the last nested message,
    /// must classify as ProprietaryHeader (§4.1.2) — the historical bug
    /// only caught the gap before the *first* nested message.
    #[test]
    fn container_interior_and_tail_gaps_classify_proprietary() {
        use rtc_wire::rtcp::SenderReport;
        use rtc_wire::stun::ChannelData;
        let config = DpiConfig::default();
        let sr = |ssrc: u32| {
            SenderReport {
                ssrc,
                ntp_timestamp: 1,
                rtp_timestamp: 2,
                packet_count: 3,
                octet_count: 4,
                reports: vec![],
            }
            .build()
        };
        // Establish the RTP stream so nested RTCP cross-validates.
        let mut dgrams: Vec<Datagram> = (0..5u16)
            .map(|i| dgram(i as u64, PacketBuilder::new(96, i, 0, 0x7777).payload(vec![0; 40]).build()))
            .collect();
        // [CD [SR] [4 junk bytes] ]: tail gap after the last nested message.
        // (Junk leads 0x00: the STUN matcher rejects it on length, and no
        // other matcher class can start there.)
        let mut inner = sr(0x7777);
        inner.extend_from_slice(&[0x00, 0x01, 0x02, 0x03]);
        dgrams.push(dgram(100, ChannelData::build(0x4001, &inner)));
        // [CD [SR] [4 junk] [SR] ]: gap *between* nested messages.
        let mut inner2 = sr(0x7777);
        inner2.extend_from_slice(&[0x00, 0x01, 0x02, 0x03]);
        inner2.extend_from_slice(&sr(0x7777));
        dgrams.push(dgram(101, ChannelData::build(0x4001, &inner2)));
        let out = crate::dissect_call(&dgrams, &config);
        let tail_gap = &out.datagrams[5];
        assert_eq!(tail_gap.class, DatagramClass::ProprietaryHeader, "tail gap: {tail_gap:?}");
        let mid_gap = &out.datagrams[6];
        assert_eq!(mid_gap.class, DatagramClass::ProprietaryHeader, "interior gap");
        assert_eq!(mid_gap.messages.iter().filter(|m| m.nested).count(), 2, "both SRs recovered");
    }

    /// An RTCP compound continuing across/after a container: the second
    /// nested RTCP (unknown SSRC) continues the compound inside the
    /// container, and a top-level RTCP right after a STUN DATA container
    /// that ends in RTCP is a continuation too — the historical rule
    /// required `accepted.last()` to be *top-level* RTCP and rejected both.
    #[test]
    fn rtcp_compound_continues_through_and_after_containers() {
        use rtc_wire::rtcp::{build_bye, SenderReport};
        use rtc_wire::stun::{attr, msg_type, ChannelData, MessageBuilder};
        let config = DpiConfig::default();
        let sr = SenderReport {
            ssrc: 0x9999,
            ntp_timestamp: 1,
            rtp_timestamp: 2,
            packet_count: 3,
            octet_count: 4,
            reports: vec![],
        }
        .build();
        let mut dgrams: Vec<Datagram> = (0..5u16)
            .map(|i| dgram(i as u64, PacketBuilder::new(96, i, 0, 0x9999).payload(vec![0; 40]).build()))
            .collect();
        // Nested compound: [CD [SR][BYE(foreign ssrc)] ] — BYE's SSRC never
        // validates on its own, only as a compound continuation.
        let mut compound = sr.clone();
        compound.extend_from_slice(&build_bye(&[0xABCD_EF01]));
        dgrams.push(dgram(100, ChannelData::build(0x4001, &compound)));
        // After-container compound: [STUN(DATA=[SR])][BYE(foreign ssrc)] —
        // the BYE starts exactly where the DATA container (and its nested
        // SR) ends. ChannelData can't frame this shape (its matcher allows
        // at most 3 trailing bytes), but modern STUN tolerates a suffix.
        let mut after =
            MessageBuilder::new(msg_type::DATA_INDICATION, [3; 12]).attribute(attr::DATA, sr.clone()).build();
        after.extend_from_slice(&build_bye(&[0xABCD_EF01]));
        dgrams.push(dgram(101, after));
        let out = crate::dissect_call(&dgrams, &config);
        let nested = &out.datagrams[5];
        assert_eq!(nested.class, DatagramClass::Standard, "nested compound: {nested:?}");
        assert_eq!(nested.messages.len(), 3, "CD + SR + BYE");
        assert!(nested.messages[1].nested && nested.messages[2].nested);
        let tail = &out.datagrams[6];
        assert_eq!(tail.messages.len(), 3, "STUN + nested SR + top-level BYE: {tail:?}");
        assert!(tail.messages[1].nested, "SR sits in the DATA attribute");
        assert!(!tail.messages[2].nested, "BYE after the container is top-level");
        assert_eq!(tail.class, DatagramClass::Standard);
    }
}
