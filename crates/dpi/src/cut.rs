//! The noise cut: extraction that never holds the whole uncut batch.
//!
//! Most RTP candidates are offset-aliasing noise in `(stream, SSRC)`
//! groups too small to validate. Such a group can never pass
//! `scan_groups` (`resolve.rs`), and a rejected RTP candidate leaves no
//! trace in resolution, so dropping those candidates before validation
//! changes no verdict.
//!
//! Extraction therefore stores each gated RTP lane as an 8-byte [`Lane`]:
//! its group's hash and its offset, in fixed-size blocks. The other
//! classes (STUN, ChannelData, RTCP, QUIC) go to a small side list. After
//! the sweep, [`cut`] counts each group's members from the stored hashes,
//! and only the lanes of groups large enough to validate are built into
//! full candidates, read back from the payload.

use crate::pattern::{extract_to, rtp_candidate, Candidate, CandidateBatch, CandidateKind, Sink};
use rtc_pcap::trace::Datagram;
use std::borrow::Borrow;

/// Candidate counts indexed by [`CandidateKind::matcher_index`].
pub(crate) type MatcherCounts = [u64; CandidateKind::MATCHER_LABELS.len()];

/// [`CandidateKind::matcher_index`] of RTP.
const RTP_MATCHER: usize = CandidateKind::Rtp { ssrc: 0, payload_type: 0, seq: 0 }.matcher_index();

/// Lanes per block of [`Lanes`] (32 KiB).
const LANE_BLOCK: usize = 4096;

/// One gated RTP lane: the [`group_hash`] of its `(stream, SSRC)` group
/// and its payload offset.
#[derive(Debug, Clone, Copy)]
struct Lane {
    hash: u32,
    offset: u32,
}

const _: () = assert!(std::mem::size_of::<Lane>() == 8);

/// The hash of the group `key = stream id << 32 | SSRC`: the high half of
/// a multiplicative (Fibonacci) hash. A group's count-table slot is its
/// low bits.
#[inline(always)]
fn group_hash(key: u64) -> u32 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// The extraction of a run of consecutive datagrams, before the cut.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    /// The current datagram's stream id, in a group key's high half.
    stream: u64,
    /// Filled blocks, then the block being filled.
    full: Vec<Vec<Lane>>,
    open: Vec<Lane>,
    /// Lanes in `full`.
    sealed: usize,
    /// Every candidate that is not RTP, in extraction order.
    side: Vec<Candidate>,
    /// Per datagram: one past its last lane and one past its last side
    /// candidate.
    ends: Vec<(usize, usize)>,
}

impl Lanes {
    /// An empty run expecting `n_datagrams` payloads.
    pub(crate) fn with_capacity(n_datagrams: usize) -> Lanes {
        Lanes { ends: Vec::with_capacity(n_datagrams), ..Lanes::default() }
    }

    /// Extract one payload whose stream has id `sid`.
    pub(crate) fn push_payload(&mut self, payload: &[u8], sid: u32, max_offset: usize) {
        self.stream = (sid as u64) << 32;
        extract_to(payload, max_offset, self);
        self.ends.push((self.lane_count(), self.side.len()));
    }

    /// Hand back the unused tail of the open block once the run is done.
    pub(crate) fn seal(&mut self) {
        self.open.shrink_to_fit();
    }

    fn lane_count(&self) -> usize {
        self.sealed + self.open.len()
    }

    /// Every block, in extraction order.
    fn blocks(&self) -> impl Iterator<Item = &[Lane]> {
        self.full.iter().chain(std::iter::once(&self.open)).map(Vec::as_slice)
    }

    /// Store the lane if `ok`, without a data-dependent branch: it is
    /// written unconditionally and cut off again on reject.
    #[inline(always)]
    fn push_lane(&mut self, ssrc: u32, offset: usize, ok: bool) {
        if self.open.len() == self.open.capacity() {
            self.next_block();
        }
        let n = self.open.len();
        self.open.push(Lane { hash: group_hash(self.stream | ssrc as u64), offset: offset as u32 });
        self.open.truncate(n + ok as usize);
    }

    #[cold]
    fn next_block(&mut self) {
        let block = std::mem::replace(&mut self.open, Vec::with_capacity(LANE_BLOCK));
        if !block.is_empty() {
            self.sealed += block.len();
            self.full.push(block);
        }
    }
}

impl Sink for Lanes {
    fn push(&mut self, c: Candidate) {
        match c.kind {
            // Offset 0 hands RTP over as a whole candidate.
            CandidateKind::Rtp { ssrc, .. } => self.push_lane(ssrc, c.start(), true),
            _ => self.side.push(c),
        }
    }

    #[inline(always)]
    fn push_rtp(&mut self, tail: &[u8], i: usize, ok: bool) {
        self.push_lane(u32::from_be_bytes([tail[8], tail[9], tail[10], tail[11]]), i, ok);
    }
}

/// Members per count-table slot: a `u8` table of one slot per RTP lane
/// (rounded up to a power of two), indexed by the low bits of
/// [`group_hash`]. Groups sharing a slot add up, and a saturated slot
/// keeps everything: both can only keep lanes, never drop one of a large
/// enough group.
struct CountTable {
    members: Vec<u8>,
    mask: usize,
    /// A slot's lanes are kept from this many members on:
    /// `min(min_group, u8::MAX)`.
    keep_at: u16,
}

impl CountTable {
    /// Count every lane of `parts` in a table of `slots` slots (rounded
    /// up to a power of two). Also returns how many lanes the table keeps.
    fn fill(parts: &[Lanes], min_group: usize, slots: usize) -> (CountTable, usize) {
        let slots = slots.next_power_of_two();
        let keep_at = min_group.min(u8::MAX as usize) as u16;
        let (mask, mut members) = (slots - 1, vec![0u8; slots]);
        let mut kept = 0usize;
        for block in parts.iter().flat_map(Lanes::blocks) {
            for lane in block {
                let n = &mut members[lane.hash as usize & mask];
                let now = *n as u16 + 1;
                // A slot that reaches `keep_at` keeps the members it has
                // and every later one.
                kept += (now == keep_at) as usize * keep_at as usize + (now > keep_at) as usize;
                *n = now.min(u8::MAX as u16) as u8;
            }
        }
        (CountTable { members, mask, keep_at }, kept)
    }

    #[inline]
    fn keeps(&self, lane: &Lane) -> bool {
        self.members[lane.hash as usize & self.mask] as u16 >= self.keep_at
    }
}

/// Cut the noise out of `parts`, the extraction of consecutive runs of
/// `datagrams` in order, and build the kept candidates into an exactly
/// sized batch. `table_len` forces the count table's slot count (tests
/// use it to force collisions). Also returns the candidates extracted per
/// matcher, before the cut.
pub(crate) fn cut<D: Borrow<Datagram>>(
    datagrams: &[D],
    parts: Vec<Lanes>,
    min_group: usize,
    table_len: Option<usize>,
) -> (CandidateBatch, MatcherCounts) {
    let mut counts = MatcherCounts::default();
    let (mut n_lanes, mut n_side) = (0usize, 0usize);
    for part in &parts {
        n_lanes += part.lane_count();
        n_side += part.side.len();
        for c in &part.side {
            counts[c.kind.matcher_index()] += 1;
        }
    }
    counts[RTP_MATCHER] = n_lanes as u64;
    // A group of one member always reaches a threshold of 0 or 1.
    let (table, kept) = if min_group <= 1 || n_lanes == 0 {
        (None, n_lanes)
    } else {
        let (table, kept) = CountTable::fill(&parts, min_group, table_len.unwrap_or(n_lanes));
        (Some(table), kept)
    };

    let mut flat = Vec::with_capacity(kept + n_side);
    let mut spans = Vec::with_capacity(datagrams.len());
    let mut payloads = datagrams.iter().map(|d| &d.borrow().payload);
    for Lanes { full, open, side, ends, .. } in parts {
        // Each block is freed as soon as the build has passed it.
        let mut lanes = full.into_iter().chain(std::iter::once(open)).flatten();
        let (mut lanes_at, mut side_at) = (0, 0);
        for (lanes_end, side_end) in ends {
            let payload = payloads.next().expect("one payload per extracted datagram");
            let start = flat.len();
            let mut others = side[side_at..side_end].iter().peekable();
            for lane in lanes.by_ref().take(lanes_end - lanes_at) {
                if table.as_ref().is_none_or(|t| t.keeps(&lane)) {
                    // An RTP lane never shares its offset with another
                    // class, so merging by offset restores extraction order.
                    while let Some(c) = others.next_if(|c| c.offset < lane.offset) {
                        flat.push(*c);
                    }
                    let offset = lane.offset as usize;
                    flat.push(rtp_candidate(&payload[offset..], offset));
                }
            }
            flat.extend(others);
            spans.push((start, flat.len()));
            (lanes_at, side_at) = (lanes_end, side_end);
        }
    }
    debug_assert_eq!(flat.len(), kept + n_side, "the count table predicts the kept lanes exactly");
    (CandidateBatch { flat, spans }, counts)
}
