//! Bulk candidate-position scanning: the SWAR/SIMD front end of the
//! extraction fast path.
//!
//! A per-offset dispatch loop pays a branch tree, and usually a matcher
//! call, at *every* payload offset. This module replaces that with a bulk
//! sweep: a SWAR pass (u64 lanes, portable) or an SSE2 pass (16-byte
//! lanes, x86-64 only) computes, for 8 or 16 offsets at a time, a bitset
//! of positions that could possibly start a protocol message — and only
//! those positions reach the matchers. The masks encode *necessary*
//! conditions derived from the matchers themselves, so the candidate
//! stream is byte-identical to the every-matcher-at-every-offset
//! reference, [`crate::pattern::extract_candidates_naive`] (differential
//! tests enforce this).
//!
//! ## Lane layout and per-class gates
//!
//! Five shifted loads per 8-offset block (`w0` at `i`, `w1` at `i+1`, `w2`
//! at `i+2`, `w3` at `i+3`, `w4` at `i+4`) provide every byte the gates
//! consult. With `HI = 0x8080…80` marking each lane's top bit:
//!
//! | class        | gate (per offset `i`)                                   |
//! |--------------|---------------------------------------------------------|
//! | STUN         | `b[i]>>6 == 0` ∧ `b[i+3]&3 == 0` (length alignment) ∧ (`b[i+4] == 0x21` (cookie) ∨ `b[i+2]\|b[i+3] ≠ 0` (legacy needs attributes)) |
//! | RTP/RTCP     | `b[i]>>6 == 2` (version field)                          |
//! | QUIC long    | `b[i]>>6 == 3` ∧ `b[i+1] ∈ {0x00, 0x6b}` (first version byte of v1/v2) |
//! | ChannelData / QUIC short | offset 0 only — handled scalar, never scanned |
//!
//! Each block hands the dispatcher two lane masks, one bit per lane
//! (SWAR gathers its HI bits into a byte; SSE2's `movemask` already has
//! that form):
//!
//! * **`rtp`** — version-2 lanes whose second byte is outside the RTCP
//!   packet-type range (`b[i+1] ∈ 200..=207` is exactly
//!   `b[i+1] & 0xF8 == 0xC8`, one masked compare per block). This mask is
//!   *exact*, and the sweep region guarantees 12 readable bytes past every
//!   lane, so the dispatcher runs only the RTP length gate on these lanes.
//! * **`other`** — lanes that passed the STUN, RTCP or QUIC class gate.
//!   The dispatcher re-derives their class from `b[i] >> 6` and runs the
//!   exact prefilters and matchers.
//!
//! The two masks are disjoint. Set bits are visited in ascending offset
//! order with `trailing_zeros`, preserving the reference loop's candidate
//! order exactly. Most blocks hold RTP lanes only: a version-2 first byte
//! is a quarter of all byte values, while every other gate needs two or
//! more specific bytes.
//!
//! ## Backend selection
//!
//! One sweep per build, fixed by the compile target; no environment
//! variable or option selects another:
//!
//! * **x86-64** — the SSE2 pass. SSE2 is part of the x86-64 baseline ISA,
//!   so it needs no runtime probe. Where a 16-byte block no longer fits
//!   before the payload end, the SWAR pass sweeps on in u64 blocks.
//! * **every other target** — the SWAR pass alone.
//!
//! The last few offsets, where a u64 block's shifted loads would run past
//! the payload end, are the scalar *tail*: [`crate::pattern`] dispatches
//! them one at a time. [`ScanMode::active`] names the backend this build runs.

/// The bulk pass this build runs. It selects nothing — the backend is
/// fixed by the compile target (see the module docs) — but it stays a
/// named value because run records carry it: `rtcperf` stores
/// `format!("{:?}", ScanMode::active())` in its provenance and refuses to
/// compare runs whose provenance differs, and [`ScanMode::label`] feeds
/// `rtc-study dissect`'s `scan=` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Portable u64-lane SWAR sweep, 8 offsets per step (every target but
    /// x86-64).
    Swar,
    /// SSE2 sweep, 16 offsets per step, finished by the SWAR sweep
    /// (x86-64).
    Simd,
}

impl ScanMode {
    /// Stable label (the `dissect` summary line).
    pub fn label(self) -> &'static str {
        match self {
            ScanMode::Swar => "swar",
            ScanMode::Simd => "simd",
        }
    }

    /// The backend this build runs: `Simd` on x86-64, `Swar` elsewhere.
    pub const fn active() -> ScanMode {
        if cfg!(target_arch = "x86_64") {
            ScanMode::Simd
        } else {
            ScanMode::Swar
        }
    }
}

// ---- SWAR primitives -------------------------------------------------------

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// HI bit set in every lane of `x` whose byte is zero. This must be the
/// carry-free form — `(x & !HI) + !HI` keeps every lane below 0x100, so
/// no carry crosses lanes. The classic `(x - LO) & !x & HI` test is *not*
/// exact per lane: a zero lane's borrow falsely flags a following `0x01`
/// lane, and the dispatcher trusts the `rtp` lane mask to be exact (a
/// false lane would be a swar-vs-scalar divergence on adversarial
/// payloads).
#[inline(always)]
fn zero_lanes(x: u64) -> u64 {
    !(((x & !HI).wrapping_add(!HI)) | x) & HI
}

/// HI bit set in every lane whose byte equals `k` (exact per lane).
#[inline(always)]
fn eq_mask(w: u64, k: u8) -> u64 {
    zero_lanes(w ^ (LO.wrapping_mul(k as u64)))
}

/// HI bit set in every lane whose byte equals the corresponding lane of
/// `e` (exact per lane; same carry-free zero test on `w ^ e`).
#[inline(always)]
fn eq_vec(w: u64, e: u64) -> u64 {
    zero_lanes(w ^ e)
}

/// Little-endian lane indices: lane `j` holds the byte value `j`.
const LANE_IDX: u64 = 0x0706_0504_0302_0100;

/// Cookie-less (RFC 3489) STUN gate: lane `j` passes iff the 16-bit
/// declared length at `b[i+j+2..i+j+4]` exactly covers the rest of the
/// payload (`declared == base - j`, where `base = len - 20 - i`). The two
/// bytes are compared per-lane: high bytes against a broadcast constant,
/// low bytes against a lane-indexed ramp. Blocks where the ramp would
/// borrow across lanes (or `base` leaves u16 range mid-block) fall back to
/// the any-nonzero-declared superset — rare, and the scalar prefilter
/// still applies the exact test.
#[inline(always)]
fn swar_legacy_mask(w2: u64, w3: u64, base: isize) -> u64 {
    if !(0..=0xFFFF + 7).contains(&base) {
        return 0; // no lane's 16-bit declared length can match
    }
    if !(7..=0xFFFF).contains(&base) || base & 0xFF < 7 {
        return (eq_mask(w2, 0) & eq_mask(w3, 0)) ^ HI; // nonzero declared
    }
    let hi = LO.wrapping_mul((base >> 8) as u64);
    let lo = LO.wrapping_mul((base & 0xFF) as u64).wrapping_sub(LANE_IDX);
    eq_vec(w2, hi) & eq_vec(w3, lo)
}

/// Gather the HI bit of each u64 lane into bit `j` of a byte. Exact for
/// masks that hold HI bits only: every partial product of the multiply
/// lands on its own bit, so nothing carries.
#[inline(always)]
fn lane_bits(m: u64) -> u32 {
    ((m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// The `(rtp, other)` HI-lane masks for the 8 offsets starting at the base
/// of `w0..w4` (shifted loads: `wN` holds bytes `i+N .. i+N+8`; `w2` feeds
/// only the caller-computed `legacy` mask).
#[inline(always)]
fn swar_block_mask(w0: u64, w1: u64, w3: u64, w4: u64, legacy: u64) -> (u64, u64) {
    // Top-two-bit classes: bit7 is each lane's top bit; bit6 shifts into
    // the bit7 slot of the *same* lane under `<< 1`.
    let b7 = w0 & HI;
    let b6 = (w0 << 1) & HI;
    let class00 = !b7 & !b6 & HI;
    let class10 = b7 & !b6;
    let class11 = b7 & b6;

    // STUN: declared length 4-byte aligned (low two bits of b[i+3] clear),
    // and either the magic cookie's first byte at b[i+4] or a cookie-less
    // exact payload cover (the caller-supplied `legacy` lane mask).
    let aligned = !((w3 << 7) | (w3 << 6)) & HI;
    let stun = class00 & aligned & (eq_mask(w4, 0x21) | legacy);

    // RTP/RTCP demux on the second byte: 200..=207 is (b & 0xF8) == 0xC8.
    let rtcp = class10 & eq_mask(w1 & LO.wrapping_mul(0xF8), 0xC8);

    // QUIC long: only versions 1 (0x0000_0001) and 2 (0x6b33_43cf) are
    // accepted, so the version's first byte b[i+1] must be 0x00 or 0x6b.
    let quic = class11 & (eq_mask(w1, 0x00) | eq_mask(w1, 0x6b));

    (class10 ^ rtcp, stun | rtcp | quic)
}

/// Sweep offsets `first..=last` of `payload` with the SWAR pass, invoking
/// `block(base, rtp, other)` for every block with a set lane, in ascending
/// order (bit `j` of each mask is offset `base + j`). Offsets past
/// `payload.len() - 12` (where the shifted loads would run off the end)
/// are left to the caller's scalar tail loop; the returned value is one
/// past the last offset actually swept.
#[inline]
pub(crate) fn swar_sweep(payload: &[u8], first: usize, last: usize, mut block: impl FnMut(usize, u32, u32)) -> usize {
    // Every lane of a block must satisfy i + 4 + 8 <= len.
    let Some(load_end) = payload.len().checked_sub(12) else { return first };
    let mut i = first;
    while i + 7 <= last && i + 7 <= load_end {
        let at = |o: usize| u64::from_le_bytes(payload[i + o..i + o + 8].try_into().expect("8-byte load"));
        let legacy = swar_legacy_mask(at(2), at(3), payload.len() as isize - 20 - i as isize);
        let (rtp, other) = swar_block_mask(at(0), at(1), at(3), at(4), legacy);
        if rtp | other != 0 {
            block(i, lane_bits(rtp), lane_bits(other));
        }
        i += 8;
    }
    i
}

// ---- SSE2 pass -------------------------------------------------------------

/// The 16-lane SSE2 twin of [`swar_sweep`]. Same gates, same dispatch
/// order; `movemask` turns the lane comparisons into 16-bit offset
/// bitsets.
///
/// This is the one module in the crate allowed to use `unsafe`: SSE2
/// intrinsics and unaligned 16-byte loads have no safe stable equivalent.
/// Safety rests on one invariant, checked in the sweep loop: every load
/// reads `payload[i + o .. i + o + 16]` with `i + o + 16 <= payload.len()`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        _mm_setr_epi8, _mm_setzero_si128, _mm_sub_epi8, _mm_xor_si128,
    };

    /// See [`super::swar_sweep`]; sweeps 16 offsets per block.
    #[inline]
    pub(crate) fn sweep(payload: &[u8], first: usize, last: usize, mut block: impl FnMut(usize, u32, u32)) -> usize {
        let Some(load_end) = payload.len().checked_sub(20) else { return first };
        let mut i = first;
        while i + 15 <= last && i + 15 <= load_end {
            // SAFETY: i + 15 <= len - 20, so the widest load (offset 4)
            // reads payload[i+4 .. i+20] ⊆ payload. `_mm_loadu_si128` has
            // no alignment requirement.
            let (rtp, other) = unsafe {
                let at = |o: usize| _mm_loadu_si128(payload.as_ptr().add(i + o) as *const __m128i);
                let legacy = legacy_mask(at(2), at(3), payload.len() as isize - 20 - i as isize);
                block_mask(at(0), at(1), at(3), at(4), legacy)
            };
            if rtp | other != 0 {
                block(i, rtp, other);
            }
            i += 16;
        }
        i
    }

    /// The 16-lane twin of [`super::swar_legacy_mask`]: all-ones lanes where
    /// the 16-bit declared length exactly covers the rest of the payload.
    #[inline(always)]
    fn legacy_mask(v2: __m128i, v3: __m128i, base: isize) -> __m128i {
        // SAFETY: SSE2 is unconditionally available on x86-64 (baseline ISA).
        unsafe {
            let zero = _mm_setzero_si128();
            if !(0..=0xFFFF + 15).contains(&base) {
                return zero; // no lane's 16-bit declared length can match
            }
            if !(15..=0xFFFF).contains(&base) || base & 0xFF < 15 {
                // Ramp under/overflows mid-block: any-nonzero-declared superset.
                let z16 = _mm_and_si128(_mm_cmpeq_epi8(v2, zero), _mm_cmpeq_epi8(v3, zero));
                return _mm_xor_si128(z16, _mm_set1_epi8(-1));
            }
            let idx = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let hi = _mm_set1_epi8((base >> 8) as u8 as i8);
            let lo = _mm_sub_epi8(_mm_set1_epi8((base & 0xFF) as u8 as i8), idx);
            _mm_and_si128(_mm_cmpeq_epi8(v2, hi), _mm_cmpeq_epi8(v3, lo))
        }
    }

    /// The 16-lane version of [`super::swar_block_mask`] (same gate table),
    /// with the `(rtp, other)` masks lowered to movemask bitsets.
    #[inline(always)]
    fn block_mask(v0: __m128i, v1: __m128i, v3: __m128i, v4: __m128i, legacy: __m128i) -> (u32, u32) {
        // SAFETY: SSE2 is unconditionally available on x86-64 (baseline ISA).
        unsafe {
            let zero = _mm_setzero_si128();
            let top = _mm_and_si128(v0, _mm_set1_epi8(0xC0u8 as i8));
            let class00 = _mm_cmpeq_epi8(top, zero);
            let class10 = _mm_cmpeq_epi8(top, _mm_set1_epi8(0x80u8 as i8));
            let class11 = _mm_cmpeq_epi8(top, _mm_set1_epi8(0xC0u8 as i8));

            let aligned = _mm_cmpeq_epi8(_mm_and_si128(v3, _mm_set1_epi8(0x03)), zero);
            let cookie = _mm_cmpeq_epi8(v4, _mm_set1_epi8(0x21));
            let stun = _mm_and_si128(_mm_and_si128(class00, aligned), _mm_or_si128(cookie, legacy));

            // RTP/RTCP demux on the second byte: 200..=207 is (b & 0xF8) == 0xC8.
            let rtcp_byte =
                _mm_cmpeq_epi8(_mm_and_si128(v1, _mm_set1_epi8(0xF8u8 as i8)), _mm_set1_epi8(0xC8u8 as i8));
            let rtcp = _mm_and_si128(class10, rtcp_byte);

            let v1_ok = _mm_or_si128(_mm_cmpeq_epi8(v1, zero), _mm_cmpeq_epi8(v1, _mm_set1_epi8(0x6bu8 as i8)));
            let quic = _mm_and_si128(class11, v1_ok);

            let rtp = _mm_xor_si128(class10, rtcp);
            let other = _mm_or_si128(_mm_or_si128(stun, rtcp), quic);
            (_mm_movemask_epi8(rtp) as u32, _mm_movemask_epi8(other) as u32)
        }
    }
}

/// Sweep offsets `first..=last` with this target's bulk pass (see the
/// module docs). Returns one past the last offset swept; the caller
/// finishes the tail scalar-wise.
#[inline]
pub(crate) fn bulk_sweep(payload: &[u8], first: usize, last: usize, block: impl FnMut(usize, u32, u32)) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // The 16-lane pass stops up to 35 offsets before the payload end
        // (block stride + load width); narrower u64 blocks keep sweeping
        // where no 16-byte load fits, leaving at most the SWAR tail for
        // the caller's scalar loop.
        let mut block = block;
        let end = sse2::sweep(payload, first, last, &mut block);
        swar_sweep(payload, end, last, block)
    }
    #[cfg(not(target_arch = "x86_64"))]
    swar_sweep(payload, first, last, block)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions the dispatcher's exact prefilters could accept — the sweep
    /// must visit every one of these (soundness floor).
    fn strict_gate(payload: &[u8], i: usize) -> bool {
        let tail = &payload[i..];
        match tail[0] >> 6 {
            0b00 => {
                tail.len() >= 20 && {
                    let declared = u16::from_be_bytes([tail[2], tail[3]]) as usize;
                    declared & 3 == 0 && (tail[4] == 0x21 || (declared != 0 && 20 + declared == tail.len()))
                }
            }
            0b10 => true,
            0b11 => tail.len() >= 2 && matches!(tail[1], 0x00 | 0x6b),
            _ => false,
        }
    }

    /// The loosest mask any block may emit (fallback blocks widen the
    /// legacy-STUN cover test to any-nonzero-declared) — the sweep must
    /// never visit a position outside these (tightness ceiling).
    fn loose_gate(payload: &[u8], i: usize) -> bool {
        let tail = &payload[i..];
        match tail[0] >> 6 {
            0b00 => {
                tail.len() >= 5 && tail[3] & 3 == 0 && {
                    let declared = u16::from_be_bytes([tail[2], tail[3]]) as usize;
                    tail[4] == 0x21 || declared != 0 || 20 + declared == tail.len()
                }
            }
            0b10 => true,
            0b11 => tail.len() >= 2 && matches!(tail[1], 0x00 | 0x6b),
            _ => false,
        }
    }

    /// Whether offset `i` belongs in a block's `rtp` mask, re-derived
    /// scalar-wise: version 2 and a second byte outside 200..=207.
    fn reference_rtp(payload: &[u8], i: usize) -> bool {
        payload[i] >> 6 == 0b10 && !(200..=207).contains(&payload[i + 1])
    }

    /// A block callback that unpacks each block's masks into
    /// `(offset, in the rtp mask)` pairs, in the order a dispatcher visits
    /// them.
    fn unpack(got: &mut Vec<(usize, bool)>) -> impl FnMut(usize, u32, u32) + '_ {
        move |base, rtp, other| {
            assert_eq!(rtp & other, 0, "the rtp and other masks overlap at block {base}");
            let mut m = rtp | other;
            while m != 0 {
                let j = m.trailing_zeros();
                got.push((base + j as usize, rtp >> j & 1 == 1));
                m &= m - 1;
            }
        }
    }

    /// Check one sweep's lanes `got` and returned end against the
    /// reference gates; `lanes` is the widest block the sweep uses.
    fn check_sweep(payload: &[u8], name: &str, lanes: usize, got: &[(usize, bool)], end: usize) {
        let last = payload.len().saturating_sub(1);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "ascending order");
        for &(i, rtp) in got {
            assert!(i < end, "dispatch past the reported sweep end");
            assert!(loose_gate(payload, i), "{name}: over-wide gate at {i}");
            assert_eq!(rtp, reference_rtp(payload, i), "{name}: wrong mask at {i}");
            if rtp {
                // The dispatcher reads an RTP lane's fixed header unchecked.
                assert!(i + 12 <= payload.len(), "{name}: rtp lane without 12 bytes at {i}");
            }
        }
        for i in (0..end).filter(|&i| strict_gate(payload, i)) {
            assert!(got.iter().any(|&(g, _)| g == i), "{name}: missed strict position {i}");
        }
        // The sweep must stop early enough that no gate load overflowed
        // (every swept lane sits at or below `len - 12`, so `end`, one past
        // the last lane, may reach `len - 11`), but late enough that the
        // scalar tail stays short.
        assert!(end <= payload.len().saturating_sub(11), "{name}: swept lane past len-12 (end {end})");
        if payload.len() >= 12 + lanes {
            assert!(end + 12 + lanes > payload.len().min(last + 1), "{name}: sweep stopped too early at {end}");
        }
    }

    /// Run both sweeps this host can execute over the whole payload — the
    /// platform's [`bulk_sweep`] and the SWAR pass alone (what every
    /// non-x86-64 target runs) — checking each, and return their
    /// dispatched offsets with the sweep ends.
    fn check_sweeps(payload: &[u8]) -> [(Vec<usize>, usize); 2] {
        let last = payload.len().saturating_sub(1);
        let mut got = Vec::new();
        let end = swar_sweep(payload, 0, last, unpack(&mut got));
        check_sweep(payload, "swar", 8, &got, end);
        let swar = (got.iter().map(|&(i, _)| i).collect(), end);
        let mut got = Vec::new();
        let end = bulk_sweep(payload, 0, last, unpack(&mut got));
        let active = ScanMode::active();
        check_sweep(payload, active.label(), if active == ScanMode::Simd { 16 } else { 8 }, &got, end);
        [swar, (got.iter().map(|&(i, _)| i).collect(), end)]
    }

    #[test]
    fn sweeps_agree_with_reference_gates() {
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        for len in [0usize, 1, 11, 12, 13, 19, 20, 21, 31, 32, 64, 100, 255, 1400] {
            let mut payload = vec![0u8; len];
            for b in payload.iter_mut() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *b = (rng >> 33) as u8;
            }
            check_sweeps(&payload);
        }
    }

    #[test]
    fn constant_fill_payloads_mask_out_completely() {
        // Zero fill: STUN class at every offset, but no cookie and a zero
        // declared length — the nz16 gate must kill every lane.
        for fill in [0x00u8, 0x04, 0x3C] {
            let payload = vec![fill; 256];
            for (got, _) in check_sweeps(&payload) {
                if fill == 0 {
                    assert!(got.is_empty(), "zero fill must be fully masked");
                }
            }
        }
    }

    #[test]
    fn legacy_exact_cover_positions_are_swept() {
        // A cookie-less STUN header whose declared length exactly covers
        // the rest of the payload must be swept at any offset, whichever
        // lane of whichever block it lands in.
        for off in 0..48 {
            let attrs = 24usize;
            let mut p = vec![0xE5u8; off]; // class-11 junk that fails the QUIC gate
            p.push(0x00);
            p.push(0x01);
            p.extend_from_slice(&(attrs as u16).to_be_bytes());
            p.extend_from_slice(&[0u8; 16]); // rest of the header, no cookie
            p.extend_from_slice(&[0x7Au8; 24]);
            for (got, end) in check_sweeps(&p) {
                if off < end {
                    assert!(got.contains(&off), "offset {off}");
                }
            }
        }
    }

    #[test]
    fn swar_eq_masks_have_no_borrow_false_positives() {
        // A matching lane must not leak into the next lane differing by
        // one. Under the classic `(x - LO) & !x & HI` zero test, the borrow
        // out of a matching lane flags a following lane one above the
        // constant: here every compared byte (version-2 first bytes, the
        // RTCP range, QUIC's 0x00/0x6b, the cookie's 0x21) sits next to its
        // off-by-one twin, and each lane's mask must still be exact.
        let mut p = vec![0u8; 48];
        p[0] = 0x80; // offset 0: RTP (second byte 0x81)
        p[1] = 0x81; // offset 1: version 2, second byte 0xC8, so RTCP
        for (j, b) in [0xC8u8, 0xC9, 0xC0, 0xC1, 0x6b, 0x6c, 0x21, 0x22, 0x00, 0x01].into_iter().enumerate() {
            p[2 + j] = b;
        }
        p[12] = 0xBF;
        p[13] = 0xCF; // RTCP range ends at 0xCF: lane 12 is RTCP, not RTP
        let mut got = Vec::new();
        let end = swar_sweep(&p, 0, p.len() - 1, unpack(&mut got));
        check_sweep(&p, "swar", 8, &got, end);
        assert!(got.contains(&(0, true)) && got.contains(&(1, false)) && got.contains(&(12, false)));
    }

    #[test]
    fn active_mode_follows_the_target() {
        assert_eq!(ScanMode::active() == ScanMode::Simd, cfg!(target_arch = "x86_64"));
    }

    #[test]
    fn labels_are_stable() {
        // Labels print on the `dissect` line; Debug names are recorded in run provenance.
        assert_eq!([ScanMode::Swar.label(), ScanMode::Simd.label()], ["swar", "simd"]);
        assert_eq!([format!("{:?}", ScanMode::Swar), format!("{:?}", ScanMode::Simd)], ["Swar", "Simd"]);
    }
}
