//! Proprietary-header profiling — automating the reverse-engineering the
//! paper performs by hand in §5.3.
//!
//! For each stream whose datagrams carry proprietary prefixes (or are fully
//! proprietary), the profiler aggregates byte-position statistics over the
//! prefix region and reports the structure a human analyst would look for:
//!
//! * the observed header-length range (Zoom: 24–39 bytes; FaceTime: 8–19),
//! * a magic prefix — leading byte positions constant across the stream
//!   (FaceTime's `0x6000`, the `0xDEADBEEFCAFE` keepalives),
//! * *low-cardinality* positions — bytes drawn from a handful of values,
//!   the signature of direction/type fields (Zoom's direction byte and
//!   15/16/33 media-type byte),
//! * *counter* positions — 16-bit words that increase monotonically across
//!   the stream (sequence fields, keepalive counters).

use crate::{CallDissection, DatagramClass};
use rtc_wire::ip::FiveTuple;
use std::collections::BTreeMap;

/// What a byte position in the header region looks like across a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// The same value in every observation.
    Constant(u8),
    /// A small set of values (≤ 4): a flag or type field. Sorted.
    LowCardinality(Vec<u8>),
    /// The 16-bit big-endian word starting here mostly increases across
    /// observations: a counter or sequence number.
    Counter,
    /// No structure detected.
    Varying,
}

/// The inferred profile of one stream's proprietary header region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderProfile {
    /// The stream.
    pub stream: FiveTuple,
    /// Datagrams that contributed.
    pub observations: usize,
    /// Minimum observed prefix length.
    pub min_len: usize,
    /// Maximum observed prefix length.
    pub max_len: usize,
    /// Per-position field classification, over the first
    /// `min(min_len, PROFILE_DEPTH)` positions.
    pub fields: Vec<FieldKind>,
}

/// How many leading bytes are profiled at most.
pub const PROFILE_DEPTH: usize = 40;

impl HeaderProfile {
    /// The run of leading [`FieldKind::Constant`] positions — the stream's
    /// magic prefix, if any.
    pub fn magic_prefix(&self) -> Vec<u8> {
        self.fields
            .iter()
            .map_while(|f| match f {
                FieldKind::Constant(b) => Some(*b),
                _ => None,
            })
            .collect()
    }

    /// Positions that look like direction/type flags.
    pub fn flag_positions(&self) -> Vec<(usize, Vec<u8>)> {
        self.fields
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match f {
                FieldKind::LowCardinality(vs) => Some((i, vs.clone())),
                _ => None,
            })
            .collect()
    }

    /// Positions that behave like counters.
    pub fn counter_positions(&self) -> Vec<usize> {
        self.fields.iter().enumerate().filter_map(|(i, f)| matches!(f, FieldKind::Counter).then_some(i)).collect()
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        let magic = self.magic_prefix();
        let magic_s = if magic.is_empty() {
            String::from("no magic")
        } else {
            format!("magic 0x{}", magic.iter().map(|b| format!("{b:02x}")).collect::<String>())
        };
        format!(
            "{}: {} obs, header {}..={} bytes, {}, flags at {:?}, counters at {:?}",
            self.stream,
            self.observations,
            self.min_len,
            self.max_len,
            magic_s,
            self.flag_positions().iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            self.counter_positions(),
        )
    }
}

/// Profile every stream of a dissected call that carries proprietary bytes
/// (prefix regions of proprietary-header datagrams and the whole payload of
/// fully proprietary ones). Streams with fewer than `min_observations`
/// qualifying datagrams are skipped.
pub fn profile_streams(dissection: &CallDissection, min_observations: usize) -> Vec<HeaderProfile> {
    // Header prefixes and fully proprietary payloads are profiled
    // separately: Zoom interleaves 1000-byte filler datagrams with
    // proprietary-headed media on the same 5-tuple, and mixing the two
    // would smear both structures.
    let mut headers: BTreeMap<FiveTuple, Vec<&[u8]>> = BTreeMap::new();
    let mut fully: BTreeMap<FiveTuple, Vec<&[u8]>> = BTreeMap::new();
    for d in &dissection.datagrams {
        match d.class {
            DatagramClass::ProprietaryHeader if !d.prefix.is_empty() => {
                headers.entry(d.stream).or_default().push(&d.prefix);
            }
            DatagramClass::FullyProprietary if !d.prefix.is_empty() => {
                fully.entry(d.stream).or_default().push(&d.prefix);
            }
            _ => {}
        }
    }
    // Fully-proprietary regions only stand alone when the stream carries no
    // proprietary-headed messages (e.g. FaceTime's keepalive flow).
    let mut regions = headers;
    for (stream, obs) in fully {
        regions.entry(stream).or_insert(obs);
    }

    let mut out = Vec::new();
    for (stream, obs) in regions {
        if obs.len() < min_observations {
            continue;
        }
        let min_len = obs.iter().map(|r| r.len()).min().unwrap_or(0);
        let max_len = obs.iter().map(|r| r.len()).max().unwrap_or(0);
        let depth = min_len.min(PROFILE_DEPTH);
        let fields = (0..depth).map(|pos| field_kind(&obs, pos, depth)).collect();
        out.push(HeaderProfile { stream, observations: obs.len(), min_len, max_len, fields });
    }
    out
}

/// Classify byte position `pos` across a stream's observations, each at
/// least `depth` bytes long.
fn field_kind(obs: &[&[u8]], pos: usize, depth: usize) -> FieldKind {
    // Counter test first — on the 16-bit word at [pos, pos+2): a strong
    // majority of consecutive deltas must be small and positive. This
    // takes precedence because the high byte of a slow counter looks
    // constant on its own.
    if pos + 1 < depth && obs.len() >= 4 {
        let word = |r: &[u8]| u16::from_be_bytes([r[pos], r[pos + 1]]);
        let increasing = obs.windows(2).filter(|w| (1..=256).contains(&word(w[1]).wrapping_sub(word(w[0])))).count();
        if increasing * 4 >= (obs.len() - 1) * 3 {
            return FieldKind::Counter;
        }
    }
    // Distinct values, up to the fifth, which already makes it Varying.
    let mut seen = [false; 256];
    let mut distinct = 0;
    for r in obs {
        let b = r[pos] as usize;
        if !seen[b] {
            seen[b] = true;
            distinct += 1;
            if distinct > 4 {
                return FieldKind::Varying;
            }
        }
    }
    if distinct == 1 {
        FieldKind::Constant(obs[0][pos])
    } else if obs.len() >= distinct * 2 {
        FieldKind::LowCardinality((0..=255u8).filter(|&b| seen[b as usize]).collect())
    } else {
        FieldKind::Varying
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dissect_call, DatagramDissection, DpiConfig};
    use bytes::Bytes;
    use rtc_pcap::trace::Datagram;
    use rtc_pcap::Timestamp;
    use rtc_wire::rtp::PacketBuilder;
    use std::collections::HashSet;

    fn dgram(ts_ms: u64, payload: Vec<u8>) -> Datagram {
        Datagram {
            ts: Timestamp::from_millis(ts_ms),
            five_tuple: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap()),
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn zoom_like_header_structure_is_recovered() {
        // dir byte {0x00, 0x04} + 4-byte constant id + 2-byte counter + junk.
        let mut dgrams = Vec::new();
        for i in 0..24u16 {
            let mut p = vec![if i % 2 == 0 { 0x00 } else { 0x04 }];
            p.extend_from_slice(&[0x3A, 0x1B, 0x2C, 0x0D]);
            p.extend_from_slice(&i.to_be_bytes());
            p.extend_from_slice(&[(i as u8).wrapping_mul(37), (i as u8).wrapping_mul(11), 0x05]);
            p.extend(PacketBuilder::new(96, 100 + i, 0, 0x77).payload(vec![0xAA; 60]).build());
            dgrams.push(dgram(i as u64 * 20, p));
        }
        let dis = dissect_call(&dgrams, &DpiConfig::default());
        let profiles = profile_streams(&dis, 4);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.observations, 24);
        assert_eq!((p.min_len, p.max_len), (10, 10));
        // Position 0 is the direction flag.
        assert!(matches!(&p.fields[0], FieldKind::LowCardinality(vs) if vs == &vec![0x00, 0x04]));
        // Positions 1..5 are the constant id (magic starts after the flag).
        assert!(matches!(p.fields[1], FieldKind::Constant(0x3A)));
        // Positions 5..7 hold the counter.
        assert!(p.counter_positions().contains(&5), "{:?}", p.fields);
        assert!(p.magic_prefix().is_empty(), "flag byte first, so no magic prefix");
    }

    #[test]
    fn keepalive_magic_prefix_detected() {
        let mut dgrams = Vec::new();
        for i in 0..20u32 {
            let mut p = vec![0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE];
            p.extend_from_slice(&[0x21; 10]);
            p.extend_from_slice(&i.to_be_bytes());
            dgrams.push(dgram(i as u64 * 50, p));
        }
        let dis = dissect_call(&dgrams, &DpiConfig::default());
        let profiles = profile_streams(&dis, 4);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(&p.magic_prefix()[..6], &[0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE]);
        // The trailing u32 counter: its low 16-bit word increases by 1.
        assert!(p.counter_positions().contains(&18), "{:?}", p.fields);
        assert!(p.summary().contains("magic 0xdeadbeefcafe2121"));
    }

    #[test]
    fn sparse_streams_are_skipped() {
        let dgrams = vec![dgram(0, vec![0xDE; 30]), dgram(10, vec![0xDE; 30])];
        let dis = dissect_call(&dgrams, &DpiConfig::default());
        assert!(profile_streams(&dis, 4).is_empty());
    }

    #[test]
    fn standard_streams_produce_no_profile() {
        let dgrams: Vec<Datagram> = (0..10)
            .map(|i| dgram(i * 20, PacketBuilder::new(96, 100 + i as u16, 0, 0x77).payload(vec![0; 40]).build()))
            .collect();
        let dis = dissect_call(&dgrams, &DpiConfig::default());
        assert!(profile_streams(&dis, 2).is_empty());
    }

    /// The profiler as it was before the seen-table, with a `Vec` and a
    /// `HashSet` per position: the reference `profile_streams` must match.
    fn reference_profile_streams(dissection: &CallDissection, min_observations: usize) -> Vec<HeaderProfile> {
        let mut headers: BTreeMap<FiveTuple, Vec<&[u8]>> = BTreeMap::new();
        let mut fully: BTreeMap<FiveTuple, Vec<&[u8]>> = BTreeMap::new();
        for d in &dissection.datagrams {
            match d.class {
                DatagramClass::ProprietaryHeader if !d.prefix.is_empty() => {
                    headers.entry(d.stream).or_default().push(&d.prefix);
                }
                DatagramClass::FullyProprietary if !d.prefix.is_empty() => {
                    fully.entry(d.stream).or_default().push(&d.prefix);
                }
                _ => {}
            }
        }
        let mut regions = headers;
        for (stream, obs) in fully {
            regions.entry(stream).or_insert(obs);
        }
        let mut out = Vec::new();
        for (stream, obs) in regions {
            if obs.len() < min_observations {
                continue;
            }
            let min_len = obs.iter().map(|r| r.len()).min().unwrap_or(0);
            let max_len = obs.iter().map(|r| r.len()).max().unwrap_or(0);
            let depth = min_len.min(PROFILE_DEPTH);
            let mut fields = Vec::with_capacity(depth);
            for pos in 0..depth {
                let values: Vec<u8> = obs.iter().map(|r| r[pos]).collect();
                let distinct: HashSet<u8> = values.iter().copied().collect();
                if pos + 1 < depth && obs.len() >= 4 {
                    let words: Vec<u16> = obs.iter().map(|r| u16::from_be_bytes([r[pos], r[pos + 1]])).collect();
                    let increasing = words
                        .windows(2)
                        .filter(|w| {
                            let d = w[1].wrapping_sub(w[0]);
                            (1..=256).contains(&d)
                        })
                        .count();
                    if increasing * 4 >= (words.len() - 1) * 3 {
                        fields.push(FieldKind::Counter);
                        continue;
                    }
                }
                if distinct.len() == 1 {
                    fields.push(FieldKind::Constant(values[0]));
                } else if distinct.len() <= 4 && obs.len() >= distinct.len() * 2 {
                    let mut vs: Vec<u8> = distinct.into_iter().collect();
                    vs.sort_unstable();
                    fields.push(FieldKind::LowCardinality(vs));
                } else {
                    fields.push(FieldKind::Varying);
                }
            }
            out.push(HeaderProfile { stream, observations: obs.len(), min_len, max_len, fields });
        }
        out
    }

    #[test]
    fn seen_table_profiler_matches_the_hash_set_reference() {
        // How often each field kind came out: the generator must reach all four.
        let mut kinds = [0usize; 4];
        rtc_conformance::check_cases("seen_table_profiler_matches_the_hash_set_reference", 256, |rng| {
            let min_observations = [2usize, 4, 5][rng.below(3)];
            let mut datagrams = Vec::new();
            for s in 0..rng.in_range(1u8..=3) {
                let stream = FiveTuple::udp(
                    format!("10.0.0.{}:1000", s + 1).parse().unwrap(),
                    "1.2.3.4:2000".parse().unwrap(),
                );
                // Observation counts around `min_observations`, the counter
                // test's 4 and the 8–10 that let 4 or 5 values count as low
                // cardinality (a profile sees only its class's share of a
                // stream); prefix lengths around PROFILE_DEPTH.
                let n = match rng.below(3) {
                    0 => rng.in_range(8..=16),
                    _ => rng.in_range(min_observations - 1..=min_observations.max(4) + 1),
                };
                let base = match rng.below(3) {
                    0 => rng.in_range(1..PROFILE_DEPTH),
                    _ => rng.in_range(PROFILE_DEPTH - 2..=PROFILE_DEPTH + 2),
                };
                // One generated column per byte position: constant, 2–5
                // values, a 16-bit counter over two positions, or random.
                let width = base + 2;
                let mut rows = vec![vec![0u8; width]; n];
                let mut pos = 0;
                while pos < width {
                    match rng.below(4) {
                        0 => {
                            let c = rng.in_range(0..=255u8);
                            rows.iter_mut().for_each(|r| r[pos] = c);
                        }
                        1 => {
                            let vals: Vec<u8> = (0..rng.in_range(2..=5)).map(|_| rng.in_range(0..=255u8)).collect();
                            rows.iter_mut().for_each(|r| r[pos] = vals[rng.below(vals.len())]);
                        }
                        2 if pos + 1 < width => {
                            let mut w = rng.in_range(0..=u16::MAX);
                            let step = rng.in_range(0..=300u16);
                            for r in rows.iter_mut() {
                                r[pos..pos + 2].copy_from_slice(&w.to_be_bytes());
                                // Mostly steady steps, with an occasional jump.
                                w = if rng.below(8) == 0 { rng.in_range(0..=u16::MAX) } else { w.wrapping_add(step) };
                            }
                            pos += 1;
                        }
                        _ => rows.iter_mut().for_each(|r| r[pos] = rng.in_range(0..=255u8)),
                    }
                    pos += 1;
                }
                for (k, row) in rows.iter().enumerate() {
                    let len = base + rng.below(3);
                    let class = match rng.below(5) {
                        0 => DatagramClass::FullyProprietary,
                        1 => DatagramClass::Standard,
                        _ => DatagramClass::ProprietaryHeader,
                    };
                    datagrams.push(DatagramDissection {
                        ts: Timestamp::from_millis(k as u64 * 20),
                        stream,
                        payload_len: len,
                        messages: Vec::new(),
                        prefix: Bytes::copy_from_slice(&row[..len]),
                        trailing: Bytes::new(),
                        class,
                        prop_header_len: len,
                    });
                }
            }
            let dissection = CallDissection { datagrams, ..CallDissection::default() };
            let profiles = profile_streams(&dissection, min_observations);
            assert_eq!(profiles, reference_profile_streams(&dissection, min_observations));
            for f in profiles.iter().flat_map(|p| &p.fields) {
                kinds[match f {
                    FieldKind::Constant(_) => 0,
                    FieldKind::LowCardinality(_) => 1,
                    FieldKind::Counter => 2,
                    FieldKind::Varying => 3,
                }] += 1;
            }
        });
        assert!(kinds.iter().all(|&k| k > 0), "a field kind never came out: {kinds:?}");
    }
}
