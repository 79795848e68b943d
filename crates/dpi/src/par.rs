//! Chunked parallel extraction and resolution within one call.
//!
//! Candidate extraction (Algorithm 1, step 1) is embarrassingly parallel
//! across datagrams: each payload is scanned independently, and only the
//! later validation pass needs cross-datagram state. Resolution (step 3)
//! is embarrassingly parallel too once the call's [`ValidationContext`] is
//! frozen. Extraction and [`resolve_all`] therefore split a call's
//! datagram list into [`CHUNK_DATAGRAMS`]-sized chunks and fan them out over
//! scoped workers that claim the next chunk from a shared counter, so a
//! worker that drew cheap chunks simply claims more.
//!
//! Small calls take the sequential path and pay nothing; per-chunk results
//! are stitched back together in chunk order, so every thread count is
//! byte-identical to the sequential computation. Parallelism across calls
//! belongs to the study driver, which runs one call per worker.

use crate::cut::{self, Lanes, MatcherCounts};
use crate::pattern::{Candidate, CandidateBatch};
use crate::resolve::{resolve_datagram, resolve_in_slot, ValidationContext};
use crate::{DatagramDissection, DpiConfig};
use rtc_pcap::trace::Datagram;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Datagrams per work unit. Small enough to balance skewed payload sizes
/// across workers, large enough that claiming a chunk costs nothing.
pub const CHUNK_DATAGRAMS: usize = 256;

/// Parse an `RTC_DPI_THREADS` override. Unset, empty or whitespace-only
/// values mean "no override" and stay silent (the CI matrix passes an
/// empty string for the unset leg); anything else that is not a positive
/// integer is *ignored with a warning* — the silent-typo failure mode is
/// exactly what the diagnostic exists for.
fn threads_override(raw: Option<&str>) -> Option<usize> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            rtc_obs::diag::warn_once(
                "rtc-dpi-threads-unparsable",
                &format!("ignoring RTC_DPI_THREADS={v:?}: not a positive integer; using detected core count"),
            );
            None
        }
    }
}

/// ceil(quota / period) CPUs, the thread count a CFS bandwidth limit
/// actually admits; `None` when the inputs describe no limit.
fn quota_to_threads(quota: u64, period: u64) -> Option<usize> {
    if quota == 0 || period == 0 {
        return None;
    }
    Some(usize::try_from(quota.div_ceil(period)).unwrap_or(usize::MAX).max(1))
}

/// cgroup v2 `cpu.max`: `"max 100000"` (no limit) or `"<quota> <period>"`
/// in microseconds.
fn parse_cgroup2_cpu_max(contents: &str) -> Option<usize> {
    let mut fields = contents.split_whitespace();
    let quota = fields.next()?;
    if quota == "max" {
        return None;
    }
    quota_to_threads(quota.parse().ok()?, fields.next()?.parse().ok()?)
}

/// cgroup v1 `cpu.cfs_quota_us` / `cpu.cfs_period_us`: quota `-1` (or any
/// non-positive value) means no limit.
fn parse_cgroup1_cfs(quota: &str, period: &str) -> Option<usize> {
    let quota: i64 = quota.trim().parse().ok()?;
    if quota <= 0 {
        return None;
    }
    let period: i64 = period.trim().parse().ok()?;
    if period <= 0 {
        return None;
    }
    quota_to_threads(quota as u64, period as u64)
}

/// The CPU limit imposed by the calling process's cgroup, if any. Reads
/// the unified-hierarchy `cpu.max` first (the common case in containers,
/// where a cgroup namespace puts the limit at the mount root), then the
/// v1 CFS bandwidth knobs.
#[cfg(target_os = "linux")]
fn cgroup_cpu_limit() -> Option<usize> {
    if let Ok(contents) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return parse_cgroup2_cpu_max(&contents);
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    parse_cgroup1_cfs(&quota, &period)
}

/// Worker threads the scheduler uses when `DpiConfig::threads` is 0
/// ("one per available core").
///
/// `RTC_DPI_THREADS` overrides detection entirely (useful for benchmarks
/// and CI runners); a value that is set but unparsable is ignored with a
/// one-shot [`rtc_obs::diag`] warning instead of silently. Otherwise
/// [`std::thread::available_parallelism`] is consulted first; when it
/// reports a single CPU on Linux, the CPU count from `/proc/cpuinfo` is
/// cross-checked, because a *fractional* cgroup CPU quota makes
/// `available_parallelism` round down to 1 even on runners that expose
/// many cores. The cross-check counts **host** CPUs though, so the result
/// is clamped back to the cgroup's own `cpu.max` / CFS quota — a container
/// limited to 4 of 64 cores gets 4 workers, not 64.
pub fn hardware_threads() -> usize {
    if let Some(n) = threads_override(std::env::var("RTC_DPI_THREADS").ok().as_deref()) {
        return n;
    }
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    #[allow(unused_mut)]
    let mut detected = avail;
    #[cfg(target_os = "linux")]
    {
        if detected == 1 {
            if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
                let cpus = cpuinfo.lines().filter(|l| l.starts_with("processor")).count();
                if cpus > 1 {
                    detected = cpus;
                }
            }
        }
        if let Some(limit) = cgroup_cpu_limit() {
            detected = detected.min(limit);
        }
    }
    detected.max(1)
}

/// The DPI thread count for each of `workers` concurrent workers sharing
/// the machine: an explicit `threads` is kept, and 0 becomes an equal share
/// of [`hardware_threads`], at least one. `workers` of 0 counts as 1.
///
/// The single place that resolves `DpiConfig::threads`: the study, shard
/// and service drivers call it with their worker count, the DPI stages
/// with 1.
pub fn share_threads(threads: usize, workers: usize) -> usize {
    match threads {
        0 => (hardware_threads() / workers.max(1)).max(1),
        n => n,
    }
}

/// How many worker threads the scheduler will use for a workload of
/// `n_datagrams` under `config` — 1 means the sequential path.
///
/// Below [`DpiConfig::parallel_threshold`] the answer is always 1;
/// otherwise `config.threads` workers (0 = [`hardware_threads`], see
/// [`share_threads`]), never more than there are chunks.
pub fn planned_threads(n_datagrams: usize, config: &DpiConfig) -> usize {
    if n_datagrams < config.parallel_threshold.max(1) {
        return 1;
    }
    share_threads(config.threads, 1).min(n_datagrams.div_ceil(CHUNK_DATAGRAMS))
}

/// Extract the candidates of every datagram of one call and cut the RTP
/// noise (see [`crate::cut`]), over [`planned_threads`] chunked workers
/// (1 = plain serial loop). `sids[i]` is datagram `i`'s stream id.
/// Returns the kept candidates, in input order, and the candidates
/// extracted per matcher.
///
/// Generic over owned or borrowed datagram slices (`&[Datagram]` and
/// `&[&Datagram]` both work), so the borrowed views the filter layer hands
/// out flow through without cloning.
pub(crate) fn extract_cut<D: Borrow<Datagram> + Sync>(
    datagrams: &[D],
    sids: &[u32],
    config: &DpiConfig,
    cut_table: Option<usize>,
) -> (CandidateBatch, MatcherCounts) {
    let extract_chunk = |start: usize, slice: &[D]| {
        let mut lanes = Lanes::with_capacity(slice.len());
        for (d, &sid) in slice.iter().zip(&sids[start..]) {
            lanes.push_payload(&d.borrow().payload, sid, config.max_offset);
        }
        lanes.seal();
        lanes
    };
    let parts = match planned_threads(datagrams.len(), config) {
        0 | 1 => vec![extract_chunk(0, datagrams)],
        threads => map_chunks(datagrams, threads, extract_chunk),
    };
    cut::cut(datagrams, parts, config.rtp_min_group, cut_table)
}

/// Resolve every datagram of one call against its sealed context, fanning
/// chunks out over [`planned_threads`] workers (1 = plain serial loop).
///
/// `resolve_datagram` is a pure function of `(datagram, candidates, ctx)`,
/// so the dissections are byte-identical at every thread count; chunks are
/// reassembled in input order. When `sample_every > 0`, every
/// `sample_every`-th datagram (by input index, same indices at every
/// thread count) is wall-clocked and returned as `(index, nanoseconds)`
/// pairs in index order — the observability layer's resolve-latency
/// sampling, kept out of the other datagrams' hot path.
pub fn resolve_all<D: Borrow<Datagram> + Sync>(
    datagrams: &[D],
    batch: &CandidateBatch,
    ctx: &ValidationContext,
    config: &DpiConfig,
    sample_every: usize,
) -> (Vec<DatagramDissection>, Vec<(usize, u64)>) {
    resolve_each(datagrams, batch, config, sample_every, |_, d, candidates| resolve_datagram(d, candidates, ctx))
}

/// [`resolve_all`] for a call whose streams are interned: `sids[i]` is
/// datagram `i`'s stream id in the table `ctx` was built over, so no
/// datagram hashes its stream key.
pub(crate) fn resolve_interned<D: Borrow<Datagram> + Sync>(
    datagrams: &[D],
    sids: &[u32],
    batch: &CandidateBatch,
    ctx: &ValidationContext,
    config: &DpiConfig,
    sample_every: usize,
) -> (Vec<DatagramDissection>, Vec<(usize, u64)>) {
    resolve_each(datagrams, batch, config, sample_every, |i, d, candidates| {
        resolve_in_slot(d, candidates, ctx.stream_slot(sids[i]))
    })
}

/// The chunked, sampled driver behind [`resolve_all`] and
/// [`resolve_interned`]: `resolve(i, datagram, candidates)` dissects
/// datagram `i`.
fn resolve_each<D: Borrow<Datagram> + Sync>(
    datagrams: &[D],
    batch: &CandidateBatch,
    config: &DpiConfig,
    sample_every: usize,
    resolve: impl Fn(usize, &Datagram, &[Candidate]) -> DatagramDissection + Sync,
) -> (Vec<DatagramDissection>, Vec<(usize, u64)>) {
    let resolve_chunk = |start: usize, slice: &[D]| {
        let mut out = Vec::with_capacity(slice.len());
        let mut samples = Vec::new();
        for (k, d) in slice.iter().enumerate() {
            let i = start + k;
            let clock = (sample_every > 0 && i.is_multiple_of(sample_every)).then(Instant::now);
            out.push(resolve(i, d.borrow(), batch.get(i)));
            if let Some(t0) = clock {
                samples.push((i, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)));
            }
        }
        (out, samples)
    };

    match planned_threads(datagrams.len(), config) {
        0 | 1 => resolve_chunk(0, datagrams),
        threads => {
            let mut dissections = Vec::with_capacity(datagrams.len());
            let mut samples = Vec::new();
            for (d, sm) in map_chunks(datagrams, threads, resolve_chunk) {
                dissections.extend(d);
                samples.extend(sm);
            }
            (dissections, samples)
        }
    }
}

/// Run `work(start, chunk)` over every [`CHUNK_DATAGRAMS`]-sized chunk of
/// `items` on `threads` scoped workers, each claiming the next unclaimed
/// chunk from a shared counter. Returns the outputs in chunk order.
fn map_chunks<D: Sync, T: Send>(items: &[D], threads: usize, work: impl Fn(usize, &[D]) -> T + Sync) -> Vec<T> {
    let n_chunks = items.len().div_ceil(CHUNK_DATAGRAMS);
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let (next, work) = (&next, &work);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let ci = next.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let start = ci * CHUNK_DATAGRAMS;
                        let end = (start + CHUNK_DATAGRAMS).min(items.len());
                        done.push((ci, work(start, &items[start..end])));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("DPI worker panicked")).collect()
    });
    let mut chunks: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    for (ci, out) in per_worker.into_iter().flatten() {
        chunks[ci] = Some(out);
    }
    chunks.into_iter().map(|c| c.expect("every chunk processed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::extract_candidates;
    use crate::resolve::ContextBuilder;
    use bytes::Bytes;
    use rtc_pcap::Timestamp;
    use rtc_wire::ip::FiveTuple;
    use rtc_wire::rtp::PacketBuilder;

    fn corpus(n: usize) -> Vec<Datagram> {
        (0..n)
            .map(|i| {
                // Mix of RTP, STUN-ish, and junk payloads of varying size.
                let payload = match i % 3 {
                    0 => PacketBuilder::new(96, i as u16, i as u32, 0xAB).payload(vec![0x3C; 40 + i % 160]).build(),
                    1 => {
                        let mut p = vec![0x0B; i % 23];
                        p.extend(PacketBuilder::new(111, i as u16, 0, 0xCD).payload(vec![0x81; 60]).build());
                        p
                    }
                    _ => vec![(i % 251) as u8; 16 + i % 300],
                };
                Datagram {
                    ts: Timestamp::from_millis(i as u64),
                    five_tuple: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap()),
                    payload: Bytes::from(payload),
                }
            })
            .collect()
    }

    #[test]
    fn small_calls_stay_sequential() {
        let config = DpiConfig::default();
        assert_eq!(planned_threads(0, &config), 1);
        assert_eq!(planned_threads(1, &config), 1);
        assert_eq!(planned_threads(config.parallel_threshold - 1, &config), 1);
    }

    #[test]
    fn large_calls_use_requested_threads() {
        let config = DpiConfig { threads: 4, parallel_threshold: 8, ..DpiConfig::default() };
        // Enough datagrams for 4+ chunks: all 4 workers are used.
        assert_eq!(planned_threads(4 * CHUNK_DATAGRAMS, &config), 4);
        // Never more workers than chunks.
        assert_eq!(planned_threads(CHUNK_DATAGRAMS + 1, &config), 2);
        assert_eq!(planned_threads(8, &config), 1, "one chunk needs one worker");
    }

    #[test]
    fn auto_thread_count_uses_hardware_threads() {
        let config = DpiConfig { threads: 0, parallel_threshold: 1, ..DpiConfig::default() };
        let hw = hardware_threads();
        assert!(hw >= 1);
        let planned = planned_threads(100 * CHUNK_DATAGRAMS, &config);
        assert_eq!(planned, hw.clamp(1, 100));
    }

    #[test]
    fn share_threads_keeps_explicit_counts_and_divides_the_machine() {
        let hw = hardware_threads();
        assert_eq!(share_threads(3, 1), 3, "an explicit count is kept");
        assert_eq!(share_threads(3, 64), 3, "an explicit count ignores the worker count");
        for workers in 1..=4 {
            assert_eq!(share_threads(0, workers), (hw / workers).max(1));
        }
        assert_eq!(share_threads(0, 1), hw);
        assert_eq!(share_threads(0, hw + 1), 1, "more workers than threads still get one each");
        assert_eq!(share_threads(0, 0), share_threads(0, 1), "0 workers counts as 1");
    }

    #[test]
    fn threads_override_parses_and_warns() {
        assert_eq!(threads_override(None), None);
        assert_eq!(threads_override(Some("")), None, "empty = unset (CI matrix passes \"\")");
        assert_eq!(threads_override(Some("  ")), None);
        assert_eq!(threads_override(Some("8")), Some(8));
        assert_eq!(threads_override(Some(" 3 ")), Some(3));
        // Unparsable: ignored, but loudly.
        assert_eq!(threads_override(Some("banana")), None);
        assert!(
            rtc_obs::diag::warnings().iter().any(|m| m.contains("RTC_DPI_THREADS") && m.contains("banana")),
            "unparsable override must leave a diagnostic"
        );
        assert_eq!(threads_override(Some("0")), None, "zero threads is not a usable override");
        assert_eq!(threads_override(Some("-2")), None);
    }

    #[test]
    fn cgroup_quota_parsing() {
        // v2 cpu.max
        assert_eq!(parse_cgroup2_cpu_max("max 100000\n"), None, "no limit");
        assert_eq!(parse_cgroup2_cpu_max("400000 100000\n"), Some(4));
        assert_eq!(parse_cgroup2_cpu_max("150000 100000"), Some(2), "fractional quota rounds up");
        assert_eq!(parse_cgroup2_cpu_max("50000 100000"), Some(1), "sub-core quota still gets one worker");
        assert_eq!(parse_cgroup2_cpu_max(""), None);
        assert_eq!(parse_cgroup2_cpu_max("garbage"), None);
        assert_eq!(parse_cgroup2_cpu_max("100000"), None, "missing period");
        // v1 cfs files
        assert_eq!(parse_cgroup1_cfs("-1\n", "100000\n"), None, "-1 = unlimited");
        assert_eq!(parse_cgroup1_cfs("400000", "100000"), Some(4));
        assert_eq!(parse_cgroup1_cfs("250000", "100000"), Some(3), "ceil(2.5)");
        assert_eq!(parse_cgroup1_cfs("50000", "100000"), Some(1));
        assert_eq!(parse_cgroup1_cfs("0", "100000"), None);
        assert_eq!(parse_cgroup1_cfs("100000", "0"), None);
        assert_eq!(parse_cgroup1_cfs("junk", "100000"), None);
    }

    fn serial() -> DpiConfig {
        DpiConfig { threads: 1, parallel_threshold: usize::MAX, ..DpiConfig::default() }
    }

    /// Every candidate of every datagram, through the public stepwise API.
    fn uncut(datagrams: &[Datagram], max_offset: usize) -> CandidateBatch {
        let mut batch = CandidateBatch::with_capacity(datagrams.len());
        for d in datagrams {
            batch.push_payload(&d.payload, max_offset);
        }
        batch
    }

    /// The interned stream id of every datagram.
    fn stream_ids(datagrams: &[Datagram]) -> Vec<u32> {
        let mut streams = crate::resolve::StreamTable::default();
        datagrams.iter().map(|d| streams.intern(d.five_tuple)).collect()
    }

    #[test]
    fn chunked_extraction_matches_sequential_in_order() {
        // Force the chunked path with several workers regardless of the
        // machine's core count, on calls of under one, exactly one and
        // several chunks (the last one ragged), uncut and cut.
        for n in [0, 7, CHUNK_DATAGRAMS, 2 * CHUNK_DATAGRAMS + 5, 3 * CHUNK_DATAGRAMS + 17] {
            let datagrams = corpus(n);
            let sids = stream_ids(&datagrams);
            let every = uncut(&datagrams, serial().max_offset);
            for min_group in [0usize, 5] {
                let serial = DpiConfig { rtp_min_group: min_group, ..serial() };
                let (sequential, counts) = extract_cut(&datagrams, &sids, &serial, None);
                assert_eq!(sequential.len(), n);
                assert_eq!(counts.iter().sum::<u64>(), every.candidate_count() as u64);
                if min_group == 0 {
                    for i in 0..n {
                        assert_eq!(sequential.get(i), every.get(i), "n {n}, datagram {i}");
                    }
                }
                for threads in [2, 3, 8] {
                    let config = DpiConfig { threads, parallel_threshold: 1, ..serial };
                    let (chunked, chunked_counts) = extract_cut(&datagrams, &sids, &config, None);
                    assert_eq!(chunked_counts, counts);
                    assert_eq!(chunked.len(), sequential.len());
                    assert_eq!(chunked.candidate_count(), sequential.candidate_count());
                    for i in 0..chunked.len() {
                        assert_eq!(chunked.get(i), sequential.get(i), "n {n}, datagram {i}, threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn extraction_honors_threshold_boundary() {
        let datagrams = corpus(40);
        let sids = stream_ids(&datagrams);
        // Threshold above the call size: sequential. At/below: chunked.
        let seq_cfg = DpiConfig { threads: 2, parallel_threshold: 41, ..DpiConfig::default() };
        let par_cfg = DpiConfig { threads: 2, parallel_threshold: 40, rtp_min_group: 0, ..DpiConfig::default() };
        assert_eq!(planned_threads(datagrams.len(), &seq_cfg), 1);
        // 40 datagrams fit one chunk, so even the parallel config plans one
        // worker — but both paths agree with per-payload extraction.
        let (out, _) = extract_cut(&datagrams, &sids, &par_cfg, None);
        for (i, d) in datagrams.iter().enumerate() {
            assert_eq!(out.get(i), &extract_candidates(&d.payload, par_cfg.max_offset)[..]);
        }
    }

    #[test]
    fn resolve_all_matches_serial_at_every_thread_count() {
        let datagrams = corpus(4 * CHUNK_DATAGRAMS + 31);
        let serial_cfg = serial();
        let batch = uncut(&datagrams, serial_cfg.max_offset);
        let mut builder = ContextBuilder::new(&serial_cfg);
        for (d, cands) in datagrams.iter().zip(batch.iter()) {
            builder.observe(d, cands);
        }
        let ctx = builder.finish();
        let (serial, serial_samples) = resolve_all(&datagrams, &batch, &ctx, &serial_cfg, 64);
        assert_eq!(serial_samples.len(), datagrams.len().div_ceil(64));
        for threads in [2usize, 3, 8] {
            let cfg = DpiConfig { threads, parallel_threshold: 1, ..DpiConfig::default() };
            let (par, samples) = resolve_all(&datagrams, &batch, &ctx, &cfg, 64);
            assert_eq!(par, serial, "threads {threads}");
            // Identical sample indices in identical order (values are wall
            // clock and may differ).
            let idx: Vec<usize> = samples.iter().map(|&(i, _)| i).collect();
            let serial_idx: Vec<usize> = serial_samples.iter().map(|&(i, _)| i).collect();
            assert_eq!(idx, serial_idx, "threads {threads}");
        }
        // sample_every = 0: no sampling at all.
        let (_, none) = resolve_all(&datagrams, &batch, &ctx, &serial_cfg, 0);
        assert!(none.is_empty());
    }

    #[test]
    fn sampled_dissection_matches_serial_at_every_thread_count() {
        let datagrams = corpus(3 * CHUNK_DATAGRAMS + 40);
        let (serial_out, serial_stats) = crate::dissect_call_sampled(&datagrams, &serial(), 64);
        assert_eq!(serial_out, crate::dissect_call(&datagrams, &serial()));
        let batch = uncut(&datagrams, serial().max_offset);
        assert_eq!(serial_stats.candidates.iter().sum::<u64>(), batch.candidate_count() as u64);
        for threads in [2usize, 3, 8] {
            let cfg = DpiConfig { threads, parallel_threshold: 1, ..DpiConfig::default() };
            let (out, stats) = crate::dissect_call_sampled(&datagrams, &cfg, 64);
            assert_eq!(out, serial_out, "threads {threads}");
            assert_eq!(stats.candidates, serial_stats.candidates, "threads {threads}");
            let idx: Vec<usize> = stats.resolve_ns.iter().map(|&(i, _)| i).collect();
            let serial_idx: Vec<usize> = serial_stats.resolve_ns.iter().map(|&(i, _)| i).collect();
            assert_eq!(idx, serial_idx, "threads {threads}");
        }
    }
}
