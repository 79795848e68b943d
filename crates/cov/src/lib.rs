//! # rtc-cov
//!
//! The in-tree coverage-probe substrate behind the coverage-guided fuzzer
//! (`rtc-fuzz`). The vendored offline toolchain has no sanitizer-coverage
//! or libFuzzer support, so feedback comes from explicit probes instead:
//! instrumented crates place [`probe!`] markers at parser decision points,
//! each of which bumps one slot of a fixed-size process-global hit-counter
//! map ([`MAP_SIZE`] slots, saturating `u8` counters — the same shape as
//! AFL's edge map).
//!
//! ## Zero cost when disabled
//!
//! [`probe!`] expands behind `#[cfg(feature = "cov-probes")]` — and because
//! `macro_rules!` output is configured in the *expanding* crate, that is
//! the **instrumented crate's own** `cov-probes` feature, not a feature of
//! this crate. A crate built without its `cov-probes` feature compiles
//! every marker to nothing: no map access, no branch, no code. The
//! benchmark asserts this (the map must stay all-zero after driving the
//! instrumented paths), so the fuzzer's probes can never tax the gated hot
//! paths.
//!
//! Instrumented crates therefore:
//!
//! 1. depend on `rtc-cov` unconditionally (this crate is dependency-free
//!    and a few hundred lines),
//! 2. declare a `cov-probes = []` feature,
//! 3. mark decision points with `rtc_cov::probe!("crate.site-name")`.
//!
//! Probe identifiers are stable strings hashed to map slots at compile
//! time ([`site_id`]), so the map layout — and every corpus signature
//! derived from it — survives code motion; renaming a probe is the only
//! way to move its slot.
//!
//! ## Reading the map
//!
//! The fuzz loop is single-threaded: it calls [`reset`], executes one
//! input, then reads the map through [`classified`] (AFL-style log2
//! bucketing via [`bucket`]) to derive a coverage signature. Counters are
//! relaxed saturating stores, so concurrent instrumented code elsewhere in
//! the process cannot corrupt anything — but runs that need byte-exact
//! determinism must hold the map exclusively (see `rtc-fuzz`'s run lock).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Number of hit-counter slots. A power of two (ids wrap by masking).
/// The tree currently carries a few hundred probe sites, so 8192 slots
/// keep collisions rare while [`reset`] stays cheap enough to run before
/// every fuzz execution.
pub const MAP_SIZE: usize = 1 << 13;

static MAP: [AtomicU8; MAP_SIZE] = [const { AtomicU8::new(0) }; MAP_SIZE];

/// Record one hit of probe `id` (saturating at 255, like AFL).
#[inline]
pub fn hit(id: u32) {
    let slot = &MAP[(id as usize) & (MAP_SIZE - 1)];
    let v = slot.load(Ordering::Relaxed);
    if v < 255 {
        slot.store(v + 1, Ordering::Relaxed);
    }
}

/// Zero every counter. The fuzz loop calls this before each execution.
pub fn reset() {
    for slot in &MAP {
        slot.store(0, Ordering::Relaxed);
    }
}

/// Whether every counter is zero — true in builds where no instrumented
/// crate enabled its `cov-probes` feature (the benchmark asserts this
/// after driving parser paths).
pub fn is_silent() -> bool {
    MAP.iter().all(|slot| slot.load(Ordering::Relaxed) == 0)
}

/// AFL-style log2 bucketing: collapse a raw hit count into one of eight
/// coarse classes so loop-count jitter does not explode the signature
/// space. Returns a single-bit class value (0 for "not hit").
pub const fn bucket(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 4,
        4..=7 => 8,
        8..=15 => 16,
        16..=31 => 32,
        32..=127 => 64,
        _ => 128,
    }
}

/// Write the bucketed ([`bucket`]) counter map into `out`.
pub fn classified(out: &mut [u8; MAP_SIZE]) {
    for (slot, o) in MAP.iter().zip(out.iter_mut()) {
        *o = bucket(slot.load(Ordering::Relaxed));
    }
}

/// Compile-time FNV-1a of a probe name — the stable map id of a
/// [`probe!`] site.
pub const fn site_id(name: &str) -> u32 {
    let bytes = name.as_bytes();
    let mut hash: u32 = 0x811C_9DC5;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u32;
        hash = hash.wrapping_mul(0x0100_0193);
        i += 1;
    }
    hash
}

/// Runtime FNV-1a over several name parts — for probes whose identity is
/// data-dependent (e.g. one probe per `WireError` taxonomy key). Parts are
/// separated by a `0x1F` byte so `["ab","c"]` and `["a","bc"]` differ.
pub fn dynamic_id(parts: &[&str]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for (i, part) in parts.iter().enumerate() {
        if i != 0 {
            hash ^= 0x1F;
            hash = hash.wrapping_mul(0x0100_0193);
        }
        for b in part.bytes() {
            hash ^= b as u32;
            hash = hash.wrapping_mul(0x0100_0193);
        }
    }
    hash
}

/// Mark a coverage decision point.
///
/// Expands to a map hit when the **expanding** crate's `cov-probes`
/// feature is enabled, and to nothing at all otherwise. The argument must
/// be a string literal; it is hashed at compile time.
///
/// ```
/// rtc_cov::probe!("doc.example-site");
/// ```
#[macro_export]
macro_rules! probe {
    ($name:literal) => {{
        #[cfg(feature = "cov-probes")]
        {
            const __RTC_COV_SITE: u32 = $crate::site_id($name);
            $crate::hit(__RTC_COV_SITE);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The map is process-global; tests in this crate touch disjoint slots
    // chosen from distinct probe names so they can run concurrently.

    #[test]
    fn hits_accumulate_and_saturate() {
        let id = site_id("cov.test.saturate");
        let slot = (id as usize) & (MAP_SIZE - 1);
        for _ in 0..300 {
            hit(id);
        }
        let mut out = [0u8; MAP_SIZE];
        classified(&mut out);
        assert_eq!(out[slot], 128, "300 hits land in the top bucket");
        assert!(!is_silent());
    }

    #[test]
    fn bucketing_is_monotone_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 4);
        assert_eq!(bucket(4), 8);
        assert_eq!(bucket(7), 8);
        assert_eq!(bucket(8), 16);
        assert_eq!(bucket(15), 16);
        assert_eq!(bucket(16), 32);
        assert_eq!(bucket(31), 32);
        assert_eq!(bucket(32), 64);
        assert_eq!(bucket(127), 64);
        assert_eq!(bucket(128), 128);
        assert_eq!(bucket(255), 128);
    }

    #[test]
    fn site_ids_are_stable_and_distinct() {
        // Pinned: a changed hash function would silently remap the whole
        // corpus, so the constant is locked by value.
        assert_eq!(site_id(""), 0x811C_9DC5);
        assert_ne!(site_id("stun.accept"), site_id("rtp.accept"));
        assert_eq!(site_id("stun.accept"), site_id("stun.accept"));
    }

    #[test]
    fn dynamic_ids_separate_parts() {
        assert_ne!(dynamic_id(&["ab", "c"]), dynamic_id(&["a", "bc"]));
        assert_eq!(dynamic_id(&["only"]), site_id("only"), "single-part dynamic ids match the const hash");
    }

    #[test]
    #[cfg(not(feature = "cov-probes"))]
    fn probe_macro_compiles_out_without_the_feature() {
        // This crate does not declare `cov-probes`, so the expansion here
        // must be empty: the named slot stays untouched.
        let id = site_id("cov.test.compiled-out");
        let slot = (id as usize) & (MAP_SIZE - 1);
        let mut before = [0u8; MAP_SIZE];
        classified(&mut before);
        probe!("cov.test.compiled-out");
        let mut after = [0u8; MAP_SIZE];
        classified(&mut after);
        assert_eq!(before[slot], after[slot]);
    }
}
