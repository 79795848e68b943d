//! Fleet execution: materialize an `rtc_netemu` fleet plan into traffic
//! and pump it through the engine (or an HTTP ingest endpoint).
//!
//! The planner (`rtc_netemu::fleet`) decides *what* runs *when*; this
//! module is the part that may depend on trace synthesis
//! (`rtc-capture`/`rtc-apps`), which `rtc-netemu` sits below. The
//! in-process driver is a deterministic virtual-time event loop: call
//! traces are synthesized lazily when their start offset is reached and
//! dropped at finish, so driver residency is bounded by the plan's
//! concurrency cap — never by fleet size — and chunks from concurrent
//! calls interleave in one global virtual-time order that is reproducible
//! run to run.

use crate::engine::{Engine, SessionKey};
use rtc_apps::{Application, CallScenario};
use rtc_capture::CallCapture;
use rtc_netemu::fleet::{FleetPlan, ScheduledCall};
use rtc_netemu::NetworkConfig;
use rtc_pcap::trace::Record;
use std::collections::BinaryHeap;

/// Workload parameters applied to every materialized fleet call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDriveOptions {
    /// Emulated call duration in seconds (small keeps fleets fast).
    pub call_secs: u64,
    /// Traffic-rate multiplier in (0, 1].
    pub scale: f64,
    /// Records per ingest chunk (0 = whole call in one message).
    pub chunk_records: usize,
}

impl Default for FleetDriveOptions {
    fn default() -> FleetDriveOptions {
        FleetDriveOptions { call_secs: 8, scale: 0.05, chunk_records: 256 }
    }
}

/// Synthesize the traffic for one scheduled call. Pure function of the
/// call's identity and seed — the live driver and the offline batch
/// comparator both call this, so they analyze bit-identical traces.
pub fn materialize(call: &ScheduledCall, opts: &FleetDriveOptions) -> std::io::Result<CallCapture> {
    let app = Application::from_slug(&call.app_slug).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("unknown app slug {:?}", call.app_slug))
    })?;
    let network = NetworkConfig::from_label(&call.network_label).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("unknown network {:?}", call.network_label))
    })?;
    let scenario = CallScenario::new(app, network, call.seed).scaled(opts.call_secs, opts.scale);
    Ok(rtc_capture::synthesize_call(&scenario, call.repeat))
}

/// Totals from one fleet drive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Calls ingested.
    pub calls: usize,
    /// Pcap records pushed.
    pub records: u64,
    /// Highest number of simultaneously materialized calls.
    pub peak_live: usize,
}

/// A call being pumped: its remaining records and the linear mapping from
/// trace time onto the plan's schedule slot.
struct Cursor {
    key: SessionKey,
    records: std::vec::IntoIter<Record>,
    /// Virtual time of the next unsent record.
    next_virtual_us: u64,
    /// Trace timestamp of the call's first record, microseconds.
    first_ts_us: u64,
    /// Trace span first→last record, microseconds (floored at 1).
    span_us: u64,
    /// Scheduled start on the fleet clock.
    start_offset_us: u64,
    /// The plan's nominal call duration the span is compressed onto.
    duration_us: u64,
}

impl Cursor {
    /// Place a trace timestamp on the fleet clock: the call's records are
    /// compressed linearly onto `[start, start + nominal duration]`, so a
    /// cursor never outlives the slot the planner budgeted for it and the
    /// driver's peak residency matches `FleetPlan::peak_concurrency`.
    fn virtual_of(&self, ts_us: u64) -> u64 {
        let rel = ts_us.saturating_sub(self.first_ts_us) as u128;
        self.start_offset_us + (rel * self.duration_us as u128 / self.span_us as u128) as u64
    }
}

/// Pump an entire fleet through the engine in one deterministic
/// virtual-time sweep.
///
/// Calls start at their scheduled offsets; each call's records are pushed
/// in `chunk_records`-sized messages ordered globally by virtual
/// timestamp (ties broken by call id via plan order), so chunks of
/// concurrent calls interleave exactly as live captures would. Traces
/// exist only between their start and finish events.
pub fn drive_fleet(engine: &Engine, plan: &FleetPlan, opts: &FleetDriveOptions) -> std::io::Result<DriveStats> {
    // Min-heap events: (virtual time, plan ordinal). An event either
    // starts call `ordinal` (no cursor yet) or pumps its next chunk.
    let mut events: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut cursors: Vec<Option<Cursor>> = Vec::with_capacity(plan.calls.len());
    for (ordinal, call) in plan.calls.iter().enumerate() {
        events.push(std::cmp::Reverse((call.start_offset_us, ordinal)));
        cursors.push(None);
    }
    let mut stats = DriveStats::default();
    let mut live = 0usize;
    while let Some(std::cmp::Reverse((_now, ordinal))) = events.pop() {
        match &mut cursors[ordinal] {
            slot @ None => {
                let call = &plan.calls[ordinal];
                let capture = materialize(call, opts)?;
                let key = SessionKey::new(&call.tenant, &call.call_id);
                engine.open(key.clone(), capture.manifest.clone())?;
                live += 1;
                stats.peak_live = stats.peak_live.max(live);
                let records = capture.trace.records;
                let first_ts = records.first().map(|r| r.ts.as_micros()).unwrap_or(0);
                let last_ts = records.last().map(|r| r.ts.as_micros()).unwrap_or(first_ts);
                let cursor = Cursor {
                    key,
                    records: records.into_iter(),
                    next_virtual_us: call.start_offset_us,
                    first_ts_us: first_ts,
                    span_us: last_ts.saturating_sub(first_ts).max(1),
                    start_offset_us: call.start_offset_us,
                    duration_us: plan.spec.call_duration_us.max(1),
                };
                if cursor.records.len() == 0 {
                    engine.finish(&cursor.key)?;
                    stats.calls += 1;
                    live -= 1;
                } else {
                    events.push(std::cmp::Reverse((cursor.next_virtual_us, ordinal)));
                    *slot = Some(cursor);
                }
            }
            slot @ Some(_) => {
                let cursor = slot.as_mut().expect("cursor just matched");
                let take = if opts.chunk_records == 0 { usize::MAX } else { opts.chunk_records };
                let chunk: Vec<Record> = cursor.records.by_ref().take(take).collect();
                stats.records += chunk.len() as u64;
                engine.push_records(&cursor.key, chunk)?;
                match cursor.records.as_slice().first() {
                    Some(next) => {
                        cursor.next_virtual_us = cursor.virtual_of(next.ts.as_micros());
                        events.push(std::cmp::Reverse((cursor.next_virtual_us, ordinal)));
                    }
                    None => {
                        engine.finish(&cursor.key)?;
                        stats.calls += 1;
                        live -= 1;
                        *slot = None;
                    }
                }
            }
        }
    }
    Ok(stats)
}

/// Offline comparator: analyze every call of `plan` per tenant, one call
/// at a time in plan order, through the identical pipeline and absorb
/// path, and seal per-tenant reports. The differential suite (and the CI
/// smoke job) assert [`drive_fleet`]'s live output is byte-identical to
/// this.
pub fn batch_reports(
    plan: &FleetPlan,
    opts: &FleetDriveOptions,
    study: &rtc_core::StudyConfig,
) -> std::io::Result<std::collections::BTreeMap<String, rtc_core::StudyReport>> {
    let mut per_tenant: std::collections::BTreeMap<String, rtc_core::StudyFold> = Default::default();
    for call in &plan.calls {
        let capture = materialize(call, opts)?;
        let (analysis, call_stats) = rtc_core::analyze_capture_staged(&capture, study);
        per_tenant.entry(call.tenant.clone()).or_default().absorb(analysis, &call_stats, &study.obs);
    }
    Ok(per_tenant.into_iter().map(|(tenant, fold)| (tenant, fold.seal(rtc_obs::Snapshot::default()))).collect())
}
