//! The sharded session engine.
//!
//! Sessions are keyed by `(tenant, call-id)` and pinned to one of N
//! shards by a stable FNV-1a hash of the key — a session never migrates,
//! so each shard processes its sessions single-threaded and
//! byte-deterministically regardless of how many shards run or how the
//! other shards are scheduled. Each shard owns:
//!
//! * its live [`CallSession`]s (the streaming pipeline state machines),
//! * a per-tenant [`StudyFold`] absorbing finished sessions through the
//!   same [`StudyFold::absorb`] the batch and streaming drivers use,
//! * a bounded ingest queue (`std::sync::mpsc::sync_channel`): when the
//!   shard falls behind, `send` blocks the sources feeding it —
//!   backpressure, not buffering,
//! * its idle sweep: with an idle timeout set, the worker's receive
//!   times out at each sweep deadline and the worker finishes its own
//!   idle sessions, so no other thread touches the shard.
//!
//! A report merges the tenant's shard folds ([`StudyFold::merge`] is
//! order-invariant) and seals them with [`StudyFold::seal`], which puts
//! the calls in canonical order, so the merged result is byte-identical to
//! analyzing each tenant's calls offline in one batch — the differential
//! suite in `tests/` proves it across shard counts and interleavings. A
//! live read clones only the folds of the tenant asked for; shutdown
//! merges the joined shards' folds by value.

use rtc_capture::CallManifest;
use rtc_core::pipeline::{CallMeta, CallSession, PipelineStats};
use rtc_core::{contain, StudyConfig, StudyFold, StudyReport};
use rtc_pcap::trace::Record;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identity of one live session.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    /// Owning tenant; reports are per tenant.
    pub tenant: String,
    /// Call identity within the tenant (call id or serialized 5-tuple).
    pub call_id: String,
}

impl SessionKey {
    /// Build a key.
    pub fn new(tenant: impl Into<String>, call_id: impl Into<String>) -> SessionKey {
        SessionKey { tenant: tenant.into(), call_id: call_id.into() }
    }

    /// Stable shard routing: FNV-1a over the key bytes. Deliberately not
    /// `DefaultHasher` (randomly seeded per process) so a key maps to the
    /// same shard in every run — determinism is provable, not incidental.
    pub fn shard(&self, shards: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.tenant.bytes().chain([0xffu8]).chain(self.call_id.bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        (h % shards as u64) as usize
    }
}

/// One session that failed (ingest error or a panic inside the pipeline).
#[derive(Debug, Clone)]
pub struct SessionError {
    /// The failing session.
    pub key: SessionKey,
    /// Application display name from the session's manifest; empty when
    /// the error predates a manifest (records/finish for an unknown key).
    pub app: String,
    /// Network label from the session's manifest; empty likewise.
    pub network: String,
    /// What went wrong.
    pub error: String,
}

impl SessionError {
    /// Whether the error belongs to a call: it came after the session's
    /// manifest, so it names an application. Records or a finish for an
    /// unknown session key belong to none.
    pub fn belongs_to_call(&self) -> bool {
        !self.app.is_empty()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (session-owning worker threads).
    pub shards: usize,
    /// Bounded per-shard ingest queue capacity, in messages.
    pub queue_capacity: usize,
    /// Evict sessions with no ingest activity for this long (via
    /// `finish()`, so their partial traffic still reports). Each shard
    /// worker sweeps its own sessions every `max(idle_timeout / 4, 10 ms)`
    /// between messages. `ZERO` disables eviction — sessions then end only
    /// on explicit finish or shutdown.
    pub idle_timeout: Duration,
    /// Pcap records per ingest chunk when streaming a capture in
    /// (0 = the `rtc_pcap` reader default).
    pub chunk_records: usize,
    /// The analysis configuration shared by every session. Its metrics
    /// registry also receives the service gauges.
    pub study: StudyConfig,
}

impl ServiceConfig {
    /// Defaults: 4 shards, 64-message queues, no idle eviction.
    pub fn new(study: StudyConfig) -> ServiceConfig {
        ServiceConfig { shards: 4, queue_capacity: 64, idle_timeout: Duration::ZERO, chunk_records: 0, study }
    }
}

enum ShardMsg {
    Open { key: SessionKey, manifest: CallManifest },
    Records { key: SessionKey, records: Vec<Record> },
    Finish { key: SessionKey },
}

struct LiveSession {
    session: CallSession,
    last_activity: Instant,
}

/// Mutable per-shard state. The shard worker takes the lock once per
/// message; a report read takes it briefly to clone one tenant's fold.
#[derive(Default)]
struct ShardState {
    sessions: HashMap<SessionKey, LiveSession>,
    /// Each tenant's finished calls on this shard. A tenant's report
    /// carries its own calls' stats (the batch driver's convention), not
    /// the engine-wide mixture.
    tenants: BTreeMap<String, StudyFold>,
    errors: Vec<SessionError>,
    opened: u64,
    finished: u64,
    evicted: u64,
}

struct ShardGauges {
    active: rtc_obs::Gauge,
    queue_depth: rtc_obs::Gauge,
    retained: rtc_obs::Gauge,
    finished: rtc_obs::Counter,
    evictions: rtc_obs::Counter,
    records: rtc_obs::Counter,
}

struct Shard {
    sender: SyncSender<ShardMsg>,
    /// Messages sent but not yet received, counting senders blocked on a
    /// full queue. Senders increment it before `send`; the worker
    /// decrements it per message received.
    depth: Arc<AtomicUsize>,
    state: Arc<Mutex<ShardState>>,
    worker: std::thread::JoinHandle<()>,
}

impl Shard {
    fn send(&self, msg: ShardMsg) -> std::io::Result<()> {
        // Relaxed suffices: the channel orders this increment before the
        // worker's matching decrement, so the count never wraps.
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.sender.send(msg).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            std::io::Error::other("engine shut down")
        })
    }
}

/// Aggregate results of a full service run, produced by
/// [`Engine::shutdown`].
#[derive(Default)]
pub struct ServiceSummary {
    /// Per-tenant sealed reports (canonical call order).
    pub reports: BTreeMap<String, StudyReport>,
    /// Per-stage counters summed over every session.
    pub stats: PipelineStats,
    /// Sessions that errored (ingest errors and contained panics).
    pub errors: Vec<SessionError>,
    /// Sessions completed via explicit finish or shutdown drain.
    pub finished: u64,
    /// Sessions completed by the idle sweep.
    pub evicted: u64,
}

/// Live counters for status endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStatus {
    /// Currently live sessions across all shards.
    pub active_sessions: usize,
    /// Sessions opened so far.
    pub opened: u64,
    /// Sessions finished so far (explicit finish; excludes evictions).
    pub finished: u64,
    /// Sessions evicted by the idle sweep so far.
    pub evicted: u64,
    /// Sessions errored so far.
    pub errors: usize,
    /// Ingest messages sent to each shard and not yet received by its
    /// worker, counting those whose sender is blocked on a full queue.
    pub queue_depths: Vec<usize>,
}

/// The sharded session engine. Cheap to share behind an `Arc`; ingest
/// methods block (backpressure) when the target shard's queue is full.
pub struct Engine {
    shards: Vec<Shard>,
    config: ServiceConfig,
}

impl Engine {
    /// Start the shard workers. A DPI thread count of 0 becomes an equal
    /// share of the machine per shard, as the batch and sharded drivers
    /// divide it ([`share_threads`]); an explicit count is kept.
    ///
    /// [`share_threads`]: rtc_core::dpi::par::share_threads
    pub fn start(mut config: ServiceConfig) -> Engine {
        assert!(config.shards > 0, "engine needs at least one shard");
        config.study.dpi.threads = rtc_core::dpi::par::share_threads(config.study.dpi.threads, config.shards);
        let obs = &config.study.obs;
        let mut shards = Vec::with_capacity(config.shards);
        for shard_index in 0..config.shards {
            let (sender, receiver) = std::sync::mpsc::sync_channel(config.queue_capacity.max(1));
            let depth = Arc::new(AtomicUsize::new(0));
            let state = Arc::new(Mutex::new(ShardState::default()));
            let label = shard_index.to_string();
            let gauges = ShardGauges {
                active: obs.gauge(
                    "rtc_service_active_sessions",
                    &[("shard", &label)],
                    "live sessions owned by this shard",
                ),
                queue_depth: obs.gauge("rtc_service_queue_depth", &[("shard", &label)], "queued ingest messages"),
                retained: obs.gauge(
                    "rtc_service_retained_bytes",
                    &[("shard", &label)],
                    "bytes retained by live sessions",
                ),
                finished: obs.counter(
                    "rtc_service_sessions_finished_total",
                    &[("shard", &label)],
                    "sessions finished",
                ),
                evictions: obs.counter("rtc_service_evictions_total", &[("shard", &label)], "idle sessions evicted"),
                records: obs.counter(
                    "rtc_service_ingest_records_total",
                    &[("shard", &label)],
                    "pcap records ingested",
                ),
            };
            let worker = ShardWorker {
                depth: Arc::clone(&depth),
                state: Arc::clone(&state),
                study: config.study.clone(),
                gauges,
                idle_timeout: config.idle_timeout,
            };
            let worker = std::thread::Builder::new()
                .name(format!("rtc-shard-{shard_index}"))
                .spawn(move || worker.run(receiver))
                .expect("spawn shard worker");
            shards.push(Shard { sender, depth, state, worker });
        }
        Engine { shards, config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn shard_of(&self, key: &SessionKey) -> &Shard {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Open a session. Validates the manifest's app slug and network
    /// label before admitting it.
    pub fn open(&self, key: SessionKey, manifest: CallManifest) -> std::io::Result<()> {
        rtc_capture::check_names(std::slice::from_ref(&manifest.app), std::slice::from_ref(&manifest.network))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.shard_of(&key).send(ShardMsg::Open { key, manifest })
    }

    /// Feed records to a live session. Blocks when the shard queue is
    /// full (backpressure).
    pub fn push_records(&self, key: &SessionKey, records: Vec<Record>) -> std::io::Result<()> {
        self.shard_of(key).send(ShardMsg::Records { key: key.clone(), records })
    }

    /// Finish a session: runs the remaining pipeline stages and folds the
    /// call into its tenant's aggregation.
    pub fn finish(&self, key: &SessionKey) -> std::io::Result<()> {
        self.shard_of(key).send(ShardMsg::Finish { key: key.clone() })
    }

    /// Ingest one complete call from a pcap byte stream, chunk by chunk:
    /// open → records → finish. The reader is consumed incrementally, so
    /// arbitrarily large bodies never materialize.
    pub fn ingest_stream(
        &self,
        key: SessionKey,
        manifest: CallManifest,
        reader: impl Read,
    ) -> std::io::Result<usize> {
        let mut trace = rtc_pcap::TraceReader::new(reader, self.config.chunk_records)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.open(key.clone(), manifest)?;
        let mut total = 0usize;
        loop {
            match trace.next_chunk() {
                Ok(Some(chunk)) => {
                    total += chunk.len();
                    self.push_records(&key, chunk)?;
                }
                Ok(None) => break,
                Err(e) => {
                    // Mid-stream corruption: the partial session is still
                    // finished so the tenant report accounts for the call.
                    self.finish(&key)?;
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
                }
            }
        }
        self.finish(&key)?;
        Ok(total)
    }

    /// Live engine counters (status endpoint).
    pub fn status(&self) -> EngineStatus {
        let mut status = EngineStatus::default();
        for shard in &self.shards {
            let st = shard.state.lock().expect("shard state poisoned");
            status.active_sessions += st.sessions.len();
            status.opened += st.opened;
            status.finished += st.finished;
            status.evicted += st.evicted;
            status.errors += st.errors.len();
            status.queue_depths.push(shard.depth.load(Ordering::Relaxed));
        }
        status
    }

    /// Point-in-time report of one tenant: its shard folds merged and
    /// sealed, with canonical call order. Live sessions are not included
    /// (they have not finished); a tenant whose sessions all errored still
    /// reports, with empty data and populated `failures`. `None` for a
    /// tenant the engine has not seen.
    pub fn tenant_report(&self, tenant: &str) -> Option<StudyReport> {
        let mut fold: Option<StudyFold> = None;
        let mut errors = Vec::new();
        for shard in &self.shards {
            let st = shard.state.lock().expect("shard state poisoned");
            if let Some(part) = st.tenants.get(tenant) {
                fold.get_or_insert_default().merge(part.clone());
            }
            errors.extend(st.errors.iter().filter(|e| e.key.tenant == tenant).cloned());
        }
        if fold.is_none() && errors.is_empty() {
            return None;
        }
        Some(seal_report(tenant, fold.unwrap_or_default(), &errors))
    }

    /// Every tenant with a report so far (finished or errored sessions),
    /// sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut tenants = BTreeSet::new();
        for shard in &self.shards {
            let st = shard.state.lock().expect("shard state poisoned");
            tenants.extend(st.tenants.keys().cloned());
            tenants.extend(st.errors.iter().map(|e| e.key.tenant.clone()));
        }
        tenants.into_iter().collect()
    }

    /// Stop ingesting, finish every live session, join the workers, and
    /// seal the per-tenant reports. Engine-wide stats fold over the
    /// tenants' folds: stage counters add, the residency high-water mark
    /// takes the max.
    pub fn shutdown(self) -> ServiceSummary {
        // Each shard's only sender drops with the rest of its `Shard`,
        // closing the queue; the worker drains pending messages, finishes
        // remaining live sessions, and exits. Every queue closes before
        // the first join, so the shards drain in parallel.
        let (states, workers): (Vec<_>, Vec<_>) = self.shards.into_iter().map(|s| (s.state, s.worker)).unzip();
        for worker in workers {
            let _ = worker.join();
        }
        let mut tenants: BTreeMap<String, StudyFold> = BTreeMap::new();
        let mut summary = ServiceSummary::default();
        for state in states {
            // The joined worker dropped its handle, so the state is ours.
            let st = Arc::into_inner(state)
                .expect("shard state shared after its worker joined")
                .into_inner()
                .expect("shard state poisoned");
            for (tenant, fold) in st.tenants {
                tenants.entry(tenant).or_default().merge(fold);
            }
            summary.errors.extend(st.errors);
            summary.finished += st.finished;
            summary.evicted += st.evicted;
        }
        for e in &summary.errors {
            tenants.entry(e.key.tenant.clone()).or_default();
        }
        for fold in tenants.values() {
            summary.stats.absorb(&fold.stats);
        }
        summary.reports = tenants
            .into_iter()
            .map(|(tenant, fold)| {
                let report = seal_report(&tenant, fold, &summary.errors);
                (tenant, report)
            })
            .collect();
        summary
    }
}

/// Seal one tenant's merged fold into a renderable [`StudyReport`]. The
/// fold's stats are the tenant's own pipeline counters (not the
/// engine-wide mixture), and the tenant's session errors surface as
/// `failures` carrying the manifest's app/network like the batch driver's.
/// An error that belongs to no call ([`SessionError::belongs_to_call`]) is
/// not an excluded call, so it stays out of `failures`; it is still counted
/// in [`EngineStatus::errors`] and listed in [`ServiceSummary::errors`].
/// The live service has no global input order, so `FailedCall::index` is
/// the position in the tenant's canonically sorted failure list — also
/// shard-scheduling-independent; call-level identity stays available on
/// [`ServiceSummary::errors`].
fn seal_report(tenant: &str, mut fold: StudyFold, errors: &[SessionError]) -> StudyReport {
    let mut failed: Vec<&SessionError> =
        errors.iter().filter(|e| e.key.tenant == tenant && e.belongs_to_call()).collect();
    failed.sort_by(|a, b| (&a.app, &a.network, &a.key.call_id).cmp(&(&b.app, &b.network, &b.key.call_id)));
    fold.failures = failed
        .into_iter()
        .enumerate()
        .map(|(i, e)| rtc_core::FailedCall {
            index: i,
            app: e.app.clone(),
            network: e.network.clone(),
            error: e.error.clone(),
        })
        .collect();
    fold.seal(rtc_obs::Snapshot::default())
}

/// One shard's worker thread: everything it owns besides its receiver.
struct ShardWorker {
    depth: Arc<AtomicUsize>,
    state: Arc<Mutex<ShardState>>,
    study: StudyConfig,
    gauges: ShardGauges,
    idle_timeout: Duration,
}

impl ShardWorker {
    /// Serve the queue until every sender is gone, sweeping idle sessions
    /// at each sweep deadline when an idle timeout is set, then finish
    /// every remaining live session (graceful shutdown drains, it never
    /// discards).
    fn run(self, receiver: Receiver<ShardMsg>) {
        let sweep_period = (self.idle_timeout / 4).max(Duration::from_millis(10));
        let mut next_sweep = Instant::now() + sweep_period;
        loop {
            let received = if self.idle_timeout.is_zero() {
                receiver.recv().map_err(|_| RecvTimeoutError::Disconnected)
            } else {
                receiver.recv_timeout(next_sweep.saturating_duration_since(Instant::now()))
            };
            match received {
                Ok(msg) => {
                    let depth = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
                    self.gauges.queue_depth.set(depth as u64);
                    self.handle(msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if !self.idle_timeout.is_zero() && Instant::now() >= next_sweep {
                self.sweep();
                next_sweep = Instant::now() + sweep_period;
            }
        }
        let mut st = self.state.lock().expect("shard state poisoned");
        let remaining: Vec<SessionKey> = st.sessions.keys().cloned().collect();
        for key in remaining {
            let live = st.sessions.remove(&key).expect("key just listed");
            finish_session(&mut st, key, live, &self.study);
            st.finished += 1;
            self.gauges.finished.add(1);
        }
        self.gauges.active.set(0);
        self.gauges.retained.set(0);
        self.gauges.queue_depth.set(0);
    }

    fn handle(&self, msg: ShardMsg) {
        let gauges = &self.gauges;
        let mut st = self.state.lock().expect("shard state poisoned");
        match msg {
            ShardMsg::Open { key, manifest } => {
                let meta = CallMeta::of(&manifest);
                if st.sessions.contains_key(&key) {
                    st.errors.push(SessionError {
                        key: key.clone(),
                        app: meta.app,
                        network: meta.network,
                        error: "duplicate open for live session".into(),
                    });
                    return;
                }
                let session = CallSession::new(meta, &self.study);
                st.sessions.insert(key, LiveSession { session, last_activity: Instant::now() });
                st.opened += 1;
                gauges.active.set(st.sessions.len() as u64);
            }
            ShardMsg::Records { key, records } => {
                let n = records.len() as u64;
                match st.sessions.get_mut(&key) {
                    None => st.errors.push(SessionError {
                        key,
                        app: String::new(),
                        network: String::new(),
                        error: "records for unknown session".into(),
                    }),
                    Some(live) => {
                        live.last_activity = Instant::now();
                        let outcome = contain(|| live.session.push_records(records));
                        gauges.records.add(n);
                        if let Err(error) = outcome {
                            let meta = live.session.meta().clone();
                            st.sessions.remove(&key);
                            st.errors.push(SessionError { key, app: meta.app, network: meta.network, error });
                            gauges.active.set(st.sessions.len() as u64);
                        }
                    }
                }
                let retained: usize = st.sessions.values().map(|l| l.session.retained_bytes()).sum();
                gauges.retained.set(retained as u64);
            }
            ShardMsg::Finish { key } => {
                match st.sessions.remove(&key) {
                    None => st.errors.push(SessionError {
                        key,
                        app: String::new(),
                        network: String::new(),
                        error: "finish for unknown session".into(),
                    }),
                    Some(live) => {
                        finish_session(&mut st, key, live, &self.study);
                        st.finished += 1;
                        gauges.finished.add(1);
                    }
                }
                gauges.active.set(st.sessions.len() as u64);
            }
        }
    }

    /// Finish every session idle for at least the idle timeout.
    fn sweep(&self) {
        let mut st = self.state.lock().expect("shard state poisoned");
        let now = Instant::now();
        let idle: Vec<SessionKey> = st
            .sessions
            .iter()
            .filter(|(_, l)| now.duration_since(l.last_activity) >= self.idle_timeout)
            .map(|(k, _)| k.clone())
            .collect();
        for key in idle {
            let live = st.sessions.remove(&key).expect("key just listed");
            finish_session(&mut st, key, live, &self.study);
            st.evicted += 1;
            self.gauges.evictions.add(1);
        }
        self.gauges.active.set(st.sessions.len() as u64);
    }
}

fn finish_session(st: &mut ShardState, key: SessionKey, live: LiveSession, study: &StudyConfig) {
    let meta = live.session.meta().clone();
    match contain(|| live.session.finish()) {
        Ok((analysis, call_stats)) => {
            st.tenants.entry(key.tenant).or_default().absorb(analysis, &call_stats, &study.obs)
        }
        Err(error) => st.errors.push(SessionError { key, app: meta.app, network: meta.network, error }),
    }
}
