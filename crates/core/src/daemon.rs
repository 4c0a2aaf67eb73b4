//! The per-PE NavP core every executor drives — MESSENGERS' daemon
//! without its transport. [`PeCore::run`] is the step loop; [`Recovery`]
//! owns the fault plan and every policy reading it (crash rebuild, hop
//! delay/drop/retry budget, lost signals, journal commit, durable cut);
//! [`EventTable`] holds counting events; [`PeHooks`] is the one call per
//! event site into metrics, flight lane and span recorder. An executor
//! implements [`PeSched`] — how a departure travels, where an event key
//! lives, how time is charged — and nothing else. The trait is generic,
//! so the fault-free hot path is statically dispatched.

use crate::agent::{Effect, Messenger, MsgrCtx, StepOutputs};
use crate::durable::{
    self, DurableCodec, DurableCut, DurableError, Manifest, ParkedWaiter, ResidentMsgr,
};
use crate::error::RunError;
use crate::fault::{FaultPlan, FaultStats, FaultTracker, HopFault};
use crate::recovery::{CheckpointTable, WriteJournal};
use navp_metrics::{PeMetrics, RunMetrics};
use navp_obs::{EventKind as ObsKind, Lane};
use navp_sim::key::{EventKey, NodeId};
use navp_sim::store::NodeStore;
use navp_trace::{PeRecorder, TraceKind};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Fixed per-hop state overhead in bytes (thread control block, program
/// counter, daemon bookkeeping) — the paper's "small amount of state data".
pub const HOP_STATE_BYTES: u64 = 256;

/// Flight-recorder `FaultInjected` site codes (the event's `a`
/// operand): which fault mechanism fired.
const FAULT_SITE_DELAY: u64 = 1;
const FAULT_SITE_DROP: u64 = 2;
const FAULT_SITE_CRASH: u64 = 3;
const FAULT_SITE_SIGNAL: u64 = 4;

/// The fault plan a run executes under: the cluster's explicit plan,
/// else one from `NAVP_FAULT_SPEC` (a malformed spec is a loud error,
/// not a silently clean run). Durable mode needs the journal and
/// checkpoint machinery even without faults — the cut it spills *is*
/// that state — so it turns "no plan" into an empty one. `None` means
/// the run carries no fault machinery at all.
pub fn resolve_fault_plan(
    explicit: Option<FaultPlan>,
    durable: bool,
) -> Result<Option<FaultPlan>, RunError> {
    let plan = match explicit {
        Some(p) => Some(p),
        None => FaultPlan::from_env().map_err(|detail| RunError::Transport { detail })?,
    };
    Ok(match plan.filter(|p| !p.is_empty()) {
        None if durable => Some(FaultPlan::new()),
        other => other,
    })
}

/// A crash at a run boundary restarted a PE: its store is rebuilt and
/// these checkpoints must be re-delivered to it.
pub struct Restart {
    /// The PE's delivery epoch after the crash (deliveries stamped with
    /// an older epoch were re-delivered from checkpoints).
    pub epoch: u64,
    /// Re-delivered messengers, ascending id.
    pub redeliver: Vec<(u64, Box<dyn Messenger>)>,
}

/// Runtime state of a [`FaultPlan`] plus the recovery machinery that
/// absorbs it: trigger counters, live checkpoints, per-PE write
/// journals over pristine store images, and delivery epochs.
///
/// Every executor holds one (the simulator in place, the thread
/// executor behind its one recovery mutex, each net PE process for its
/// own PE), so each policy below exists once.
pub struct Recovery {
    tracker: FaultTracker,
    /// The live checkpoint of every messenger in a failure domain.
    pub ckpt: CheckpointTable,
    journals: Vec<WriteJournal>,
    /// Pristine pre-run stores; a crashed PE's store is rebuilt as
    /// `initial + journal replay`.
    initial: Vec<NodeStore>,
    /// Per-PE delivery epoch, bumped on each crash of that PE.
    epochs: Vec<u64>,
    /// Checkpoint and journal at all? On when the plan checkpoints or
    /// the run spills durable cuts.
    journaling: bool,
    /// What the fault machinery did so far.
    pub stats: FaultStats,
}

impl Recovery {
    /// The machinery for an in-process run over `stores`, if its
    /// resolved plan ([`resolve_fault_plan`]) asks for any.
    pub fn for_cluster(
        plan: Option<FaultPlan>,
        durable: bool,
        stores: &mut [NodeStore],
    ) -> Result<Option<Recovery>, RunError> {
        Ok(resolve_fault_plan(plan, durable)?.map(|plan| {
            let mut r = Recovery::new(plan, stores.len(), durable);
            for (pe, s) in stores.iter_mut().enumerate() {
                r.adopt_store(pe, s);
            }
            r
        }))
    }

    /// Machinery for `plan` over a `pes`-PE cluster. `durable` keeps the
    /// journal and checkpoints on even when the plan does not
    /// checkpoint (crashes then still fail the run).
    pub fn new(plan: FaultPlan, pes: usize, durable: bool) -> Recovery {
        let journaling = plan.checkpointing || durable;
        Recovery {
            tracker: FaultTracker::new(plan, pes),
            ckpt: CheckpointTable::new(),
            journals: (0..pes).map(|_| WriteJournal::new()).collect(),
            initial: (0..pes).map(|_| NodeStore::new()).collect(),
            epochs: vec![0; pes],
            journaling,
            stats: FaultStats::default(),
        }
    }

    /// Take PE `pe`'s pristine image and start tracking its writes. The
    /// store is copy-on-write, so the image is a reference bump per
    /// entry, not a deep copy.
    pub fn adopt_store(&mut self, pe: NodeId, store: &mut NodeStore) {
        if self.journaling {
            self.initial[pe] = store.clone();
            store.enable_tracking();
        }
    }

    /// The plan driving this run.
    pub fn plan(&self) -> &FaultPlan {
        self.tracker.plan()
    }

    /// PE `pe`'s current delivery epoch.
    pub fn epoch(&self, pe: NodeId) -> u64 {
        self.epochs[pe]
    }

    /// A delivery point (injection, hop arrival, wake-up): checkpoint
    /// `msgr` into `pe`'s failure domain.
    pub fn deliver(&mut self, id: u64, pe: NodeId, msgr: &dyn Messenger, hooks: &PeHooks) {
        if self.journaling {
            self.ckpt.register(id, pe, msgr);
            hooks.checkpoint(msgr.payload_bytes());
        }
    }

    /// Messenger `id` left every PE's failure domain: it finished, or
    /// parked in the event service, which survives crashes.
    pub fn forget(&mut self, id: u64) {
        self.ckpt.remove(id);
    }

    /// The crash check at a run boundary of PE `pe`. When a crash rule
    /// fires, the PE restarts in place: new epoch, store rebuilt as
    /// pristine image + journal replay, and the last checkpoint of
    /// every messenger in its failure domain handed back for
    /// re-delivery (the run the caller was about to start is among
    /// them). Without checkpointing the crash is
    /// [`RunError::PeCrashed`]; a lost messenger without snapshot
    /// support is [`RunError::RecoveryFailed`].
    pub fn run_boundary(
        &mut self,
        pe: NodeId,
        store: &mut NodeStore,
        hooks: &mut PeHooks,
    ) -> Result<Option<Restart>, RunError> {
        let Some(run) = self.tracker.on_run(pe) else {
            return Ok(None);
        };
        if !self.tracker.plan().checkpointing {
            return Err(RunError::PeCrashed { pe, run });
        }
        self.stats.crashes += 1;
        hooks.fault(FAULT_SITE_CRASH, self.stats.crashes);
        let kind = TraceKind::Fault { pe };
        hooks.recorder.instant(u64::MAX, "crash", kind);
        self.epochs[pe] += 1;
        let mut rebuilt = self.initial[pe].clone();
        self.stats.replayed_writes += self.journals[pe].replay_into(&mut rebuilt);
        rebuilt.enable_tracking();
        *store = rebuilt;
        let mut redeliver = Vec::new();
        for (id, label, snap) in self.ckpt.drain_pe(pe) {
            let Some(snap) = snap else {
                return Err(RunError::RecoveryFailed {
                    pe,
                    reason: format!("messenger {label} does not support snapshots"),
                });
            };
            self.deliver(id, pe, snap.as_ref(), hooks);
            self.stats.redelivered += 1;
            redeliver.push((id, snap));
        }
        Ok(Some(Restart {
            epoch: self.epochs[pe],
            redeliver,
        }))
    }

    /// The hop policy for one delivery arriving at `dst`: each attempt
    /// may be delayed (it then lands after the delay) or dropped (it is
    /// retried after the plan's backoff, a fresh arrival, until the
    /// retry budget runs out). Returns the seconds the delivery sits
    /// out, in order — empty on the fault-free path, which allocates
    /// nothing.
    pub fn hop_faults(&mut self, dst: NodeId, hooks: &PeHooks) -> Result<Vec<f64>, RunError> {
        let mut waits = Vec::new();
        let mut attempts = 0u32;
        loop {
            match self.tracker.on_hop(dst) {
                None => return Ok(waits),
                Some(HopFault::Delay { seconds }) => {
                    self.stats.hops_delayed += 1;
                    hooks.fault(FAULT_SITE_DELAY, (seconds * 1e3) as u64);
                    waits.push(seconds);
                    return Ok(waits);
                }
                Some(HopFault::Drop) => {
                    self.stats.hops_dropped += 1;
                    attempts += 1;
                    hooks.fault(FAULT_SITE_DROP, attempts as u64);
                    if attempts > self.tracker.plan().max_send_retries {
                        return Err(RunError::RecoveryFailed {
                            pe: dst,
                            reason: format!(
                                "hop delivery dropped {attempts} times; retry budget exhausted"
                            ),
                        });
                    }
                    self.stats.send_retries += 1;
                    waits.push(self.tracker.plan().retry_backoff.as_secs_f64());
                }
            }
        }
    }

    /// A messenger on `pe` emitted a signal: `true` when the plan
    /// swallows it.
    pub fn signal_lost(&mut self, pe: NodeId, hooks: &PeHooks) -> bool {
        let lost = self.tracker.on_signal(pe);
        if lost {
            self.stats.signals_lost += 1;
            hooks.fault(FAULT_SITE_SIGNAL, self.stats.signals_lost);
        }
        lost
    }

    /// Run boundary: commit the run's node-store writes to `pe`'s
    /// journal. Atomic with respect to crashes, which fire only at
    /// delivery points.
    pub fn commit_run(&mut self, pe: NodeId, store: &mut NodeStore, hooks: &PeHooks) {
        if self.journaling {
            self.journals[pe].commit_dirty(store);
            hooks.run_metric(|m| m.journal_commits.inc());
        }
    }

    /// PE `pe`'s durable cut: its committed store (pristine image +
    /// journal replay, even while the live store races ahead), the
    /// resident checkpoints it owns, and `events`. Every checkpoint
    /// needs a wire snapshot: durability requires every in-flight type
    /// to be serializable.
    pub fn cut(
        &self,
        pe: NodeId,
        nonce: u64,
        boundary: u64,
        events: EventSection,
        codec: &dyn DurableCodec,
    ) -> Result<DurableCut, DurableError> {
        let mut store = self.initial[pe].clone();
        self.journals[pe].replay_into(&mut store);
        let mut cut = DurableCut::new(pe, self.initial.len(), nonce);
        cut.boundary = boundary;
        cut.store = codec
            .encode_store(&store)
            .map_err(|detail| DurableError::Codec { detail })?;
        for (id, owner, label, snap) in self.ckpt.iter_ordered() {
            if owner != pe {
                continue;
            }
            let snap = snap
                .and_then(|m| m.wire_snapshot())
                .ok_or_else(|| DurableError::Codec {
                    detail: format!("messenger {label} (id {id}) has no wire snapshot"),
                })?;
            cut.residents.push(ResidentMsgr {
                id,
                label: label.to_string(),
                snap,
            });
        }
        (cut.waiters, cut.events) = (events.waiters, events.counts);
        Ok(cut)
    }
}

/// Counting events (MESSENGERS' `signalEvent`/`waitEvent`): each key
/// holds its banked signals and a FIFO of parked waiters of type `W` —
/// a [`Parked`] messenger in memory, a wire snapshot on `navp-pe`.
pub struct EventTable<W> {
    map: HashMap<EventKey, (u64, VecDeque<W>)>,
}

impl<W> Default for EventTable<W> {
    fn default() -> Self {
        EventTable {
            map: HashMap::new(),
        }
    }
}

impl<W> EventTable<W> {
    /// Bank one signal of `key` (initial events).
    pub fn bank(&mut self, key: EventKey) {
        self.map.entry(key).or_default().0 += 1;
    }

    /// Signal `key`: wake the oldest waiter, or bank the count.
    pub fn signal(&mut self, key: EventKey) -> Option<W> {
        let (count, waiters) = self.map.entry(key).or_default();
        let woken = waiters.pop_front();
        if woken.is_none() {
            *count += 1;
        }
        woken
    }

    /// Consume one banked signal of `key`, if any.
    pub fn take(&mut self, key: EventKey) -> bool {
        let (count, _) = self.map.entry(key).or_default();
        if *count == 0 {
            return false;
        }
        *count -= 1;
        true
    }

    /// Park a waiter on `key`.
    pub fn park(&mut self, key: EventKey, waiter: W) {
        self.map.entry(key).or_default().1.push_back(waiter);
    }

    /// Every parked waiter with its key (unordered).
    pub fn waiters(&self) -> impl Iterator<Item = (&EventKey, &W)> + '_ {
        self.map
            .iter()
            .flat_map(|(k, (_, ws))| ws.iter().map(move |w| (k, w)))
    }

    /// The durable cut's event section: banked counts and parked
    /// waiters in sorted-key order, waiters in park order within a key.
    /// `parked` serializes one waiter.
    pub fn durable_section(
        &self,
        mut parked: impl FnMut(EventKey, &W) -> Result<ParkedWaiter, RunError>,
    ) -> Result<EventSection, RunError> {
        let mut keys: Vec<&EventKey> = self.map.keys().collect();
        keys.sort();
        let mut section = EventSection::default();
        for key in keys {
            let (count, waiters) = &self.map[key];
            if *count > 0 {
                section.counts.push((*key, *count));
            }
            for w in waiters {
                section.waiters.push(parked(*key, w)?);
            }
        }
        Ok(section)
    }
}

/// A parked messenger held in memory: id, box, home PE, park stamp
/// (the thread executor's wall clock, the simulator's virtual time).
pub type Parked = (u64, Box<dyn Messenger>, NodeId, u64);

impl EventTable<Parked> {
    /// The event section of in-memory waiters, which must each be
    /// wire-serializable.
    pub fn parked_section(&self) -> Result<EventSection, RunError> {
        self.durable_section(|key, (id, msgr, origin, _)| {
            let snap = msgr
                .wire_snapshot()
                .ok_or_else(|| RunError::NotSerializable {
                    agent: msgr.label(),
                })?;
            Ok(ParkedWaiter {
                id: *id,
                origin: *origin as u32,
                key,
                snap,
            })
        })
    }
}

/// Banked counts and parked waiters, as a durable cut stores them.
#[derive(Default)]
pub struct EventSection {
    /// Parked waiters.
    pub waiters: Vec<ParkedWaiter>,
    /// Banked counts per key.
    pub counts: Vec<(EventKey, u64)>,
}

/// Whole-cluster durable spill for the in-process executors: the
/// directory, codec, session nonce and monotone boundary counter.
pub struct DurableSink {
    dir: PathBuf,
    codec: Arc<dyn DurableCodec>,
    nonce: u64,
    boundary: u64,
}

fn durable_err(e: durable::DurableError) -> RunError {
    RunError::transport(e.to_string())
}

impl DurableSink {
    /// Start a durable session in `dir`: write a fresh manifest.
    pub fn open(
        dir: PathBuf,
        codec: Arc<dyn DurableCodec>,
        pes: usize,
    ) -> Result<DurableSink, RunError> {
        let nonce = durable::fresh_nonce();
        durable::write_manifest(&dir, &Manifest { pes, nonce }).map_err(durable_err)?;
        Ok(DurableSink {
            dir,
            codec,
            nonce,
            boundary: 0,
        })
    }

    /// Spill every PE's cut: committed store and resident checkpoints
    /// per PE, the event section in PE 0's cut (restore replays every
    /// cut's event section, and each waiter records its own origin).
    /// Called where the recovery invariants make the cut consistent.
    pub fn spill(
        &mut self,
        rec: &Recovery,
        mut events: EventSection,
        hooks: &PeHooks,
    ) -> Result<(), RunError> {
        self.boundary += 1;
        for pe in 0..rec.initial.len() {
            let events = std::mem::take(&mut events);
            let cut = rec
                .cut(pe, self.nonce, self.boundary, events, self.codec.as_ref())
                .map_err(durable_err)?;
            let bytes = durable::write_cut(&self.dir, &cut).map_err(durable_err)?;
            hooks.durable_flush(self.boundary, bytes);
        }
        Ok(())
    }
}

/// One messenger run as the span recorder sees it: the id, the label
/// (only computed when tracing) and the delivery stamp.
pub struct RunSpan {
    /// The running messenger's id.
    pub id: u64,
    label: String,
    start: u64,
}

/// The per-PE instrumentation bundle: one call per event site fans out
/// to this PE's slot of the run metrics, its flight-recorder lane and
/// its wall-clock span recorder (disabled on the simulator, whose spans
/// are virtual). Each part costs one branch when off.
pub struct PeHooks {
    pe: NodeId,
    run: u64,
    metrics: Option<Arc<RunMetrics>>,
    flight: Arc<Lane>,
    /// The span recorder.
    pub recorder: PeRecorder,
    /// Park-time clock for metered but untraced runs.
    anchor: Instant,
}

impl PeHooks {
    /// Hooks for PE `pe` of run `run`; `anchor` is the recorder's.
    pub fn new(
        pe: NodeId,
        run: u64,
        metrics: Option<Arc<RunMetrics>>,
        flight: Arc<Lane>,
        recorder: PeRecorder,
        anchor: Instant,
    ) -> PeHooks {
        PeHooks {
            pe,
            run,
            metrics,
            flight,
            recorder,
            anchor,
        }
    }

    fn run_metric(&self, f: impl FnOnce(&RunMetrics)) {
        if let Some(m) = &self.metrics {
            f(m);
        }
    }

    fn pe_metric(&self, pe: NodeId, f: impl FnOnce(&PeMetrics)) {
        if let Some(p) = self.metrics.as_deref().and_then(|m| m.pe(pe)) {
            f(p);
        }
    }

    /// Record a flight event stamped with this PE and run.
    pub fn flight(&self, kind: ObsKind, a: u64, b: u64) {
        self.flight.record(kind, self.pe as u32, self.run, a, b);
    }

    /// Is the span recorder on?
    pub fn tracing(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Park/hop stamp: the recorder's clock when tracing (so spans and
    /// metrics agree), else the anchor when metered, else 0.
    pub fn clock_ns(&self) -> u64 {
        if self.recorder.is_enabled() {
            self.recorder.now_ns()
        } else if self.metrics.is_some() {
            self.anchor.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn start(&self, id: u64, msgr: &dyn Messenger) -> RunSpan {
        let label = if self.tracing() {
            msgr.label()
        } else {
            String::new()
        };
        let start = self.recorder.now_ns();
        RunSpan { id, label, start }
    }

    /// A messenger was injected here.
    pub fn inject(&self) {
        self.pe_metric(self.pe, |p| p.injections.inc());
    }

    fn checkpoint(&self, bytes: u64) {
        self.run_metric(|m| {
            m.checkpoints.inc();
            m.checkpoint_bytes.add(bytes);
        });
    }

    fn signal(&mut self, run: &RunSpan) {
        self.pe_metric(self.pe, |p| p.signals.inc());
        self.flight(ObsKind::Signal, run.id, 0);
        let kind = TraceKind::Signal { pe: self.pe };
        self.recorder.instant(run.id, &run.label, kind);
    }

    fn hop_send(&self, dst: NodeId, payload: u64) {
        let bytes = payload + HOP_STATE_BYTES;
        self.pe_metric(self.pe, |p| {
            p.hops.inc();
            p.hop_bytes.add(bytes);
        });
        self.run_metric(|m| m.hop_payload_bytes.observe(payload));
        self.flight(ObsKind::HopSend, dst as u64, bytes);
    }

    /// The run departs: close its Exec span; returns the stamp.
    fn depart(&mut self, run: &RunSpan) -> u64 {
        let now = self.clock_ns();
        let kind = TraceKind::Exec { pe: self.pe };
        self.recorder
            .record(run.start, now, run.id, &run.label, kind);
        now
    }

    /// The run parks on an event: count the wait, depart, return the stamp.
    pub fn park(&mut self, run: &RunSpan) -> u64 {
        self.pe_metric(self.pe, |p| p.waits.inc());
        self.depart(run)
    }

    /// A waiter parked on PE `pe` for `ns` nanoseconds.
    pub fn park_time(&self, pe: NodeId, ns: u64) {
        self.pe_metric(pe, |p| p.park_ns.add(ns));
        self.run_metric(|m| m.park_wait_ns.observe(ns));
    }

    /// A waiter of PE `pe` parked at `parked_ns` (0: unstamped) wakes now.
    pub fn unparked(&self, pe: NodeId, parked_ns: u64) {
        if parked_ns > 0 && self.metrics.is_some() {
            self.park_time(pe, self.clock_ns().saturating_sub(parked_ns));
        }
    }

    /// A woken waiter arrives here: record its Block span and park time.
    pub fn woken(&mut self, id: u64, msgr: &dyn Messenger, parked_ns: u64) {
        if self.tracing() {
            let kind = TraceKind::Block { pe: self.pe };
            let now = self.recorder.now_ns();
            self.recorder
                .record(parked_ns, now, id, &msgr.label(), kind);
        }
        self.unparked(self.pe, parked_ns);
    }

    /// A hop arrives: its Transfer span runs `sent_ns`..`end_ns` (0: now).
    pub fn arrived(
        &mut self,
        from: NodeId,
        id: u64,
        msgr: &dyn Messenger,
        sent_ns: u64,
        end_ns: u64,
    ) {
        if self.tracing() {
            let bytes = msgr.payload_bytes() + HOP_STATE_BYTES;
            let kind = TraceKind::Transfer {
                from,
                to: self.pe,
                bytes,
            };
            let end = if end_ns == 0 {
                self.recorder.now_ns()
            } else {
                end_ns
            };
            self.recorder.record(sent_ns, end, id, &msgr.label(), kind);
        }
    }

    fn fault(&self, site: u64, detail: u64) {
        self.run_metric(|m| m.faults.inc());
        self.flight(ObsKind::FaultInjected, site, detail);
    }

    /// A durable cut of `bytes` was written at `boundary`.
    pub fn durable_flush(&self, boundary: u64, bytes: u64) {
        self.run_metric(|m| {
            m.durable_flushes.inc();
            m.durable_bytes.add(bytes);
        });
        self.flight(ObsKind::CheckpointCut, boundary, bytes);
    }

    /// `n` messengers are queued on this PE.
    pub fn queue_depth(&self, n: usize) {
        self.pe_metric(self.pe, |p| p.queue_depth.set(n as i64));
    }
}

/// What an executor supplies to the per-PE core: where the store and
/// the recovery state live, how time is charged, how a departure
/// travels and where an event key lives. DESIGN.md §4 tabulates the
/// sim, thread and net implementations.
pub trait PeSched {
    /// The PE's node store.
    fn store(&mut self) -> &mut NodeStore;

    /// Run `f` on the recovery state and the store; `None` when the run
    /// carries no fault machinery.
    fn recovery<T>(&mut self, f: impl FnOnce(&mut Recovery, &mut NodeStore) -> T) -> Option<T>;

    /// A step of `msgr` finished with outputs `out`.
    fn stepped(&mut self, msgr: &dyn Messenger, out: &StepOutputs);

    /// A fresh id for a messenger injected on this PE.
    fn fresh_id(&mut self) -> u64;

    /// Queue a (checkpointed) injected messenger on this PE.
    fn inject(&mut self, id: u64, msgr: Box<dyn Messenger>);

    /// Hand a signal of `key` to the event service.
    fn signal(&mut self, hooks: &mut PeHooks, key: EventKey) -> Result<(), RunError>;

    /// The run waits on `key`: consume a banked signal and hand the
    /// messenger back (`Some`, the run continues), or park it (`None`)
    /// after stamping the park with [`PeHooks::park`].
    fn wait(
        &mut self,
        hooks: &mut PeHooks,
        run: &RunSpan,
        msgr: Box<dyn Messenger>,
        key: EventKey,
    ) -> Result<Option<Box<dyn Messenger>>, RunError>;

    /// The run hops to `dst` carrying `payload` agent bytes; `sent_ns`
    /// is the departure stamp.
    fn hop(
        &mut self,
        hooks: &mut PeHooks,
        id: u64,
        msgr: Box<dyn Messenger>,
        dst: NodeId,
        payload: u64,
        sent_ns: u64,
    ) -> Result<(), RunError>;

    /// The run's messenger finished.
    fn done(&mut self);

    /// A crash restarted this PE: re-deliver `restart`'s messengers.
    fn restarted(&mut self, restart: Restart);

    /// The run's writes are committed (durable spill point).
    fn run_committed(&mut self, _hooks: &PeHooks) -> Result<(), RunError> {
        Ok(())
    }
}

/// One PE of the NavP runtime: its identity, hooks and step buffers.
pub struct PeCore {
    pe: NodeId,
    pes: usize,
    /// This PE's instrumentation bundle.
    pub hooks: PeHooks,
    out: StepOutputs,
}

impl PeCore {
    /// The core of PE `pe` in a `pes`-PE cluster.
    pub fn new(pe: NodeId, pes: usize, hooks: PeHooks) -> PeCore {
        PeCore {
            pe,
            pes,
            hooks,
            out: StepOutputs::default(),
        }
    }

    /// Run one delivered messenger until it leaves the PE (hop), parks
    /// (wait) or finishes. The MESSENGERS daemon is non-preemptive:
    /// self-hops and waits on banked events continue inline. The
    /// delivery is a run boundary — the only place a fault plan may
    /// crash the PE — and the run's writes are committed when it ends.
    pub fn run<S: PeSched>(
        &mut self,
        sched: &mut S,
        id: u64,
        mut msgr: Box<dyn Messenger>,
    ) -> Result<(), RunError> {
        let (pe, pes) = (self.pe, self.pes);
        let hooks = &mut self.hooks;
        let restart = sched
            .recovery(|r, store| r.run_boundary(pe, store, hooks))
            .transpose()?
            .flatten();
        if let Some(restart) = restart {
            sched.restarted(restart);
            return Ok(());
        }
        let run = hooks.start(id, msgr.as_ref());
        let out = &mut self.out;
        loop {
            out.clear();
            let effect = msgr.step(&mut MsgrCtx::new(pe, pes, sched.store(), out));
            hooks.pe_metric(pe, |p| p.steps.inc());
            sched.stepped(msgr.as_ref(), out);
            for inj in out.injections.drain(..) {
                let nid = sched.fresh_id();
                sched.recovery(|r, _| r.deliver(nid, pe, inj.as_ref(), hooks));
                hooks.inject();
                sched.inject(nid, inj);
            }
            for key in out.signals.drain(..) {
                if sched.recovery(|r, _| r.signal_lost(pe, hooks)) == Some(true) {
                    continue;
                }
                hooks.signal(&run);
                sched.signal(hooks, key)?;
            }
            match effect {
                Effect::Hop(dst) if dst >= pes => {
                    return Err(RunError::BadHop {
                        agent: msgr.label(),
                        dst,
                        pes,
                    });
                }
                Effect::Hop(dst) if dst == pe => continue,
                Effect::Hop(dst) => {
                    let payload = msgr.payload_bytes();
                    hooks.hop_send(dst, payload);
                    let sent_ns = hooks.depart(&run);
                    sched.hop(hooks, id, msgr, dst, payload, sent_ns)?;
                    break;
                }
                Effect::WaitEvent(key) => match sched.wait(hooks, &run, msgr, key)? {
                    Some(m) => msgr = m,
                    None => {
                        sched.recovery(|r, _| r.forget(id));
                        break;
                    }
                },
                Effect::Done => {
                    hooks.depart(&run);
                    sched.recovery(|r, _| r.forget(id));
                    sched.done();
                    break;
                }
            }
        }
        sched.recovery(|r, store| r.commit_run(pe, store, hooks));
        sched.run_committed(hooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_sim::key::Key;

    #[test]
    fn event_table_banks_wakes_and_sections_in_key_order() {
        let mut t: EventTable<u64> = EventTable::default();
        t.bank(Key::plain("b"));
        t.park(Key::plain("a"), 7);
        t.park(Key::plain("a"), 8);
        assert!(t.take(Key::plain("b")));
        assert!(!t.take(Key::plain("b")));
        assert_eq!(t.signal(Key::plain("a")), Some(7));
        assert_eq!(t.signal(Key::plain("c")), None, "no waiter: banked");
        let section = t
            .durable_section(|key, &w| {
                Ok(ParkedWaiter {
                    id: w,
                    origin: 0,
                    key,
                    snap: crate::agent::WireSnapshot::new("t", Vec::new()),
                })
            })
            .unwrap();
        assert_eq!(section.counts, vec![(Key::plain("c"), 1)]);
        assert_eq!(section.waiters.len(), 1);
        assert_eq!(section.waiters[0].id, 8);
    }

    #[test]
    fn drop_budget_and_delay_policy() {
        let plan = FaultPlan::new()
            .drop_hop(1, 1)
            .drop_hop(1, 2)
            .delay_hop(1, 3, 0.25)
            .with_retry(2, std::time::Duration::from_millis(4));
        let mut r = Recovery::new(plan, 2, false);
        let hooks = PeHooks::new(
            0,
            0,
            None,
            navp_obs::flight().lane("daemon-test"),
            PeRecorder::disabled(),
            Instant::now(),
        );
        assert_eq!(r.hop_faults(1, &hooks).unwrap(), vec![0.004, 0.004, 0.25]);
        assert_eq!(r.hop_faults(1, &hooks).unwrap(), Vec::<f64>::new());
        assert_eq!(
            (
                r.stats.hops_dropped,
                r.stats.send_retries,
                r.stats.hops_delayed
            ),
            (2, 2, 1)
        );
        let mut exhausted = Recovery::new(
            FaultPlan::new()
                .drop_hop(0, 1)
                .drop_hop(0, 2)
                .with_retry(1, std::time::Duration::ZERO),
            1,
            false,
        );
        assert!(matches!(
            exhausted.hop_faults(0, &hooks),
            Err(RunError::RecoveryFailed { pe: 0, .. })
        ));
    }
}
