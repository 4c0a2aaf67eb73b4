//! The wall-clock executor: one OS thread per PE.
//!
//! [`ThreadExecutor`] is the MESSENGERS *daemon* reproduced with modern
//! threads: each PE runs a daemon loop that pops runnable messengers,
//! steps them until they block or leave, and forwards hopping messengers
//! to the destination daemon over a channel. The box holding the
//! messenger's agent variables is what actually moves — code never does,
//! exactly as in the paper ("although the state of the computation is
//! moved on each hop, the code is not moved").
//!
//! This executor does real work in real time (the arithmetic inside each
//! step is what is being measured), so `charge_*` calls are ignored. Use
//! it for benchmarks and to validate on live hardware the orderings the
//! virtual-time executor predicts. The step loop, fault policy and
//! recovery are the shared per-PE core ([`crate::daemon`]); this module
//! schedules it over channels.
//!
//! A watchdog converts silent deadlocks (every messenger parked on an
//! event nobody will signal) into [`RunError::Stalled`].
//!
//! ## Fault tolerance
//!
//! The fault policy and crash rebuild are the core's
//! ([`Recovery`]); what this scheduler adds is the delivery *epoch*. A
//! crash bumps its PE's epoch, and every channel send is stamped with
//! the destination's epoch read under the same lock that registers the
//! checkpoint, so a message racing a crash is either redelivered from
//! its checkpoint (and the stale original discarded on receipt) or
//! delivered normally — never both. Messengers parked on events live in
//! the shared event service, which survives daemon restarts.

use crate::agent::*;
use crate::cluster::{Cluster, ClusterParts};
use crate::daemon::{
    DurableSink, EventTable, Parked, PeCore, PeHooks, PeSched, Recovery, Restart, RunSpan,
    HOP_STATE_BYTES,
};
use crate::durable::{self, DurableCodec};
use crate::error::{panic_text, RunError};
use crate::fault::FaultStats;
use navp_metrics::RunMetrics;
use navp_sim::key::{EventKey, NodeId};
use navp_sim::store::NodeStore;
use navp_trace::recorder::DEFAULT_CAPACITY;
use navp_trace::*;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Trace context a delivery carries, so the *receiving* daemon can
/// record the hop transfer or event wait into its own recorder without
/// any shared trace state. `None` on untraced runs.
enum DeliveryMeta {
    /// An inter-PE hop: where from and when it left (shared anchor clock).
    Hop { from: NodeId, sent_ns: u64 },
    /// A woken event waiter: when it parked (shared anchor clock).
    Wake { parked_ns: u64 },
}

enum DaemonMsg {
    Agent {
        /// Executor-wide messenger id (checkpoint key).
        id: u64,
        /// Destination epoch stamped at send time; stale epochs are
        /// discarded on receipt (the crash already re-delivered them).
        epoch: u64,
        msgr: Box<dyn Messenger>,
        /// What to trace about this delivery (`None` when untraced).
        meta: Option<DeliveryMeta>,
    },
    Shutdown,
}

struct Shared {
    chans: Vec<Sender<DaemonMsg>>,
    live: AtomicUsize,
    progress: AtomicU64,
    steps: AtomicU64,
    hops: AtomicU64,
    /// Payload + fixed state bytes moved over all hops — the numerator
    /// of the effective hop bandwidth the perf baseline reports.
    hop_bytes: AtomicU64,
    next_id: AtomicU64,
    events: Mutex<EventTable<Parked>>,
    failure: Mutex<Option<RunError>>,
    /// Recovery state shared by all daemons, behind one lock so that
    /// epoch reads, checkpoint registration and crash collection
    /// serialize against each other (the exactly-once argument depends
    /// on it). Lock order: recovery → durable → events.
    recovery: Option<Mutex<Recovery>>,
    /// Durable checkpoint sink, `None` unless requested — durable-off
    /// runs perform zero filesystem syscalls.
    durable: Option<Mutex<DurableSink>>,
    /// All daemons anchor their recorders here, so per-PE timestamps
    /// are directly comparable (offsets are zero).
    anchor: Instant,
}

impl Shared {
    fn shutdown_all(&self) {
        for ch in &self.chans {
            // Ignore send failures: a daemon that already exited is fine.
            let _ = ch.send(DaemonMsg::Shutdown);
        }
    }

    fn fail(&self, err: RunError) {
        let mut f = self.failure.lock().unwrap();
        if f.is_none() {
            *f = Some(err);
        }
        drop(f);
        self.shutdown_all();
    }

    /// Deliver messenger `id` to `dst`: checkpoint it into the
    /// destination's failure domain and stamp the destination epoch
    /// under the recovery lock, then send.
    fn deliver(
        &self,
        hooks: &PeHooks,
        dst: NodeId,
        id: u64,
        msgr: Box<dyn Messenger>,
        meta: Option<DeliveryMeta>,
    ) {
        let epoch = self.recovery.as_ref().map_or(0, |rec| {
            let mut r = rec.lock().unwrap();
            r.deliver(id, dst, msgr.as_ref(), hooks);
            r.epoch(dst)
        });
        let _ = self.chans[dst].send(DaemonMsg::Agent {
            id,
            epoch,
            msgr,
            meta,
        });
    }

    /// Spill the whole cluster's consistent cut under the recovery lock.
    /// Every PE's committed store is `initial + journal`, every live
    /// messenger sits in the checkpoint table, and the event service
    /// holds the parked waiters — the same invariants in-memory crash
    /// recovery relies on, so the cut is consistent even while other
    /// daemons are mid-run (their uncommitted writes simply aren't in
    /// it yet).
    fn spill(&self, hooks: &PeHooks) -> Result<(), RunError> {
        let (Some(rec), Some(ds)) = (&self.recovery, &self.durable) else {
            return Ok(());
        };
        let r = rec.lock().unwrap();
        let mut sink = ds.lock().unwrap();
        let section = self.events.lock().unwrap().parked_section()?;
        sink.spill(&r, section, hooks)
    }
}

/// One daemon's side of the core: its store, its local run queue
/// (MESSENGERS' local scheduling queue) and the shared services.
struct ThreadPe<'s> {
    pe: NodeId,
    shared: &'s Shared,
    store: NodeStore,
    local: VecDeque<(u64, Box<dyn Messenger>)>,
}

impl PeSched for ThreadPe<'_> {
    fn store(&mut self) -> &mut NodeStore {
        &mut self.store
    }

    fn recovery<T>(&mut self, f: impl FnOnce(&mut Recovery, &mut NodeStore) -> T) -> Option<T> {
        let store = &mut self.store;
        self.shared
            .recovery
            .as_ref()
            .map(|rec| f(&mut rec.lock().unwrap(), store))
    }

    fn stepped(&mut self, _msgr: &dyn Messenger, _out: &StepOutputs) {
        self.shared.steps.fetch_add(1, Ordering::Relaxed);
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn fresh_id(&mut self) -> u64 {
        self.shared.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn inject(&mut self, id: u64, msgr: Box<dyn Messenger>) {
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.local.push_back((id, msgr));
    }

    fn signal(&mut self, hooks: &mut PeHooks, key: EventKey) -> Result<(), RunError> {
        let woken = self.shared.events.lock().unwrap().signal(key);
        if let Some((id, msgr, pe, parked_ns)) = woken {
            self.shared.progress.fetch_add(1, Ordering::Relaxed);
            hooks.unparked(pe, parked_ns);
            // Waking is a delivery point: the messenger re-enters its
            // PE's failure domain.
            let meta = hooks.tracing().then_some(DeliveryMeta::Wake { parked_ns });
            self.shared.deliver(hooks, pe, id, msgr, meta);
        }
        Ok(())
    }

    fn wait(
        &mut self,
        hooks: &mut PeHooks,
        run: &RunSpan,
        msgr: Box<dyn Messenger>,
        key: EventKey,
    ) -> Result<Option<Box<dyn Messenger>>, RunError> {
        let mut ev = self.shared.events.lock().unwrap();
        if ev.take(key) {
            return Ok(Some(msgr));
        }
        let parked_ns = hooks.park(run);
        ev.park(key, (run.id, msgr, self.pe, parked_ns));
        Ok(None)
    }

    fn hop(
        &mut self,
        hooks: &mut PeHooks,
        id: u64,
        msgr: Box<dyn Messenger>,
        dst: NodeId,
        payload: u64,
        sent_ns: u64,
    ) -> Result<(), RunError> {
        let shared = self.shared;
        shared.hops.fetch_add(1, Ordering::Relaxed);
        shared
            .hop_bytes
            .fetch_add(payload + HOP_STATE_BYTES, Ordering::Relaxed);
        if let Some(rec) = &shared.recovery {
            let waits = rec.lock().unwrap().hop_faults(dst, hooks)?;
            for wait in waits {
                // Keep the watchdog fed through injected latency.
                shared.progress.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_secs_f64(wait.max(0.0)));
            }
        }
        let meta = hooks.tracing().then_some(DeliveryMeta::Hop {
            from: self.pe,
            sent_ns,
        });
        shared.deliver(hooks, dst, id, msgr, meta);
        Ok(())
    }

    fn done(&mut self) {
        if self.shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.shutdown_all();
        }
    }

    fn restarted(&mut self, restart: Restart) {
        self.local.clear();
        for (id, msgr) in restart.redeliver {
            let _ = self.shared.chans[self.pe].send(DaemonMsg::Agent {
                id,
                epoch: restart.epoch,
                msgr,
                meta: None,
            });
        }
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn run_committed(&mut self, hooks: &PeHooks) -> Result<(), RunError> {
        self.shared.spill(hooks)
    }
}

/// Result of a wall-clock run.
pub struct WallReport {
    /// Elapsed wall-clock time of the run (excluding setup/teardown).
    pub wall: Duration,
    /// Post-run node-variable stores (index = PE).
    pub stores: Vec<NodeStore>,
    /// Total messenger steps executed.
    pub steps: u64,
    /// Total inter-PE hops taken.
    pub hops: u64,
    /// Total bytes carried by those hops (agent payload plus the fixed
    /// per-hop state overhead) — divide by `wall` for effective hop
    /// bandwidth.
    pub hop_bytes: u64,
    /// What the fault machinery did (all zero on a fault-free run).
    pub faults: FaultStats,
    /// The no-progress watchdog timeout this run was executed under.
    pub watchdog: Duration,
    /// Merged wall-clock trace (present iff tracing was enabled).
    pub trace: Option<Trace>,
    /// Trace events evicted by the per-PE ring buffers.
    pub trace_dropped: u64,
}
impl std::fmt::Debug for WallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallReport")
            .field("wall", &self.wall)
            .field("steps", &self.steps)
            .field("hops", &self.hops)
            .field("hop_bytes", &self.hop_bytes)
            .field("pes", &self.stores.len())
            .field("faults", &self.faults)
            .field("watchdog", &self.watchdog)
            .finish_non_exhaustive()
    }
}

/// Multithreaded executor: one daemon thread per PE, real migration over
/// channels, wall-clock timing.
pub struct ThreadExecutor {
    watchdog: Duration,
    trace: bool,
    metrics: Option<Arc<RunMetrics>>,
    durable: Option<(PathBuf, Arc<dyn durable::DurableCodec>)>,
}

impl Default for ThreadExecutor {
    fn default() -> Self {
        ThreadExecutor::new()
    }
}

impl ThreadExecutor {
    /// Executor with the default 10 s no-progress watchdog.
    pub fn new() -> ThreadExecutor {
        ThreadExecutor {
            watchdog: Duration::from_secs(10),
            trace: false,
            metrics: None,
            durable: None,
        }
    }

    /// Spill a durable checkpoint of the whole cluster to `dir` at every
    /// run boundary (and once before the daemons start), so the process
    /// can be killed at any point and the computation restored bitwise
    /// with [`crate::durable::read_all_cuts`] +
    /// [`crate::durable::restore_cluster`]. Requires every messenger to
    /// be wire-serializable. Without this builder the executor performs
    /// **zero** filesystem syscalls.
    pub fn with_durable(
        mut self,
        dir: impl Into<PathBuf>,
        codec: Arc<dyn DurableCodec>,
    ) -> ThreadExecutor {
        self.durable = Some((dir.into(), codec));
        self
    }

    /// Override the no-progress watchdog (tests of deadlocking programs
    /// want this short).
    pub fn with_watchdog(mut self, watchdog: Duration) -> ThreadExecutor {
        self.watchdog = watchdog;
        self
    }

    /// The configured no-progress watchdog.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Record a wall-clock trace of the run (off by default). Every
    /// daemon keeps a bounded ring of events; the merged [`Trace`] lands
    /// in [`WallReport::trace`]. Products are unaffected.
    pub fn with_trace(mut self, trace: bool) -> ThreadExecutor {
        self.trace = trace;
        self
    }

    /// Export live metrics into `metrics` during the run (off by
    /// default). The executor updates the shared
    /// [`RunMetrics`](navp_metrics::RunMetrics) instruments as it goes;
    /// the caller keeps its own handle to scrape or snapshot them —
    /// also mid-run, which is the whole point. Products are unaffected.
    pub fn with_metrics(mut self, metrics: Arc<RunMetrics>) -> ThreadExecutor {
        self.metrics = Some(metrics);
        self
    }

    /// Run the cluster to completion on real threads.
    ///
    /// Under a fault plan, an unrecoverable crash returns
    /// [`RunError::PeCrashed`] (checkpointing disabled) or
    /// [`RunError::RecoveryFailed`] (lost state cannot be restored) —
    /// never a hang.
    pub fn run(&self, cluster: Cluster) -> Result<WallReport, RunError> {
        let ClusterParts {
            mut stores,
            injections,
            initial_events,
            fault_plan,
        } = cluster.into_parts();
        let pes = stores.len();
        if injections.is_empty() {
            return Ok(WallReport {
                wall: Duration::ZERO,
                stores,
                steps: 0,
                hops: 0,
                hop_bytes: 0,
                faults: FaultStats::default(),
                watchdog: self.watchdog,
                trace: self.trace.then(Trace::enabled),
                trace_dropped: 0,
            });
        }

        let recovery =
            Recovery::for_cluster(fault_plan, self.durable.is_some(), &mut stores)?.map(Mutex::new);

        let mut senders = Vec::with_capacity(pes);
        let mut receivers: Vec<Receiver<DaemonMsg>> = Vec::with_capacity(pes);
        for _ in 0..pes {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Shared {
            chans: senders,
            live: AtomicUsize::new(injections.len()),
            progress: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            hops: AtomicU64::new(0),
            hop_bytes: AtomicU64::new(0),
            next_id: AtomicU64::new(injections.len() as u64),
            events: Mutex::new(EventTable::default()),
            failure: Mutex::new(None),
            recovery,
            durable: match &self.durable {
                Some((dir, codec)) => Some(Mutex::new(DurableSink::open(
                    dir.clone(),
                    Arc::clone(codec),
                    pes,
                )?)),
                None => None,
            },
            anchor: Instant::now(),
        };
        // Every daemon's hooks, built once: the flight lane lookup takes
        // a process-global lock, so it stays off the per-run path.
        let cores: Vec<PeCore> = (0..pes)
            .map(|pe| {
                let hooks = PeHooks::new(
                    pe,
                    0,
                    self.metrics.clone(),
                    navp_obs::flight().lane(&format!("pe{pe}")),
                    PeRecorder::with_anchor(shared.anchor, self.trace, DEFAULT_CAPACITY),
                    shared.anchor,
                );
                PeCore::new(pe, pes, hooks)
            })
            .collect();

        {
            let mut ev = shared.events.lock().unwrap();
            for key in initial_events {
                ev.bank(key);
            }
        }
        // Queue the time-zero injections before any daemon starts; each
        // is a delivery point, so checkpoint it.
        for (i, (pe, msgr)) in injections.into_iter().enumerate() {
            cores[pe].hooks.inject();
            shared.deliver(&cores[pe].hooks, pe, i as u64, msgr, None);
        }
        // Boundary 0: the injected-but-unrun cluster, so even a kill
        // before the first run restores cleanly.
        shared.spill(&cores[0].hooks)?;

        let start = Instant::now();
        let mut joined = Vec::with_capacity(pes);
        let mut panic_msg: Option<String> = None;

        std::thread::scope(|s| {
            let shared = &shared;
            let handles: Vec<_> = stores
                .into_iter()
                .zip(receivers)
                .zip(cores)
                .enumerate()
                .map(|(pe, ((store, rx), core))| {
                    s.spawn(move || {
                        // Report a messenger panic through the failure
                        // slot immediately, so the main loop stops at its
                        // next tick instead of waiting out the watchdog.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            daemon(pe, store, core, rx, shared)
                        }));
                        match run {
                            Ok(store) => store,
                            Err(p) => {
                                shared.fail(RunError::WorkerPanic(panic_text(&*p)));
                                std::panic::resume_unwind(p);
                            }
                        }
                    })
                })
                .collect();

            // Watchdog: abort when no step/signal happens for `watchdog`.
            let tick = Duration::from_millis(20).min(self.watchdog);
            let mut last = shared.progress.load(Ordering::Relaxed);
            let mut stagnant = Duration::ZERO;
            loop {
                if shared.live.load(Ordering::SeqCst) == 0 {
                    break;
                }
                if shared.failure.lock().unwrap().is_some() {
                    break;
                }
                std::thread::sleep(tick);
                let now = shared.progress.load(Ordering::Relaxed);
                if now == last {
                    stagnant += tick;
                    if stagnant >= self.watchdog {
                        shared.fail(RunError::Stalled {
                            live: shared.live.load(Ordering::SeqCst),
                        });
                        break;
                    }
                } else {
                    last = now;
                    stagnant = Duration::ZERO;
                }
            }

            for h in handles {
                match h.join() {
                    Ok(out) => joined.push(out),
                    Err(p) => panic_msg = Some(panic_text(&*p)),
                }
            }
        });
        let wall = start.elapsed();

        if let Some(msg) = panic_msg {
            return Err(RunError::WorkerPanic(msg));
        }
        if let Some(err) = shared.failure.lock().unwrap().take() {
            return Err(err);
        }
        let faults = shared
            .recovery
            .as_ref()
            .map(|r| r.lock().unwrap().stats)
            .unwrap_or_default();
        let (stores, logs): (Vec<NodeStore>, Vec<PeLog>) = joined.into_iter().unzip();
        let (trace, trace_dropped) = if self.trace {
            let (t, d) = merge_pe_traces(logs);
            (Some(t), d)
        } else {
            (None, 0)
        };
        if let Some(m) = &self.metrics {
            m.trace_dropped.add(trace_dropped);
        }
        Ok(WallReport {
            wall,
            stores,
            steps: shared.steps.load(Ordering::Relaxed),
            hops: shared.hops.load(Ordering::Relaxed),
            hop_bytes: shared.hop_bytes.load(Ordering::Relaxed),
            faults,
            watchdog: self.watchdog,
            trace,
            trace_dropped,
        })
    }
}

/// The daemon loop of one PE: receive deliveries and run them through
/// the core. Owns the PE's node-variable store for the duration of the
/// run and returns it (with its trace log) when the PE shuts down.
fn daemon(
    pe: NodeId,
    store: NodeStore,
    mut core: PeCore,
    rx: Receiver<DaemonMsg>,
    shared: &Shared,
) -> (NodeStore, PeLog) {
    let mut sched = ThreadPe {
        pe,
        shared,
        store,
        local: VecDeque::new(),
    };
    loop {
        core.hooks.queue_depth(sched.local.len());
        // Locally injected messengers run before the channel is polled.
        let (id, msgr) = if let Some(m) = sched.local.pop_front() {
            m
        } else {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(DaemonMsg::Agent {
                    id,
                    epoch,
                    msgr,
                    meta,
                }) => {
                    if let Some(rec) = &shared.recovery {
                        if rec.lock().unwrap().epoch(pe) != epoch {
                            // Sent before a crash of this PE; the crash
                            // re-delivered it from its checkpoint.
                            continue;
                        }
                    }
                    // The receiving side records deliveries: hop
                    // transfers end here, event waits end here.
                    match meta {
                        Some(DeliveryMeta::Hop { from, sent_ns }) => {
                            core.hooks.arrived(from, id, msgr.as_ref(), sent_ns, 0)
                        }
                        Some(DeliveryMeta::Wake { parked_ns }) => {
                            core.hooks.woken(id, msgr.as_ref(), parked_ns)
                        }
                        None => {}
                    }
                    (id, msgr)
                }
                Ok(DaemonMsg::Shutdown) => break,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        if let Err(err) = core.run(&mut sched, id, msgr) {
            shared.fail(err);
        }
    }
    let (events, dropped) = core.hooks.recorder.take();
    // One shared anchor: every daemon's clock already agrees.
    let log = PeLog {
        pe,
        offset_ns: 0,
        events,
        dropped,
    };
    (sched.store, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_sim::key::Key;
    use crate::fault::FaultPlan;
    use crate::script::Script;

    #[test]
    fn simple_hop_and_write() {
        let mut c = Cluster::new(3).unwrap();
        c.store_mut(2).insert(Key::plain("B"), 20.0f64, 8);
        c.inject(
            0,
            Script::new("worker")
                .then(|_| Effect::Hop(2))
                .then(|ctx| {
                    let b = *ctx.store().get::<f64>(Key::plain("B")).unwrap();
                    ctx.store().insert(Key::plain("C"), b + 2.0, 8);
                    Effect::Done
                }),
        );
        let rep = ThreadExecutor::new().run(c).unwrap();
        assert_eq!(rep.stores[2].get::<f64>(Key::plain("C")), Some(&22.0));
        assert_eq!(rep.hops, 1);
        assert!(rep.steps >= 2);
        assert!(!rep.faults.any());
    }

    #[test]
    fn empty_cluster_returns_immediately() {
        let c = Cluster::new(2).unwrap();
        let rep = ThreadExecutor::new().run(c).unwrap();
        assert_eq!(rep.steps, 0);
    }

    #[test]
    fn events_across_pes() {
        let mut c = Cluster::new(2).unwrap();
        // Consumer on PE1 waits; producer hops to PE1 and signals there.
        c.inject(
            1,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("ready")))
                .then(|ctx| {
                    assert!(ctx.store_ref().contains(Key::plain("data")));
                    ctx.store().insert(Key::plain("ok"), true, 1);
                    Effect::Done
                }),
        );
        c.inject(
            0,
            Script::new("producer")
                .then(|_| Effect::Hop(1))
                .then(|ctx| {
                    ctx.store().insert(Key::plain("data"), 1u8, 1);
                    ctx.signal(Key::plain("ready"));
                    Effect::Done
                }),
        );
        let rep = ThreadExecutor::new().run(c).unwrap();
        assert_eq!(rep.stores[1].get::<bool>(Key::plain("ok")), Some(&true));
    }

    #[test]
    fn deadlock_hits_watchdog() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("stuck").then(|_| Effect::WaitEvent(Key::plain("never"))),
        );
        let err = ThreadExecutor::new()
            .with_watchdog(Duration::from_millis(200))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::Stalled { live: 1 }));
    }

    #[test]
    fn bad_hop_reported() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Script::new("wild").then(|_| Effect::Hop(5)));
        assert!(matches!(
            ThreadExecutor::new().run(c),
            Err(RunError::BadHop { dst: 5, .. })
        ));
    }

    #[test]
    fn worker_panic_reported() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Script::new("boom").then(|_| panic!("kapow")));
        match ThreadExecutor::new()
            .with_watchdog(Duration::from_millis(500))
            .run(c)
        {
            Err(RunError::WorkerPanic(msg)) => assert!(msg.contains("kapow")),
            other => panic!("expected panic error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn injection_fanout_counts() {
        // A spawner injecting 10 children, each hopping once then done.
        let mut c = Cluster::new(4).unwrap();
        c.inject(
            0,
            Script::new("spawner").then(|ctx| {
                for i in 0..10usize {
                    ctx.inject(
                        Script::new("child")
                            .then(move |_| Effect::Hop(i % 4))
                            .then(move |cctx| {
                                cctx.store().insert(Key::at("mark", i), i, 8);
                                Effect::Done
                            }),
                    );
                }
                Effect::Done
            }),
        );
        let rep = ThreadExecutor::new().run(c).unwrap();
        let total: usize = rep.stores.iter().map(|s| s.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn many_agents_many_hops_terminate() {
        let mut c = Cluster::new(4).unwrap();
        for a in 0..32usize {
            c.inject(
                a % 4,
                Script::new("tourist").then_each(16, move |k, _| Effect::Hop((a + k) % 4)),
            );
        }
        let rep = ThreadExecutor::new().run(c).unwrap();
        // 16 hop-steps per agent; some are local (free) but all counted as steps.
        assert_eq!(rep.steps, 32 * 17);
    }

    /// A checkpointable messenger that ping-pongs between PEs, bumping a
    /// per-PE visit counter on each arrival.
    #[derive(Clone)]
    struct PingPong {
        hops_left: usize,
    }
    impl Messenger for PingPong {
        fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
            let k = Key::plain("count");
            let cur = ctx.store_ref().get::<u64>(k).copied().unwrap_or(0);
            ctx.store().insert(k, cur + 1, 8);
            if self.hops_left == 0 {
                return Effect::Done;
            }
            self.hops_left -= 1;
            Effect::Hop((ctx.here() + 1) % ctx.num_nodes())
        }
        fn label(&self) -> String {
            "pingpong".to_string()
        }
        fn snapshot(&self) -> Option<Box<dyn Messenger>> {
            Some(Box::new(self.clone()))
        }
    }

    fn counts(rep: &WallReport) -> (u64, u64) {
        let k = Key::plain("count");
        (
            rep.stores[0].get::<u64>(k).copied().unwrap_or(0),
            rep.stores[1].get::<u64>(k).copied().unwrap_or(0),
        )
    }

    #[test]
    fn crash_recovery_preserves_results() {
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(0, PingPong { hops_left: 6 });
            c
        };
        let clean = ThreadExecutor::new().run(build()).unwrap();
        assert_eq!(counts(&clean), (4, 3));

        let faulted = build().with_fault_plan(FaultPlan::new().crash_pe(1, 2));
        let rep = ThreadExecutor::new().run(faulted).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "recovery must be exact");
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.redelivered, 1);
        assert!(rep.faults.replayed_writes >= 1);
    }

    #[test]
    fn crash_without_checkpointing_is_structured_not_a_hang() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c.set_fault_plan(FaultPlan::new().crash_pe(1, 1).without_checkpointing());
        // Generous watchdog: the crash error must preempt it.
        let err = ThreadExecutor::new()
            .with_watchdog(Duration::from_secs(30))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::PeCrashed { pe: 1, run: 1 }));
    }

    #[test]
    fn dropped_and_delayed_hops_still_deliver() {
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(0, PingPong { hops_left: 6 });
            c
        };
        let clean = ThreadExecutor::new().run(build()).unwrap();
        let plan = FaultPlan::new()
            .drop_hop(1, 1)
            .delay_hop(0, 2, 0.01)
            .with_retry(3, Duration::from_millis(1));
        let rep = ThreadExecutor::new()
            .run(build().with_fault_plan(plan))
            .unwrap();
        assert_eq!(counts(&rep), counts(&clean));
        assert_eq!(rep.faults.hops_dropped, 1);
        assert_eq!(rep.faults.send_retries, 1);
        assert_eq!(rep.faults.hops_delayed, 1);
    }

    #[test]
    fn drop_exhaustion_fails_structurally() {
        let mut plan = FaultPlan::new().with_retry(2, Duration::from_millis(1));
        for nth in 1..=3 {
            plan = plan.drop_hop(1, nth);
        }
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c.set_fault_plan(plan);
        assert!(matches!(
            ThreadExecutor::new().run(c).unwrap_err(),
            RunError::RecoveryFailed { pe: 1, .. }
        ));
    }

    #[test]
    fn lost_signal_hits_watchdog_with_stats_path() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("producer").then(|ctx| {
                ctx.signal(Key::plain("go"));
                Effect::Done
            }),
        );
        c.inject(
            0,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("go")))
                .then(|_| Effect::Done),
        );
        c.set_fault_plan(FaultPlan::new().lose_signal(0, 1));
        let err = ThreadExecutor::new()
            .with_watchdog(Duration::from_millis(200))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::Stalled { .. }));
    }

    #[test]
    fn crash_of_snapshotless_messenger_is_recovery_failure() {
        // Scripts carry closures and cannot snapshot: a crash that loses
        // one must surface as RecoveryFailed, not silently corrupt.
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("fragile")
                .then(|_| Effect::Hop(1))
                .then(|_| Effect::Hop(0))
                .then(|_| Effect::Done),
        );
        c.set_fault_plan(FaultPlan::new().crash_pe(1, 1));
        assert!(matches!(
            ThreadExecutor::new().run(c).unwrap_err(),
            RunError::RecoveryFailed { pe: 1, .. }
        ));
    }

    #[test]
    fn tracing_records_all_span_kinds_and_is_off_by_default() {
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(
                1,
                Script::new("consumer")
                    .then(|_| Effect::WaitEvent(Key::plain("ready")))
                    .then(|_| Effect::Done),
            );
            c.inject(
                0,
                Script::new("producer")
                    .then(|_| Effect::Hop(1))
                    .then(|ctx| {
                        ctx.signal(Key::plain("ready"));
                        Effect::Done
                    }),
            );
            c
        };
        let plain = ThreadExecutor::new().run(build()).unwrap();
        assert!(plain.trace.is_none(), "tracing must be off by default");

        let rep = ThreadExecutor::new().with_trace(true).run(build()).unwrap();
        let trace = rep.trace.expect("traced run yields a trace");
        assert_eq!(rep.trace_dropped, 0);
        let mut exec_pes = std::collections::HashSet::new();
        let (mut transfers, mut blocks, mut signals) = (0, 0, 0);
        for e in trace.events() {
            assert!(e.start <= e.end);
            match e.kind {
                TraceKind::Exec { pe } => {
                    exec_pes.insert(pe);
                }
                TraceKind::Transfer { from, to, bytes } => {
                    transfers += 1;
                    assert_eq!((from, to), (0, 1));
                    assert!(bytes >= HOP_STATE_BYTES);
                }
                TraceKind::Block { pe } => {
                    blocks += 1;
                    assert_eq!(pe, 1, "consumer waited on PE1");
                }
                TraceKind::Signal { pe } => {
                    signals += 1;
                    assert_eq!(pe, 1, "producer signalled after hopping to PE1");
                }
                TraceKind::Fault { .. } => panic!("no faults in this run"),
            }
        }
        assert_eq!(exec_pes.len(), 2, "both PEs executed");
        assert_eq!((transfers, signals), (1, 1));
        assert_eq!(blocks, 1, "the consumer's park must surface as a Block");
    }

    #[test]
    fn metrics_reconcile_with_report_counters() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            1,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("ready")))
                .then(|_| Effect::Done),
        );
        c.inject(
            0,
            Script::new("producer")
                .then(|_| Effect::Hop(1))
                .then(|ctx| {
                    ctx.signal(Key::plain("ready"));
                    Effect::Done
                }),
        );
        let m = RunMetrics::new(2);
        let rep = ThreadExecutor::new()
            .with_metrics(Arc::clone(&m))
            .run(c)
            .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.total("navp_hops_total") as u64, rep.hops);
        assert_eq!(snap.total("navp_hop_bytes_total") as u64, rep.hop_bytes);
        assert_eq!(snap.total("navp_steps_total") as u64, rep.steps);
        assert_eq!(snap.total("navp_injections_total") as u64, 2);
        assert_eq!(snap.total("navp_events_waited_total") as u64, 1);
        assert_eq!(snap.total("navp_events_signaled_total") as u64, 1);
        assert!(snap.total("navp_park_wait_ns_count") >= 1.0);
        assert!(m.park_wait_ns.sum() > 0, "the consumer parked for real time");
        navp_metrics::validate_prometheus(&m.registry.render()).expect("valid exposition");
    }

    #[test]
    fn metered_faulted_run_counts_injected_faults() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c.set_fault_plan(
            FaultPlan::new()
                .crash_pe(1, 2)
                .delay_hop(0, 2, 0.005)
                .with_retry(3, Duration::from_millis(1)),
        );
        let m = RunMetrics::new(2);
        let rep = ThreadExecutor::new()
            .with_metrics(Arc::clone(&m))
            .run(c)
            .unwrap();
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.hops_delayed, 1);
        assert_eq!(
            m.faults.get(),
            rep.faults.crashes + rep.faults.hops_delayed,
            "navp_fault_injections_total reconciles with FaultStats"
        );
        assert!(m.checkpoints.get() >= 1, "delivery points checkpointed");
        assert!(m.journal_commits.get() >= 1);
    }

    /// Wire-serializable ping-pong for the durable test.
    #[derive(Clone)]
    struct WirePingPong {
        hops_left: usize,
    }
    impl Messenger for WirePingPong {
        fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
            let k = Key::plain("count");
            let cur = ctx.store_ref().get::<u64>(k).copied().unwrap_or(0);
            ctx.store().insert(k, cur + 1, 8);
            if self.hops_left == 0 {
                return Effect::Done;
            }
            self.hops_left -= 1;
            Effect::Hop((ctx.here() + 1) % ctx.num_nodes())
        }
        fn label(&self) -> String {
            "wirepingpong".to_string()
        }
        fn snapshot(&self) -> Option<Box<dyn Messenger>> {
            Some(Box::new(self.clone()))
        }
        fn wire_snapshot(&self) -> Option<crate::agent::WireSnapshot> {
            let mut w = navp_sim::codec::WireWriter::new();
            w.put_usize(self.hops_left);
            Some(crate::agent::WireSnapshot::new("test.wpp", w.into_vec()))
        }
    }

    struct ToyCodec;
    impl DurableCodec for ToyCodec {
        fn encode_store(&self, store: &NodeStore) -> Result<Vec<u8>, String> {
            let mut keys: Vec<Key> = store.keys().copied().collect();
            keys.sort();
            let mut w = navp_sim::codec::WireWriter::new();
            for k in keys {
                let v = store
                    .get::<u64>(k)
                    .ok_or_else(|| format!("{k} is not a u64"))?;
                w.put_key(&k);
                w.put_u64(*v);
            }
            Ok(w.into_vec())
        }
        fn decode_store(&self, bytes: &[u8]) -> Result<NodeStore, String> {
            let mut r = navp_sim::codec::WireReader::new(bytes);
            let mut s = NodeStore::new();
            while r.remaining() > 0 {
                let k = r.get_key().map_err(|e| e.to_string())?;
                let v = r.get_u64().map_err(|e| e.to_string())?;
                s.insert(k, v, 8);
            }
            Ok(s)
        }
        fn decode_messenger(
            &self,
            snap: &crate::agent::WireSnapshot,
        ) -> Result<Box<dyn Messenger>, String> {
            match snap.tag.as_str() {
                "test.wpp" => {
                    let mut r = navp_sim::codec::WireReader::new(&snap.bytes);
                    Ok(Box::new(WirePingPong {
                        hops_left: r.get_usize().map_err(|e| e.to_string())?,
                    }))
                }
                other => Err(format!("unknown messenger tag {other:?}")),
            }
        }
    }

    #[test]
    fn durable_restore_completes_an_aborted_run_bitwise() {
        let dir = std::env::temp_dir().join(format!("navp-thr-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(0, WirePingPong { hops_left: 6 });
            c
        };
        let clean = ThreadExecutor::new().run(build()).unwrap();

        // Abort the durable run mid-computation (checkpointing off, so
        // the injected crash kills the whole run — the in-process
        // analogue of kill -9), then restore from disk and finish.
        let c = build()
            .with_fault_plan(FaultPlan::new().crash_pe(1, 2).without_checkpointing());
        let err = ThreadExecutor::new()
            .with_durable(&dir, Arc::new(ToyCodec))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::PeCrashed { pe: 1, .. }), "{err}");

        let (_, cuts) = durable::read_all_cuts(&dir).unwrap();
        let restored = durable::restore_cluster(&cuts, &ToyCodec).unwrap();
        let rep = ThreadExecutor::new().run(restored).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "restore must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_is_surfaced_in_report() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Script::new("quick").then(|_| Effect::Done));
        let wd = Duration::from_millis(1234);
        let rep = ThreadExecutor::new().with_watchdog(wd).run(c).unwrap();
        assert_eq!(rep.watchdog, wd);
    }
}
