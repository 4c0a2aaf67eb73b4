//! The deterministic virtual-time executor.
//!
//! [`SimExecutor`] runs a [`Cluster`] of messengers under the
//! [`navp_sim`] machine model as a discrete-event simulation:
//!
//! * each PE's CPU runs one messenger step at a time (steps queue behind
//!   each other, so compute contention is modeled);
//! * a hop serializes on the sender's NIC, then takes
//!   `latency + payload/bandwidth` to arrive — this is the paper's
//!   "cost of a hop() is the cost of moving the agent variables plus a
//!   small amount of state data";
//! * paging time is charged when a PE's resident node variables (plus
//!   visiting agent payloads) exceed physical memory;
//! * events with equal timestamps fire in scheduling order, so a given
//!   configuration replays **bit-identically** — the property the
//!   determinism tests pin down with trace fingerprints.
//!
//! The step loop, fault policy and recovery are the shared per-PE core
//! ([`crate::daemon`]); this module is its virtual-time scheduler.
//!
//! The result is a [`SimReport`]: virtual makespan, the post-run stores
//! (to extract the product matrix), and optionally a full [`Trace`].

use crate::agent::*;
use crate::cluster::{Cluster, ClusterParts};
pub use crate::daemon::HOP_STATE_BYTES;
use crate::daemon::{
    DurableSink, EventTable, Parked, PeCore, PeHooks, PeSched, Recovery, Restart, RunSpan,
};
use crate::durable::DurableCodec;
use crate::error::RunError;
use crate::fault::FaultStats;
use navp_metrics::RunMetrics;
use navp_sim::key::{EventKey, NodeId};
use navp_sim::memory::MemoryModel;
use navp_sim::store::NodeStore;
use navp_sim::trace::{Trace, TraceEvent, TraceKind};
use navp_sim::{CostModel, EventQueue, PeResources, VTime};
use navp_trace::PeRecorder;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct AgentSlot {
    msgr: Option<Box<dyn Messenger>>,
    pe: NodeId,
    label: String,
    /// Delivery generation: bumped when a crash re-delivers this agent
    /// from a checkpoint, so queue entries from before the crash are
    /// recognized as stale and discarded.
    gen: u64,
}

/// Result of a virtual-time run.
pub struct SimReport {
    /// Virtual time at which the last messenger finished.
    pub makespan: VTime,
    /// Post-run node-variable stores (index = PE).
    pub stores: Vec<NodeStore>,
    /// Execution trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Total messenger steps executed.
    pub steps: u64,
    /// Total inter-PE hops taken.
    pub hops: u64,
    /// Total bytes carried across PEs by hops.
    pub hop_bytes: u64,
    /// What the fault machinery did (all zero on a fault-free run).
    pub faults: FaultStats,
}

impl std::fmt::Debug for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimReport")
            .field("makespan", &self.makespan)
            .field("steps", &self.steps)
            .field("hops", &self.hops)
            .field("hop_bytes", &self.hop_bytes)
            .field("pes", &self.stores.len())
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

/// Deterministic discrete-event executor for NavP programs.
pub struct SimExecutor {
    cost: CostModel,
    tracing: bool,
    metrics: Option<Arc<RunMetrics>>,
    durable: Option<(PathBuf, Arc<dyn DurableCodec>)>,
}

/// The whole simulated cluster, scheduled on one virtual clock. While a
/// run executes, `pe`/`aid`/`t` name the PE, the running agent and the
/// time its next step may start (the end of its last one).
struct SimSched<'c> {
    cost: &'c CostModel,
    pe: NodeId,
    aid: usize,
    t: VTime,
    stores: Vec<NodeStore>,
    res: Vec<PeResources>,
    // Queue payloads carry the agent's delivery generation so
    // deliveries scheduled before a crash are discarded as stale.
    queue: EventQueue<(usize, u64)>,
    agents: Vec<AgentSlot>,
    /// Parked agents, stamped with the virtual time they parked at.
    events: EventTable<Parked>,
    trace: Trace,
    fm: Option<Recovery>,
    ds: Option<DurableSink>,
    live: usize,
    makespan: VTime,
    steps: u64,
    hops: u64,
    hop_bytes: u64,
}

impl SimSched<'_> {
    fn trace(&mut self, start: VTime, end: VTime, kind: TraceKind) {
        let label = self.agents[self.aid].label.clone();
        self.trace.push(TraceEvent {
            start,
            end,
            actor: self.aid as u64,
            label,
            kind,
        });
    }

    fn admit(&mut self, msgr: Box<dyn Messenger>, at: VTime) {
        let label = msgr.label();
        self.agents.push(AgentSlot {
            msgr: Some(msgr),
            pe: self.pe,
            label,
            gen: 0,
        });
        self.live += 1;
        self.queue.schedule(at, (self.agents.len() - 1, 0));
    }

    fn spill(&mut self, hooks: &PeHooks) -> Result<(), RunError> {
        match (&mut self.ds, &self.fm) {
            (Some(ds), Some(fm)) => ds.spill(fm, self.events.parked_section()?, hooks),
            _ => Ok(()),
        }
    }
}

impl PeSched for SimSched<'_> {
    fn store(&mut self) -> &mut NodeStore {
        &mut self.stores[self.pe]
    }

    fn recovery<T>(&mut self, f: impl FnOnce(&mut Recovery, &mut NodeStore) -> T) -> Option<T> {
        let store = &mut self.stores[self.pe];
        self.fm.as_mut().map(|r| f(r, store))
    }

    fn stepped(&mut self, msgr: &dyn Messenger, out: &StepOutputs) {
        self.steps += 1;
        // Duration: modeled compute + daemon overhead + paging.
        let cost = self.cost;
        let mut dur = cost.compute_time(out.flops, out.factor.max(1.0))
            + cost.overhead()
            + VTime::from_secs_f64(out.extra_seconds);
        if out.touched_bytes > 0 {
            let mut mem = MemoryModel::new();
            mem.grow(self.stores[self.pe].total_bytes() + msgr.payload_bytes());
            let fault = mem.fault_time(out.touched_bytes, cost);
            if fault > VTime::ZERO {
                dur += fault;
                let pe = self.pe;
                self.trace(self.t, self.t + fault, TraceKind::Fault { pe });
            }
        }
        let (start, end) = self.res[self.pe].run(self.t, dur);
        self.makespan = self.makespan.max(end);
        let pe = self.pe;
        self.trace(start, end, TraceKind::Exec { pe });
        // Injections, wake-ups and departures happen when the step
        // completes; a continuing run's next step starts there too.
        self.t = end;
    }

    fn fresh_id(&mut self) -> u64 {
        self.agents.len() as u64
    }

    fn inject(&mut self, _id: u64, msgr: Box<dyn Messenger>) {
        self.admit(msgr, self.t);
    }

    fn signal(&mut self, hooks: &mut PeHooks, key: EventKey) -> Result<(), RunError> {
        let (end, pe) = (self.t, self.pe);
        self.trace(end, end, TraceKind::Signal { pe });
        if let Some((id, msgr, home, parked_at)) = self.events.signal(key) {
            // Waking a parked messenger is a delivery point: it re-enters
            // its PE's failure domain.
            if let Some(fm) = &mut self.fm {
                fm.deliver(id, home, msgr.as_ref(), hooks);
            }
            // Park durations are virtual on this executor.
            let parked = end.as_secs_f64() - VTime(parked_at).as_secs_f64();
            hooks.park_time(home, (parked.max(0.0) * 1e9) as u64);
            let a = &mut self.agents[id as usize];
            a.msgr = Some(msgr);
            self.queue.schedule(end, (id as usize, a.gen));
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
        if self.events.take(key) {
            return Ok(Some(msgr));
        }
        hooks.park(run);
        let (end, pe) = (self.t, self.pe);
        self.trace(end, end, TraceKind::Block { pe });
        self.events.park(key, (run.id, msgr, pe, end.0));
        Ok(None)
    }

    fn hop(
        &mut self,
        hooks: &mut PeHooks,
        id: u64,
        msgr: Box<dyn Messenger>,
        dst: NodeId,
        payload: u64,
        _sent_ns: u64,
    ) -> Result<(), RunError> {
        let (end, pe, aid) = (self.t, self.pe, self.aid);
        let bytes = payload + HOP_STATE_BYTES;
        let (_departed, mut arrival) = self.res[pe].send(end, bytes, self.cost);
        if let Some(fm) = &mut self.fm {
            for wait in fm.hop_faults(dst, hooks)? {
                arrival += VTime::from_secs_f64(wait);
            }
            // The hop is a delivery point: checkpoint the post-run state
            // into the destination's failure domain.
            fm.deliver(id, dst, msgr.as_ref(), hooks);
        }
        self.trace(
            end,
            arrival,
            TraceKind::Transfer {
                from: pe,
                to: dst,
                bytes,
            },
        );
        self.hops += 1;
        self.hop_bytes += bytes;
        let a = &mut self.agents[aid];
        a.pe = dst;
        a.msgr = Some(msgr);
        self.makespan = self.makespan.max(arrival);
        self.queue.schedule(arrival, (aid, a.gen));
        Ok(())
    }

    fn done(&mut self) {
        self.live -= 1;
    }

    fn restarted(&mut self, restart: Restart) {
        let fm = self.fm.as_ref().expect("only recovery restarts a PE");
        let resume = self.t + VTime::from_secs_f64(fm.plan().recovery_seconds);
        for (id, snap) in restart.redeliver {
            let a = &mut self.agents[id as usize];
            a.gen += 1;
            a.msgr = Some(snap);
            self.queue.schedule(resume, (id as usize, a.gen));
        }
        self.makespan = self.makespan.max(resume);
    }

    fn run_committed(&mut self, hooks: &PeHooks) -> Result<(), RunError> {
        self.spill(hooks)
    }
}

impl SimExecutor {
    /// An executor over the given machine model, tracing disabled.
    pub fn new(cost: CostModel) -> SimExecutor {
        SimExecutor {
            cost,
            tracing: false,
            metrics: None,
            durable: None,
        }
    }

    /// Spill a durable checkpoint of the whole cluster to `dir` at every
    /// run boundary (and once before the first run), so the process can
    /// be killed at any point and the computation restored bitwise with
    /// [`crate::durable::read_all_cuts`] + [`crate::durable::restore_cluster`].
    ///
    /// Requires every messenger to be wire-serializable
    /// ([`Messenger::wire_snapshot`]); otherwise the run fails with
    /// [`RunError::NotSerializable`]. Without this builder the executor
    /// performs **zero** filesystem syscalls.
    pub fn with_durable(
        mut self,
        dir: impl Into<PathBuf>,
        codec: Arc<dyn DurableCodec>,
    ) -> SimExecutor {
        self.durable = Some((dir.into(), codec));
        self
    }

    /// Enable full tracing (needed for space-time diagrams; costs memory
    /// proportional to the number of steps).
    pub fn with_trace(mut self) -> SimExecutor {
        self.tracing = true;
        self
    }

    /// Export live metrics into `metrics` during the run (off by
    /// default). Counters mirror the real executors'; durations (park
    /// time) are *virtual* nanoseconds, because that is the clock this
    /// executor runs on.
    pub fn with_metrics(mut self, metrics: Arc<RunMetrics>) -> SimExecutor {
        self.metrics = Some(metrics);
        self
    }

    /// Run the cluster to completion.
    ///
    /// Returns [`RunError::Deadlock`] when messengers remain but no event
    /// can ever fire, and [`RunError::BadHop`] on a hop outside the
    /// cluster. Under a fault plan, an unrecoverable crash returns
    /// [`RunError::PeCrashed`] (checkpointing disabled) or
    /// [`RunError::RecoveryFailed`] (lost state cannot be restored).
    pub fn run(&self, cluster: Cluster) -> Result<SimReport, RunError> {
        let ClusterParts {
            mut stores,
            injections,
            initial_events,
            fault_plan,
        } = cluster.into_parts();
        let pes = stores.len();
        let fm = Recovery::for_cluster(fault_plan, self.durable.is_some(), &mut stores)?;
        // One flight-recorder lane for the whole simulated mesh. Events
        // are observational only — nothing reads them back into the
        // run, so products stay bitwise-identical recorder on or off.
        let lane = navp_obs::flight().lane("sim");
        let mut cores: Vec<PeCore> = (0..pes)
            .map(|pe| {
                let hooks = PeHooks::new(
                    pe,
                    0,
                    self.metrics.clone(),
                    Arc::clone(&lane),
                    PeRecorder::disabled(),
                    Instant::now(),
                );
                PeCore::new(pe, pes, hooks)
            })
            .collect();
        let mut s = SimSched {
            cost: &self.cost,
            pe: 0,
            aid: 0,
            t: VTime::ZERO,
            stores,
            res: (0..pes).map(|_| PeResources::new()).collect(),
            queue: EventQueue::new(),
            agents: Vec::with_capacity(injections.len()),
            events: EventTable::default(),
            trace: if self.tracing {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            fm,
            ds: None,
            live: 0,
            makespan: VTime::ZERO,
            steps: 0,
            hops: 0,
            hop_bytes: 0,
        };
        for key in initial_events {
            s.events.bank(key);
        }
        for (pe, msgr) in injections {
            let hooks = &cores[pe].hooks;
            let id = s.agents.len() as u64;
            if let Some(fm) = &mut s.fm {
                fm.deliver(id, pe, msgr.as_ref(), hooks);
            }
            hooks.inject();
            s.pe = pe;
            s.admit(msgr, VTime::ZERO);
        }
        if let Some((dir, codec)) = &self.durable {
            s.ds = Some(DurableSink::open(dir.clone(), Arc::clone(codec), pes)?);
            // Boundary 0: the injected-but-unrun cluster, so even a kill
            // before the first run restores cleanly.
            s.spill(&cores[0].hooks)?;
        }

        while let Some((t, (aid, gen))) = s.queue.pop() {
            let a = &mut s.agents[aid];
            if a.gen != gen {
                // Scheduled before a crash re-delivered this agent.
                continue;
            }
            let Some(msgr) = a.msgr.take() else { continue };
            let pe = a.pe;
            (s.pe, s.aid, s.t) = (pe, aid, t);
            cores[pe].run(&mut s, aid as u64, msgr)?;
        }

        if s.live > 0 {
            let mut blocked: Vec<(String, String)> = s
                .events
                .waiters()
                .map(|(key, (id, ..))| (s.agents[*id as usize].label.clone(), key.to_string()))
                .collect();
            blocked.sort();
            return Err(RunError::Deadlock { blocked });
        }

        Ok(SimReport {
            makespan: s.makespan,
            stores: s.stores,
            trace: s.trace,
            steps: s.steps,
            hops: s.hops,
            hop_bytes: s.hop_bytes,
            faults: s.fm.map(|f| f.stats).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_sim::key::Key;
    use crate::script::Script;

    fn cost() -> CostModel {
        CostModel::paper_cluster()
    }

    #[test]
    fn single_agent_compute_time() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("solo").then(|ctx| {
                ctx.charge_flops(111_000_000); // 1.0 s at paper rate
                Effect::Done
            }),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert!((rep.makespan.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(rep.steps, 1);
        assert_eq!(rep.hops, 0);
    }

    #[test]
    fn hop_charges_transfer_and_moves_locus() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("hopper")
                .with_payload(11_500_000) // 1 s of serialization
                .then(|_| Effect::Hop(1))
                .then(|ctx| {
                    assert_eq!(ctx.here(), 1);
                    ctx.store().insert(Key::plain("arrived"), true, 1);
                    Effect::Done
                }),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        // makespan = serialize(payload + state) + latency
        let expect = (11_500_000.0 + HOP_STATE_BYTES as f64) / 11.5e6 + 0.8e-3;
        assert!((rep.makespan.as_secs_f64() - expect).abs() < 1e-6);
        assert_eq!(rep.hops, 1);
        assert_eq!(rep.stores[1].get::<bool>(Key::plain("arrived")), Some(&true));
    }

    #[test]
    fn local_hop_is_free_of_network_cost() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("stay")
                .with_payload(1 << 30)
                .then(|_| Effect::Hop(0))
                .then(|_| Effect::Done),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert_eq!(rep.makespan, VTime::ZERO);
        assert_eq!(rep.hops, 0);
    }

    #[test]
    fn events_synchronize_producer_consumer() {
        let mut c = Cluster::new(1).unwrap();
        // Consumer waits first, producer signals after 1 s of work.
        c.inject(
            0,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("go")))
                .then(|ctx| {
                    ctx.store().insert(Key::plain("done"), true, 1);
                    Effect::Done
                }),
        );
        c.inject(
            0,
            Script::new("producer").then(|ctx| {
                ctx.charge_seconds(1.0);
                ctx.signal(Key::plain("go"));
                Effect::Done
            }),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert!((rep.makespan.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(rep.stores[0].get::<bool>(Key::plain("done")), Some(&true));
    }

    #[test]
    fn event_signals_bank_like_semaphores() {
        let mut c = Cluster::new(1).unwrap();
        // Producer signals twice *before* the consumers wait.
        c.inject(
            0,
            Script::new("producer").then(|ctx| {
                ctx.signal(Key::plain("tok"));
                ctx.signal(Key::plain("tok"));
                Effect::Done
            }),
        );
        for i in 0..2 {
            c.inject(
                0,
                Script::new("consumer")
                    .then(|_| Effect::WaitEvent(Key::plain("tok")))
                    .then(move |ctx| {
                        ctx.store().insert(Key::at("got", i), true, 1);
                        Effect::Done
                    }),
            );
        }
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(rep.stores[0].get::<bool>(Key::at("got", 0)), Some(&true));
        assert_eq!(rep.stores[0].get::<bool>(Key::at("got", 1)), Some(&true));
    }

    #[test]
    fn deadlock_is_reported_with_blockers() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("stuck").then(|_| Effect::WaitEvent(Key::plain("never"))),
        );
        let err = SimExecutor::new(cost()).run(c).unwrap_err();
        match err {
            RunError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert!(blocked[0].0.contains("stuck"));
                assert!(blocked[0].1.contains("never"));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn bad_hop_is_reported() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, Script::new("wild").then(|_| Effect::Hop(7)));
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::BadHop { dst: 7, pes: 2, .. })
        ));
    }

    #[test]
    fn injection_spawns_locally() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("spawner").then(|ctx| {
                let here = ctx.here();
                ctx.inject(Script::new("child").then(move |cctx| {
                    assert_eq!(cctx.here(), here, "injection must be local");
                    cctx.store().insert(Key::plain("child-ran"), true, 1);
                    Effect::Done
                }));
                Effect::Done
            }),
        );
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(
            rep.stores[0].get::<bool>(Key::plain("child-ran")),
            Some(&true)
        );
        assert!(rep.stores[1].is_empty());
    }

    #[test]
    fn pipelined_agents_overlap_in_virtual_time() {
        // Two agents, each: 1 s work on PE0, hop, 1 s work on PE1.
        // Pipelined makespan must be ~3 s, not 4 s.
        let mut c = Cluster::new(2).unwrap();
        for i in 0..2 {
            c.inject(
                0,
                Script::new(if i == 0 { "first" } else { "second" })
                    .then(|ctx| {
                        ctx.charge_seconds(1.0);
                        Effect::Hop(1)
                    })
                    .then(|ctx| {
                        ctx.charge_seconds(1.0);
                        Effect::Done
                    }),
            );
        }
        let mut m = cost();
        m.daemon_overhead = 0.0;
        m.nic_latency = 0.0;
        m.nic_bandwidth = f64::INFINITY;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert!((rep.makespan.as_secs_f64() - 3.0).abs() < 1e-9, "{}", rep.makespan);
    }

    #[test]
    fn deterministic_fingerprints() {
        let build = || {
            let mut c = Cluster::new(3).unwrap();
            for i in 0..5usize {
                c.inject(
                    i % 3,
                    Script::new("w")
                        .then(move |ctx| {
                            ctx.charge_flops(1000 * (i as u64 + 1));
                            Effect::Hop((i + 1) % 3)
                        })
                        .then(|_| Effect::Done),
                );
            }
            c
        };
        let r1 = SimExecutor::new(cost()).with_trace().run(build()).unwrap();
        let r2 = SimExecutor::new(cost()).with_trace().run(build()).unwrap();
        assert_eq!(r1.trace.fingerprint(), r2.trace.fingerprint());
        assert_eq!(r1.makespan, r2.makespan);
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

    fn pingpong_cluster() -> Cluster {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c
    }

    fn counts(rep: &SimReport) -> (u64, u64) {
        let k = Key::plain("count");
        (
            rep.stores[0].get::<u64>(k).copied().unwrap_or(0),
            rep.stores[1].get::<u64>(k).copied().unwrap_or(0),
        )
    }

    #[test]
    fn crash_recovery_preserves_results() {
        use crate::fault::FaultPlan;
        let clean = SimExecutor::new(cost()).run(pingpong_cluster()).unwrap();
        assert_eq!(counts(&clean), (4, 3));
        assert!(!clean.faults.any());

        // Crash PE 1 just before its second run: the store rebuild must
        // replay the first visit's write and the messenger must resume
        // from its hop checkpoint.
        let faulted = pingpong_cluster().with_fault_plan(FaultPlan::new().crash_pe(1, 2));
        let rep = SimExecutor::new(cost()).run(faulted).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "recovery must be exact");
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.redelivered, 1);
        assert!(rep.faults.replayed_writes >= 1);
        assert!(rep.makespan > clean.makespan, "recovery costs virtual time");
    }

    #[test]
    fn crash_without_checkpointing_is_structured() {
        use crate::fault::FaultPlan;
        let c = pingpong_cluster()
            .with_fault_plan(FaultPlan::new().crash_pe(0, 1).without_checkpointing());
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::PeCrashed { pe: 0, run: 1 })
        ));
    }

    #[test]
    fn dropped_hop_retries_then_delivers() {
        use crate::fault::FaultPlan;
        let clean = SimExecutor::new(cost()).run(pingpong_cluster()).unwrap();
        let c = pingpong_cluster().with_fault_plan(FaultPlan::new().drop_hop(1, 1));
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(counts(&rep), counts(&clean));
        assert_eq!(rep.faults.hops_dropped, 1);
        assert_eq!(rep.faults.send_retries, 1);
    }

    #[test]
    fn drop_exhaustion_is_recovery_failure() {
        use crate::fault::FaultPlan;
        let mut plan = FaultPlan::new();
        for nth in 1..=4 {
            plan = plan.drop_hop(1, nth);
        }
        let c = pingpong_cluster().with_fault_plan(plan);
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::RecoveryFailed { pe: 1, .. })
        ));
    }

    #[test]
    fn delayed_hop_extends_makespan() {
        use crate::fault::FaultPlan;
        let clean = SimExecutor::new(cost()).run(pingpong_cluster()).unwrap();
        let c = pingpong_cluster().with_fault_plan(FaultPlan::new().delay_hop(1, 1, 2.0));
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(counts(&rep), counts(&clean));
        assert_eq!(rep.faults.hops_delayed, 1);
        assert!(rep.makespan.as_secs_f64() >= clean.makespan.as_secs_f64() + 1.999);
    }

    #[test]
    fn lost_signal_deadlocks_waiter() {
        use crate::fault::FaultPlan;
        let build = || {
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
            c
        };
        // Sanity: fault-free it terminates.
        SimExecutor::new(cost()).run(build()).unwrap();
        let c = build().with_fault_plan(FaultPlan::new().lose_signal(0, 1));
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::Deadlock { .. })
        ));
    }

    #[test]
    fn crash_spares_parked_waiters() {
        use crate::fault::FaultPlan;
        // The consumer parks on PE 0 before the crash; its state lives in
        // the event service and must survive the crash that destroys the
        // producer's delivery (which is then re-delivered and re-run).
        #[derive(Clone)]
        struct Producer {
            fired: bool,
        }
        impl Messenger for Producer {
            fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
                if !self.fired {
                    self.fired = true;
                    return Effect::Hop(ctx.here()); // run boundary filler
                }
                ctx.signal(Key::plain("go"));
                Effect::Done
            }
            fn snapshot(&self) -> Option<Box<dyn Messenger>> {
                Some(Box::new(self.clone()))
            }
        }
        #[derive(Clone)]
        struct Consumer {
            waited: bool,
        }
        impl Messenger for Consumer {
            fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
                if !self.waited {
                    self.waited = true;
                    return Effect::WaitEvent(Key::plain("go"));
                }
                ctx.store().insert(Key::plain("done"), true, 1);
                Effect::Done
            }
            fn snapshot(&self) -> Option<Box<dyn Messenger>> {
                Some(Box::new(self.clone()))
            }
        }
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Consumer { waited: false });
        c.inject(0, Producer { fired: false });
        c.set_fault_plan(FaultPlan::new().crash_pe(0, 2));
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(rep.stores[0].get::<bool>(Key::plain("done")), Some(&true));
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.redelivered, 1, "only the producer is lost");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::fault::FaultPlan;
        let run = || {
            let c = pingpong_cluster().with_fault_plan(FaultPlan::seeded(0xFA17, 2));
            SimExecutor::new(cost()).with_trace().run(c).unwrap()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.trace.fingerprint(), r2.trace.fingerprint());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.faults, r2.faults);
    }

    #[test]
    fn metrics_reconcile_with_sim_report() {
        let m = RunMetrics::new(2);
        let rep = SimExecutor::new(cost())
            .with_metrics(Arc::clone(&m))
            .run(pingpong_cluster())
            .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.total("navp_hops_total") as u64, rep.hops);
        assert_eq!(snap.total("navp_hop_bytes_total") as u64, rep.hop_bytes);
        assert_eq!(snap.total("navp_steps_total") as u64, rep.steps);
        assert_eq!(snap.total("navp_injections_total") as u64, 1);
        navp_metrics::validate_prometheus(&m.registry.render()).expect("valid");
    }

    /// Wire-serializable ping-pong for the durable tests (the plain
    /// [`PingPong`] has snapshots but no wire form).
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

    /// Minimal durable codec for stores whose values are all `u64`.
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

    fn wire_cluster() -> Cluster {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, WirePingPong { hops_left: 6 });
        c
    }

    #[test]
    fn durable_spill_restores_finished_run() {
        let dir = std::env::temp_dir().join(format!("navp-sim-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let clean = SimExecutor::new(cost()).run(wire_cluster()).unwrap();
        let rep = SimExecutor::new(cost())
            .with_durable(&dir, Arc::new(ToyCodec))
            .run(wire_cluster())
            .unwrap();
        assert_eq!(counts(&rep), counts(&clean), "durable mode must not change results");

        let (_, cuts) = crate::durable::read_all_cuts(&dir).unwrap();
        let restored = crate::durable::restore_cluster(&cuts, &ToyCodec).unwrap();
        let rep2 = SimExecutor::new(cost()).run(restored).unwrap();
        assert_eq!(counts(&rep2), counts(&clean), "restored final cut is the final state");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_restore_completes_a_killed_run_bitwise() {
        use crate::fault::FaultPlan;
        let dir = std::env::temp_dir().join(format!("navp-sim-killed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let clean = SimExecutor::new(cost()).run(wire_cluster()).unwrap();

        // Checkpointing off: the injected crash aborts the whole run
        // mid-computation, the closest in-process analogue of kill -9.
        let c = wire_cluster()
            .with_fault_plan(FaultPlan::new().crash_pe(1, 2).without_checkpointing());
        let err = SimExecutor::new(cost())
            .with_durable(&dir, Arc::new(ToyCodec))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::PeCrashed { pe: 1, .. }), "{err}");

        // The durable directory holds the last committed boundary;
        // restoring and finishing must reproduce the clean result.
        let (_, cuts) = crate::durable::read_all_cuts(&dir).unwrap();
        let restored = crate::durable::restore_cluster(&cuts, &ToyCodec).unwrap();
        let rep = SimExecutor::new(cost()).run(restored).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "restore must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_metrics_count_flushes() {
        let dir = std::env::temp_dir().join(format!("navp-sim-dmx-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let m = RunMetrics::new(2);
        SimExecutor::new(cost())
            .with_durable(&dir, Arc::new(ToyCodec))
            .with_metrics(Arc::clone(&m))
            .run(wire_cluster())
            .unwrap();
        let snap = m.snapshot();
        assert!(snap.total("navp_durable_flushes_total") > 0.0);
        assert!(snap.total("navp_durable_bytes_total") > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paging_charged_when_overloaded() {
        let mut m = cost();
        m.daemon_overhead = 0.0;
        m.mem_capacity = 1000;
        m.fault_bandwidth = 1e3; // 1 KB/s: faults are very visible
        let mut c = Cluster::new(1).unwrap();
        c.store_mut(0).insert(Key::plain("big"), (), 8000); // 8x overload
        c.inject(
            0,
            Script::new("toucher").then(|ctx| {
                ctx.charge_touched(1000);
                Effect::Done
            }),
        );
        let rep = SimExecutor::new(m).run(c).unwrap();
        // miss fraction = 1 - 3/8 = 0.625; 625 bytes at 1 KB/s = 0.625 s
        assert!((rep.makespan.as_secs_f64() - 0.625).abs() < 1e-6);
    }
}
