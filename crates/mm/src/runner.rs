//! Uniform entry points over every implementation.
//!
//! The bench harness, the integration tests and the examples all drive
//! the stages through these functions, so "run stage X on topology Y at
//! size Z under cost model M" is written exactly once.

use crate::config::{MmConfig, Payload};
use crate::gentleman::GentlemanOpts;
use crate::util::{collect_c, Topo1D, Topo2D};
use crate::{dpc2d, dsc1d, dsc2d, gentleman, phase1d, pipe1d, pipe2d, seq, summa};
use navp::{Cluster, FaultPlan, FaultStats, SimExecutor, ThreadExecutor};
use navp_matrix::{Grid2D, Matrix};
use navp_metrics::{MetricsSnapshot, RunMetrics};
use navp_mp::{MpSimExecutor, MpThreadExecutor};
use navp_net::{restore_from_dir, NetExecutor, NetPeStats, RegistryCodec};
use navp_sim::{CostModel, Trace};
use navp_trace::TraceReport;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The NavP stages in paper order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NavpStage {
    /// 1-D DSC (Fig. 5).
    Dsc1D,
    /// 1-D pipelined (Fig. 7).
    Pipe1D,
    /// 1-D phase-shifted (Fig. 9).
    Phase1D,
    /// 2-D DSC (Fig. 11).
    Dsc2D,
    /// 2-D pipelined (Fig. 13).
    Pipe2D,
    /// 2-D full DPC (Fig. 15).
    Dpc2D,
}

impl NavpStage {
    /// All six stages, in order of the incremental chain.
    pub const ALL: [NavpStage; 6] = [
        NavpStage::Dsc1D,
        NavpStage::Pipe1D,
        NavpStage::Phase1D,
        NavpStage::Dsc2D,
        NavpStage::Pipe2D,
        NavpStage::Dpc2D,
    ];

    /// Short human-readable name matching the paper's table columns.
    pub fn name(&self) -> &'static str {
        match self {
            NavpStage::Dsc1D => "NavP (1D DSC)",
            NavpStage::Pipe1D => "NavP (1D pipeline)",
            NavpStage::Phase1D => "NavP (1D phase)",
            NavpStage::Dsc2D => "NavP (2D DSC)",
            NavpStage::Pipe2D => "NavP (2D pipeline)",
            NavpStage::Dpc2D => "NavP (2D phase)",
        }
    }

    /// `true` for the stages that run on a 1-D PE line.
    pub fn is_1d(&self) -> bool {
        matches!(
            self,
            NavpStage::Dsc1D | NavpStage::Pipe1D | NavpStage::Phase1D
        )
    }
}

/// The message-passing baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpAlg {
    /// Gentleman's algorithm with the given options.
    Gentleman(GentlemanOpts),
    /// SUMMA, the ScaLAPACK stand-in.
    Summa,
}

impl MpAlg {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MpAlg::Gentleman(_) => "MPI (Gentleman)",
            MpAlg::Summa => "ScaLAPACK* (SUMMA)",
        }
    }
}

/// Errors from the uniform runners.
#[derive(Debug)]
pub enum RunnerError {
    /// Matrix/layout error.
    Matrix(navp_matrix::MatrixError),
    /// NavP executor error.
    Navp(navp::RunError),
    /// Message-passing executor error.
    Mp(navp_mp::MpError),
    /// Topology incompatible with the requested stage.
    Topology(String),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Matrix(e) => write!(f, "matrix error: {e}"),
            RunnerError::Navp(e) => write!(f, "NavP runtime error: {e}"),
            RunnerError::Mp(e) => write!(f, "message-passing error: {e}"),
            RunnerError::Topology(s) => write!(f, "topology error: {s}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<navp_matrix::MatrixError> for RunnerError {
    fn from(e: navp_matrix::MatrixError) -> Self {
        RunnerError::Matrix(e)
    }
}
impl From<navp::RunError> for RunnerError {
    fn from(e: navp::RunError) -> Self {
        RunnerError::Navp(e)
    }
}
impl From<navp_mp::MpError> for RunnerError {
    fn from(e: navp_mp::MpError) -> Self {
        RunnerError::Mp(e)
    }
}

/// What a run produced.
pub struct RunOutput {
    /// Modeled virtual time in seconds (sim executors only).
    pub virt_seconds: Option<f64>,
    /// Wall-clock time (thread executors only).
    pub wall: Option<Duration>,
    /// The product (real payloads only).
    pub c: Option<Matrix>,
    /// Whether the product matched the sequential reference
    /// (real payloads only; `None` for phantom runs).
    pub verified: Option<bool>,
    /// Inter-PE transfers (hops or messages).
    pub transfers: u64,
    /// Bytes moved between PEs.
    pub bytes: u64,
    /// Full execution trace when requested — virtual-time from the sim
    /// executor, wall-clock from the threads/net executors (when
    /// [`MmConfig::trace`] is set).
    pub trace: Option<Trace>,
    /// Derived wall-clock metrics (utilization, hop latency, waits)
    /// for traced threads/net runs.
    pub trace_report: Option<TraceReport>,
    /// Fault-injection and recovery counters (NavP executors only;
    /// zeroed stats when the run had no fault plan).
    pub faults: Option<FaultStats>,
    /// Per-PE network accounting (networked executor only).
    pub per_pe_net: Option<Vec<NetPeStats>>,
    /// Aggregated runtime metrics (when [`MmConfig::metrics`] is set;
    /// NavP executors only). For networked runs this is the merge of
    /// every PE daemon's registry, collected over the mesh at drain.
    pub metrics: Option<MetricsSnapshot>,
}

impl fmt::Debug for RunOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOutput")
            .field("virt_seconds", &self.virt_seconds)
            .field("wall", &self.wall)
            .field("verified", &self.verified)
            .field("transfers", &self.transfers)
            .field("bytes", &self.bytes)
            .field("faults", &self.faults)
            .field("per_pe_net", &self.per_pe_net)
            .field(
                "metrics",
                &self.metrics.as_ref().map(|m| m.samples.len()),
            )
            .finish_non_exhaustive()
    }
}

fn verify(cfg: &MmConfig, c: &Option<Matrix>) -> Result<Option<bool>, RunnerError> {
    match (cfg.payload, c) {
        (Payload::Phantom, _) => Ok(None),
        (Payload::Real { .. }, Some(got)) => {
            let want = cfg.expected()?.expect("real payload has a reference");
            Ok(Some(want.max_abs_diff(got) < 1e-9))
        }
        (Payload::Real { .. }, None) => Ok(Some(false)),
    }
}

/// Owner map: C-block coordinates to the PE holding the block after a run.
type OwnerFn = Box<dyn Fn(usize, usize) -> usize>;

/// The C-ownership map of a stage, computable without (re)building the
/// cluster — restores need it to collect the product out of a cluster
/// that was reassembled from disk rather than constructed here.
fn navp_owner(stage: NavpStage, cfg: &MmConfig, grid: Grid2D) -> Result<OwnerFn, RunnerError> {
    if stage.is_1d() {
        if grid.rows != 1 {
            return Err(RunnerError::Topology(format!(
                "{} needs a 1-D line, got {}x{}",
                stage.name(),
                grid.rows,
                grid.cols
            )));
        }
        let topo = Topo1D::new(cfg.nb(), grid.cols)?;
        Ok(Box::new(move |_bi, bj| topo.pe_of_col(bj)))
    } else {
        let topo = Topo2D::new(cfg.nb(), grid)?;
        Ok(Box::new(move |bi, bj| topo.node_of_block(bi, bj)))
    }
}

/// The registry-backed durable codec for in-process (sim/threads)
/// durable runs of the case study. Registers every wire codec first so
/// matrix blocks and carriers encode into the checkpoint exactly as
/// they would onto the wire.
fn durable_codec() -> Arc<dyn navp::durable::DurableCodec> {
    crate::net::register_net();
    Arc::new(RegistryCodec::new())
}

/// Build the NavP cluster plus its C-ownership map for a stage.
fn navp_cluster(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<(Cluster, OwnerFn), RunnerError> {
    let (a, b) = cfg.operands()?;
    if stage.is_1d() {
        if grid.rows != 1 {
            return Err(RunnerError::Topology(format!(
                "{} needs a 1-D line, got {}x{}",
                stage.name(),
                grid.rows,
                grid.cols
            )));
        }
        let topo = Topo1D::new(cfg.nb(), grid.cols)?;
        let cl = match stage {
            NavpStage::Dsc1D => dsc1d::cluster(cfg, &topo, &a, &b)?,
            NavpStage::Pipe1D => pipe1d::cluster(cfg, &topo, &a, &b)?,
            NavpStage::Phase1D => phase1d::cluster(cfg, &topo, &a, &b)?,
            _ => unreachable!(),
        };
        let own = move |_bi: usize, bj: usize| topo.pe_of_col(bj);
        Ok((cl, Box::new(own)))
    } else {
        let topo = Topo2D::new(cfg.nb(), grid)?;
        let cl = match stage {
            NavpStage::Dsc2D => dsc2d::cluster(cfg, &topo, &a, &b)?,
            NavpStage::Pipe2D => pipe2d::cluster(cfg, &topo, &a, &b)?,
            NavpStage::Dpc2D => dpc2d::cluster(cfg, &topo, &a, &b)?,
            _ => unreachable!(),
        };
        let own = move |bi: usize, bj: usize| topo.node_of_block(bi, bj);
        Ok((cl, Box::new(own)))
    }
}

/// The watchdog a run asks for: an explicit value wins, else the
/// `NAVP_WATCHDOG_MS` environment variable, else `None` (the executor's
/// built-in default). Shared by every wall-clock runner (mm and kv).
pub fn resolve_watchdog(explicit: Option<Duration>) -> Option<Duration> {
    explicit.or_else(|| {
        std::env::var("NAVP_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
    })
}

/// A thread executor with the runners' watchdog resolution
/// ([`resolve_watchdog`]).
pub fn thread_executor_for(trace: bool, watchdog: Option<Duration>) -> ThreadExecutor {
    let exec = ThreadExecutor::new().with_trace(trace);
    match resolve_watchdog(watchdog) {
        Some(wd) => exec.with_watchdog(wd),
        None => exec,
    }
}

/// The thread executor a config asks for: an explicit
/// `cfg.watchdog` wins, else the `NAVP_WATCHDOG_MS` environment
/// variable, else the executor's built-in 10 s default.
fn thread_executor(cfg: &MmConfig) -> ThreadExecutor {
    thread_executor_for(cfg.trace, cfg.watchdog)
}

/// Run the sequential baseline under the cost model (one virtual PE, so
/// Table 2's paging behaviour is captured).
pub fn run_seq_sim(cfg: &MmConfig, cost: &CostModel) -> Result<RunOutput, RunnerError> {
    let (a, b) = cfg.operands()?;
    let cl = seq::cluster(cfg, &a, &b)?;
    let mut rep = SimExecutor::new(*cost).run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, |_, _| 0)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: Some(rep.makespan.as_secs_f64()),
        wall: None,
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace: None,
        trace_report: None,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: None,
    })
}

/// Run a NavP stage under the virtual-time executor.
pub fn run_navp_sim(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    with_trace: bool,
) -> Result<RunOutput, RunnerError> {
    run_navp_sim_inner(stage, cfg, grid, cost, with_trace, None)
}

/// As [`run_navp_sim`], with `plan`'s faults injected during the run.
/// The returned [`RunOutput::faults`] reports what was injected and
/// recovered.
pub fn run_navp_sim_faulted(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    plan: FaultPlan,
) -> Result<RunOutput, RunnerError> {
    run_navp_sim_inner(stage, cfg, grid, cost, false, Some(plan))
}

fn run_navp_sim_inner(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    with_trace: bool,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    let (mut cl, own) = navp_cluster(stage, cfg, grid)?;
    if let Some(plan) = plan {
        cl.set_fault_plan(plan);
    }
    let mut exec = SimExecutor::new(*cost);
    if with_trace {
        exec = exec.with_trace();
    }
    let met = cfg
        .metrics
        .then(|| RunMetrics::new(grid.rows * grid.cols));
    if let Some(m) = &met {
        exec = exec.with_metrics(Arc::clone(m));
    }
    let mut rep = exec.run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: Some(rep.makespan.as_secs_f64()),
        wall: None,
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace: with_trace.then_some(rep.trace),
        trace_report: None,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: met.map(|m| m.snapshot()),
    })
}

/// Run a NavP stage on real threads (wall-clock).
pub fn run_navp_threads(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_navp_threads_inner(stage, cfg, grid, true, None)
}

/// As [`run_navp_threads`] but without result verification — for
/// benchmarks, where recomputing the sequential reference on every
/// iteration would dominate the measurement. `verified` is `None`.
pub fn run_navp_threads_unverified(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_navp_threads_inner(stage, cfg, grid, false, None)
}

/// As [`run_navp_threads`], with `plan`'s faults injected during the
/// run. The returned [`RunOutput::faults`] reports what was injected
/// and recovered.
pub fn run_navp_threads_faulted(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    plan: FaultPlan,
) -> Result<RunOutput, RunnerError> {
    run_navp_threads_inner(stage, cfg, grid, true, Some(plan))
}

/// As [`run_navp_threads`], recording runtime metrics into the
/// caller-supplied [`RunMetrics`] so a concurrent observer (e.g. the
/// `metrics_dashboard` example) can poll live counters while the run is
/// in flight. The handle must span `grid.rows * grid.cols` PEs; its
/// final state is also snapshotted into [`RunOutput::metrics`].
pub fn run_navp_threads_metered(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    metrics: Arc<RunMetrics>,
) -> Result<RunOutput, RunnerError> {
    run_navp_threads_with(stage, cfg, grid, true, None, Some(metrics))
}

fn run_navp_threads_inner(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    check: bool,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    let met = cfg
        .metrics
        .then(|| RunMetrics::new(grid.rows * grid.cols));
    run_navp_threads_with(stage, cfg, grid, check, plan, met)
}

fn run_navp_threads_with(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    check: bool,
    plan: Option<FaultPlan>,
    met: Option<Arc<RunMetrics>>,
) -> Result<RunOutput, RunnerError> {
    let (mut cl, own) = navp_cluster(stage, cfg, grid)?;
    if let Some(plan) = plan {
        cl.set_fault_plan(plan);
    }
    let mut exec = thread_executor(cfg);
    if let Some(m) = &met {
        exec = exec.with_metrics(Arc::clone(m));
    }
    let mut rep = exec.run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = if check { verify(cfg, &c)? } else { None };
    let trace = rep.trace.take();
    warn_trace_dropped(rep.trace_dropped);
    let trace_report = trace
        .as_ref()
        .map(|t| TraceReport::from_trace(t, grid.rows * grid.cols, rep.trace_dropped));
    Ok(RunOutput {
        virt_seconds: None,
        wall: Some(rep.wall),
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace,
        trace_report,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: met.map(|m| m.snapshot()),
    })
}

/// A trace that dropped events is silently partial unless someone says
/// so: warn on stderr whenever a wall-clock run overflowed its ring.
/// (The dropped count also lands in the [`TraceReport`] summary line
/// and the `navp_trace_dropped_events_total` counter.)
pub fn warn_trace_dropped(dropped: u64) {
    if dropped > 0 {
        eprintln!(
            "warning: trace buffer overflowed — {dropped} events dropped; \
             the trace and its report are partial"
        );
    }
}

/// Options for networked (multi-process) runs.
#[derive(Clone, Debug, Default)]
pub struct NetOpts {
    /// Explicit `navp-pe` binary to spawn. `None` resolves
    /// `$NAVP_PE_BIN`, then a `navp-pe` next to the current executable.
    pub pe_bin: Option<PathBuf>,
    /// Join already-running `navp-pe --listen` processes at these
    /// addresses (one per PE, in PE order) instead of spawning local
    /// children.
    pub join: Vec<String>,
    /// Teardown grace window (child shutdown wait, exit-status polling
    /// on disconnect). `None` keeps the executor's 2 s default.
    pub grace: Option<Duration>,
    /// Durable checkpoint directory: every PE daemon spills its
    /// recovery cut there at each run boundary, so the whole cluster
    /// survives `kill -9` and restores with [`run_restored_net`].
    /// Joined (`--listen`) daemons must have been started with the same
    /// `--durable-dir`. `None` (default) performs zero extra syscalls.
    pub durable_dir: Option<PathBuf>,
    /// Run namespace for multi-tenant clusters: rides in the net
    /// handshake frames and scopes durable checkpoints to a per-run
    /// subdirectory, so concurrent runs multiplexed onto the same
    /// `--listen` daemons cannot collide. `0` (default) is the
    /// anonymous single-run namespace.
    pub run_id: u64,
    /// Wall-clock budget for the whole run; exceeded →
    /// [`RunError`](navp::RunError)`::DeadlineExceeded`. `None`
    /// (default) = unbounded.
    pub deadline: Option<Duration>,
}

impl NetOpts {
    /// The networked executor these options describe, with the same
    /// watchdog resolution as the thread runners ([`resolve_watchdog`]).
    pub fn executor(&self, trace: bool, metrics: bool, watchdog: Option<Duration>) -> NetExecutor {
        let mut exec = NetExecutor::new().with_trace(trace).with_metrics(metrics);
        if let Some(bin) = &self.pe_bin {
            exec = exec.with_pe_bin(bin.clone());
        }
        if !self.join.is_empty() {
            exec = exec.join_addrs(self.join.clone());
        }
        if let Some(grace) = self.grace {
            exec = exec.with_grace(grace);
        }
        if let Some(dir) = &self.durable_dir {
            exec = exec.with_durable_dir(dir.clone());
        }
        if self.run_id != 0 {
            exec = exec.with_run_id(self.run_id);
        }
        if let Some(deadline) = self.deadline {
            exec = exec.with_deadline(deadline);
        }
        match resolve_watchdog(watchdog) {
            Some(wd) => exec.with_watchdog(wd),
            None => exec,
        }
    }

    /// Builder-style [`NetOpts::durable_dir`].
    pub fn with_durable_dir(mut self, dir: impl Into<PathBuf>) -> NetOpts {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Builder-style [`NetOpts::run_id`].
    pub fn with_run_id(mut self, run_id: u64) -> NetOpts {
        self.run_id = run_id;
        self
    }

    /// Builder-style [`NetOpts::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> NetOpts {
        self.deadline = Some(deadline);
        self
    }
}

/// The networked executor a config asks for (see [`NetOpts::executor`]).
fn net_executor(cfg: &MmConfig, opts: &NetOpts) -> NetExecutor {
    opts.executor(cfg.trace, cfg.metrics, cfg.watchdog)
}

/// Run a NavP stage across real OS processes over TCP (wall-clock).
///
/// The cluster is built exactly as for [`run_navp_threads`]; the only
/// difference is the executor, so the product must be bitwise
/// identical — the parity tests assert exactly that.
pub fn run_navp_net(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
) -> Result<RunOutput, RunnerError> {
    run_navp_net_inner(stage, cfg, grid, opts, None)
}

/// As [`run_navp_net`], with `plan`'s faults mapped onto the real
/// sockets (delays hold frames, drops discard them, crashes kill or
/// restart the PE daemon). [`RunOutput::faults`] reports what happened.
pub fn run_navp_net_faulted(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
    plan: FaultPlan,
) -> Result<RunOutput, RunnerError> {
    run_navp_net_inner(stage, cfg, grid, opts, Some(plan))
}

fn run_navp_net_inner(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    crate::net::register_net();
    let (mut cl, own) = navp_cluster(stage, cfg, grid)?;
    if let Some(plan) = plan {
        cl.set_fault_plan(plan);
    }
    let mut rep = net_executor(cfg, opts).run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    let trace = rep.trace.take();
    warn_trace_dropped(rep.trace_dropped);
    let trace_report = trace
        .as_ref()
        .map(|t| TraceReport::from_trace(t, grid.rows * grid.cols, rep.trace_dropped));
    Ok(RunOutput {
        virt_seconds: None,
        wall: Some(rep.wall),
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.wire_bytes,
        trace,
        trace_report,
        faults: Some(rep.faults),
        per_pe_net: Some(rep.per_pe),
        metrics: rep.metrics.take(),
    })
}

/// As [`run_navp_sim`], spilling a durable checkpoint of the whole
/// cluster to `dir` at every run boundary (atomic rename-commit,
/// checksummed; see `navp::durable`). An optional fault plan rides
/// along so tests can crash the run mid-way — the cuts already on disk
/// then restore with [`run_restored_sim`] and finish bitwise-identical.
pub fn run_navp_sim_durable(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    dir: impl Into<PathBuf>,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    let (mut cl, own) = navp_cluster(stage, cfg, grid)?;
    if let Some(plan) = plan {
        cl.set_fault_plan(plan);
    }
    let mut rep = SimExecutor::new(*cost)
        .with_durable(dir, durable_codec())
        .run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: Some(rep.makespan.as_secs_f64()),
        wall: None,
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace: None,
        trace_report: None,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: None,
    })
}

/// As [`run_navp_threads`], with durable checkpoints (see
/// [`run_navp_sim_durable`]); restore with [`run_restored_threads`].
pub fn run_navp_threads_durable(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    dir: impl Into<PathBuf>,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    let (mut cl, own) = navp_cluster(stage, cfg, grid)?;
    if let Some(plan) = plan {
        cl.set_fault_plan(plan);
    }
    let mut rep = thread_executor(cfg)
        .with_durable(dir, durable_codec())
        .run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: None,
        wall: Some(rep.wall),
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace: None,
        trace_report: None,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: None,
    })
}

/// Restore an interrupted durable run of `stage` from its checkpoint
/// directory and finish it on the virtual-time executor.
///
/// The cuts may come from *any* executor — a `kill -9`'d networked
/// cluster restores here just as well — and the completed product is
/// bitwise-identical to the uninterrupted run, which `verified`
/// re-checks against the sequential reference.
pub fn run_restored_sim(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    dir: &Path,
) -> Result<RunOutput, RunnerError> {
    crate::net::register_net();
    let own = navp_owner(stage, cfg, grid)?;
    let cl = restore_from_dir(dir)?;
    let mut rep = SimExecutor::new(*cost).run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: Some(rep.makespan.as_secs_f64()),
        wall: None,
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace: None,
        trace_report: None,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: None,
    })
}

/// As [`run_restored_sim`], finishing on real threads.
pub fn run_restored_threads(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    dir: &Path,
) -> Result<RunOutput, RunnerError> {
    crate::net::register_net();
    let own = navp_owner(stage, cfg, grid)?;
    let cl = restore_from_dir(dir)?;
    let mut rep = thread_executor(cfg).run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: None,
        wall: Some(rep.wall),
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.hop_bytes,
        trace: None,
        trace_report: None,
        faults: Some(rep.faults),
        per_pe_net: None,
        metrics: None,
    })
}

/// As [`run_restored_sim`], finishing across real OS processes. Set
/// [`NetOpts::durable_dir`] (usually to the same directory) to keep the
/// resumed run itself crash-safe — the executor stamps a fresh session
/// manifest, so restore *before* re-running, never the other way round.
pub fn run_restored_net(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
    dir: &Path,
) -> Result<RunOutput, RunnerError> {
    crate::net::register_net();
    let own = navp_owner(stage, cfg, grid)?;
    let cl = restore_from_dir(dir)?;
    let mut rep = net_executor(cfg, opts).run(cl)?;
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    let trace = rep.trace.take();
    warn_trace_dropped(rep.trace_dropped);
    let trace_report = trace
        .as_ref()
        .map(|t| TraceReport::from_trace(t, grid.rows * grid.cols, rep.trace_dropped));
    Ok(RunOutput {
        virt_seconds: None,
        wall: Some(rep.wall),
        c,
        verified,
        transfers: rep.hops,
        bytes: rep.wire_bytes,
        trace,
        trace_report,
        faults: Some(rep.faults),
        per_pe_net: Some(rep.per_pe),
        metrics: rep.metrics.take(),
    })
}

/// Run a message-passing baseline under the virtual-time executor.
pub fn run_mp_sim(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
) -> Result<RunOutput, RunnerError> {
    let (a, b) = cfg.operands()?;
    let cl = match alg {
        MpAlg::Gentleman(opts) => gentleman::cluster(cfg, grid, opts, &a, &b)?,
        MpAlg::Summa => summa::cluster(cfg, grid, &a, &b)?,
    };
    let mut rep = MpSimExecutor::new(*cost).run(cl)?;
    let own: Box<dyn Fn(usize, usize) -> usize> = match alg {
        MpAlg::Gentleman(_) => Box::new(gentleman::owner(cfg, grid)),
        MpAlg::Summa => Box::new(summa::owner(cfg, grid)),
    };
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = verify(cfg, &c)?;
    Ok(RunOutput {
        virt_seconds: Some(rep.makespan.as_secs_f64()),
        wall: None,
        c,
        verified,
        transfers: rep.messages,
        bytes: rep.message_bytes,
        trace: None,
        trace_report: None,
        faults: None,
        per_pe_net: None,
        metrics: None,
    })
}

/// Run a message-passing baseline on real threads (wall-clock).
pub fn run_mp_threads(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_mp_threads_inner(alg, cfg, grid, true)
}

/// As [`run_mp_threads`] but without result verification (see
/// [`run_navp_threads_unverified`]).
pub fn run_mp_threads_unverified(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_mp_threads_inner(alg, cfg, grid, false)
}

fn run_mp_threads_inner(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
    check: bool,
) -> Result<RunOutput, RunnerError> {
    let (a, b) = cfg.operands()?;
    let cl = match alg {
        MpAlg::Gentleman(opts) => gentleman::cluster(cfg, grid, opts, &a, &b)?,
        MpAlg::Summa => summa::cluster(cfg, grid, &a, &b)?,
    };
    let mut rep = MpThreadExecutor::new().run(cl)?;
    let own: Box<dyn Fn(usize, usize) -> usize> = match alg {
        MpAlg::Gentleman(_) => Box::new(gentleman::owner(cfg, grid)),
        MpAlg::Summa => Box::new(summa::owner(cfg, grid)),
    };
    let c = collect_c(&mut rep.stores, cfg, own)?;
    let verified = if check { verify(cfg, &c)? } else { None };
    Ok(RunOutput {
        virt_seconds: None,
        wall: Some(rep.wall),
        c,
        verified,
        transfers: 0,
        bytes: 0,
        trace: None,
        trace_report: None,
        faults: None,
        per_pe_net: None,
        metrics: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_navp_stages_verify_via_runner() {
        let cfg = MmConfig::real(12, 2);
        for stage in NavpStage::ALL {
            let grid = if stage.is_1d() {
                Grid2D::line(3).unwrap()
            } else {
                Grid2D::new(2, 2).unwrap()
            };
            let out = run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), false)
                .unwrap_or_else(|e| panic!("{} failed: {e}", stage.name()));
            assert_eq!(out.verified, Some(true), "{} wrong product", stage.name());
        }
    }

    #[test]
    fn mp_baselines_verify_via_runner() {
        let cfg = MmConfig::real(12, 2);
        let grid = Grid2D::new(2, 2).unwrap();
        for alg in [MpAlg::Gentleman(GentlemanOpts::default()), MpAlg::Summa] {
            let out = run_mp_sim(alg, &cfg, grid, &CostModel::paper_cluster()).unwrap();
            assert_eq!(out.verified, Some(true), "{} wrong product", alg.name());
        }
    }

    #[test]
    fn topology_mismatch_is_reported() {
        let cfg = MmConfig::real(12, 2);
        let grid = Grid2D::new(2, 2).unwrap();
        assert!(matches!(
            run_navp_sim(
                NavpStage::Dsc1D,
                &cfg,
                grid,
                &CostModel::paper_cluster(),
                false
            ),
            Err(RunnerError::Topology(_))
        ));
    }

    #[test]
    fn seq_runner_verifies() {
        let cfg = MmConfig::real(8, 2);
        let out = run_seq_sim(&cfg, &CostModel::paper_cluster()).unwrap();
        assert_eq!(out.verified, Some(true));
        assert_eq!(out.transfers, 0);
    }

    #[test]
    fn watchdog_resolution_order_is_config_env_default() {
        // An explicit config wins unconditionally.
        let explicit = MmConfig::real(8, 2).with_watchdog(Duration::from_millis(1234));
        assert_eq!(
            thread_executor(&explicit).watchdog(),
            Duration::from_millis(1234)
        );
        // The env var fills in when the config is silent. (Runner tests
        // are the only readers of this variable in this test binary, so
        // the set/remove pair cannot race another test.)
        std::env::set_var("NAVP_WATCHDOG_MS", "777");
        let silent = MmConfig::real(8, 2);
        assert_eq!(thread_executor(&silent).watchdog(), Duration::from_millis(777));
        assert_eq!(
            thread_executor(&explicit).watchdog(),
            Duration::from_millis(1234),
            "config still wins over env"
        );
        std::env::set_var("NAVP_WATCHDOG_MS", "not-a-number");
        assert_eq!(
            thread_executor(&silent).watchdog(),
            ThreadExecutor::new().watchdog(),
            "garbage env falls back to the executor default"
        );
        std::env::remove_var("NAVP_WATCHDOG_MS");
        assert_eq!(thread_executor(&silent).watchdog(), ThreadExecutor::new().watchdog());
    }

    #[test]
    fn faulted_runner_recovers_and_reports() {
        let cfg = MmConfig::real(12, 2);
        let grid = Grid2D::line(3).unwrap();
        let plan = FaultPlan::new().crash_pe(1, 1);
        let out = run_navp_sim_faulted(
            NavpStage::Dsc1D,
            &cfg,
            grid,
            &CostModel::paper_cluster(),
            plan,
        )
        .unwrap();
        assert_eq!(out.verified, Some(true));
        let faults = out.faults.unwrap();
        assert_eq!(faults.crashes, 1);
        assert!(faults.redelivered >= 1);
    }

    #[test]
    fn trace_is_returned_on_request() {
        let cfg = MmConfig::phantom(8, 2);
        let out = run_navp_sim(
            NavpStage::Pipe1D,
            &cfg,
            Grid2D::line(2).unwrap(),
            &CostModel::paper_cluster(),
            true,
        )
        .unwrap();
        assert!(out.trace.is_some());
        assert!(!out.trace.unwrap().events().is_empty());
    }
}
