//! What one benchmark run collects: timed operations, failures, spans
//! and the raw per-layer observations the traced run turns into
//! metrics.

use crate::spans::Tracer;
use navp_sim::trace::{Trace, TraceKind};
use navp_trace::TraceReport;
use std::time::Duration;

/// One timed operation: a stage run, a kv run, a service job or a
/// simulated table cell.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall time of the call as the caller saw it.
    pub latency: Duration,
    /// Units of work the operation completed (flops, kv operations,
    /// jobs or cells; see each workload).
    pub work: f64,
    /// Whether it failed, was rejected, or produced a wrong output.
    pub failed: bool,
}

/// A traced thread-executor run, reduced to what the `core` layer
/// metrics need.
pub struct ThreadTrace {
    /// Wall of the whole call, seconds (set-up, run and collection).
    pub outer_s: f64,
    /// The program's own report over the run's merged trace.
    pub report: TraceReport,
    /// Length of every inter-PE transfer span, seconds.
    pub transfers_s: Vec<f64>,
}

impl ThreadTrace {
    /// Reduce a traced run's outputs.
    pub fn new(
        outer: Duration,
        trace: Option<&Trace>,
        report: Option<TraceReport>,
    ) -> Option<Self> {
        let (trace, report) = (trace?, report?);
        let transfers_s = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Transfer { from, to, .. } if from != to))
            .map(|e| e.end.saturating_sub(e.start).as_secs_f64())
            .collect();
        Some(ThreadTrace {
            outer_s: outer.as_secs_f64(),
            report,
            transfers_s,
        })
    }
}

/// Timestamps of one service job, as the server reported them, plus
/// the client-side intervals around it.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// `true` for kv jobs, `false` for GEMM jobs.
    pub kv: bool,
    /// Submit RPC wall, client side.
    pub submit_s: f64,
    /// Submit to verified result, client side.
    pub client_s: f64,
    /// Server timestamps (milliseconds on the scheduler's clock).
    pub queued_ms: u64,
    /// When a worker picked the job up.
    pub started_ms: u64,
    /// When the job reached a terminal state.
    pub finished_ms: u64,
}

/// One full pass over a workload's mix.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Summed wall of its operations, seconds.
    pub wall_s: f64,
    /// Work its successful operations completed.
    pub work: f64,
}

/// Exact counts of one full cycle of a journey workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounts {
    /// Inter-PE transfers.
    pub transfers: u64,
    /// Bytes carried by those transfers.
    pub bytes: u64,
    /// Log compactions (kv only).
    pub compactions: u64,
}

/// Everything one run collects.
pub struct Recorder {
    /// Span recorder (off in the end-to-end run).
    pub tracer: Tracer,
    /// Ask the program's executors for their own trace too.
    pub executor_trace: bool,
    /// Timed operations, in order.
    pub ops: Vec<Op>,
    /// Human-readable description of every failure.
    pub failures: Vec<String>,
    /// Every completed workload cycle.
    pub cycles: Vec<Cycle>,
    /// Traced thread-executor runs.
    pub thread_traces: Vec<ThreadTrace>,
    /// Service job timings.
    pub jobs: Vec<JobTimes>,
    /// Service submissions turned away.
    pub rejected: u64,
    /// Counts of the first full GEMM journey cycle.
    pub mm_counts: Option<CycleCounts>,
    /// Counts of the first full kv journey cycle.
    pub kv_counts: Option<CycleCounts>,
    /// Simulated cells whose virtual time differed from the reference.
    pub virt_mismatch: u64,
    /// Highest resident set among the processes the workload started,
    /// kB (the benchmark process itself is read at the end).
    pub child_peak_rss_kb: u64,
    next_req: u64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new(tracer: Tracer) -> Recorder {
        Recorder {
            tracer,
            executor_trace: false,
            ops: Vec::new(),
            failures: Vec::new(),
            cycles: Vec::new(),
            thread_traces: Vec::new(),
            jobs: Vec::new(),
            rejected: 0,
            mm_counts: None,
            kv_counts: None,
            virt_mismatch: 0,
            child_peak_rss_kb: 0,
            next_req: 0,
        }
    }

    /// A fresh operation (request) id.
    pub fn next_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Record a timed operation; a failure carries its description.
    pub fn op(&mut self, latency: Duration, work: f64, failure: Option<String>) {
        let failed = failure.is_some();
        if let Some(f) = failure {
            self.failures.push(f);
        }
        self.ops.push(Op {
            latency,
            work,
            failed,
        });
    }

    /// Close the cycle whose first operation was number `first_op`.
    pub fn end_cycle(&mut self, first_op: usize) {
        let ops = &self.ops[first_op..];
        self.cycles.push(Cycle {
            wall_s: ops.iter().map(|o| o.latency.as_secs_f64()).sum(),
            work: ops.iter().filter(|o| !o.failed).map(|o| o.work).sum(),
        });
    }

    /// Move another recorder's observations into this one (the service
    /// workload records one per client thread).
    pub fn absorb(&mut self, other: Recorder) {
        self.tracer.absorb(other.tracer);
        self.ops.extend(other.ops);
        self.failures.extend(other.failures);
        self.cycles.extend(other.cycles);
        self.thread_traces.extend(other.thread_traces);
        self.jobs.extend(other.jobs);
        self.rejected += other.rejected;
        self.virt_mismatch += other.virt_mismatch;
        self.mm_counts = self.mm_counts.or(other.mm_counts);
        self.kv_counts = self.kv_counts.or(other.kv_counts);
        self.child_peak_rss_kb = self.child_peak_rss_kb.max(other.child_peak_rss_kb);
    }
}

/// When a workload loop stops: at the first cycle boundary where at
/// least `min_secs` have passed and at least `min_ops` operations were
/// timed, or once `max_secs` have passed, or after `max_cycles`; never
/// before the first cycle is complete.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measure at least this long.
    pub min_secs: f64,
    /// Time at least this many operations.
    pub min_ops: usize,
    /// Never run longer than this (the p90 may then be unreportable).
    pub max_secs: f64,
    /// Never run more cycles than this.
    pub max_cycles: usize,
}

impl Budget {
    /// Exactly one cycle (the short samples of other layers).
    pub fn one_cycle() -> Budget {
        Budget {
            min_secs: 0.0,
            min_ops: 0,
            max_secs: f64::INFINITY,
            max_cycles: 1,
        }
    }

    /// Whether a loop that has run `cycles` cycles, `ops` operations
    /// and `secs` seconds should stop. Every loop runs one cycle.
    pub fn done(&self, cycles: usize, ops: usize, secs: f64) -> bool {
        cycles > 0
            && (cycles >= self.max_cycles
                || secs >= self.max_secs
                || (secs >= self.min_secs && ops >= self.min_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_always_runs_one_cycle_and_waits_for_time_and_samples() {
        let one = Budget::one_cycle();
        assert!(!one.done(0, 0, 0.0));
        assert!(one.done(1, 0, 0.0));
        let b = Budget {
            min_secs: 20.0,
            min_ops: 100,
            max_secs: 120.0,
            max_cycles: usize::MAX,
        };
        assert!(!b.done(0, 500, 50.0), "no cycle run yet");
        assert!(!b.done(10, 60, 25.0), "too few samples for a p90");
        assert!(!b.done(10, 150, 10.0), "too short");
        assert!(b.done(20, 120, 21.0));
        assert!(b.done(20, 60, 121.0), "hard cap");
    }
}
