//! `navbench`: the repository benchmark.
//!
//! ```text
//! navbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir>
//! navbench --write-sim-reference      # re-record sim_reference.tsv
//! navbench --list-layers              # per-layer metrics and what they should move
//! ```
//!
//! `benchmark/run.py` builds the program and this binary from source and
//! supplies `--bin-dir`. With `--trace 0` the run measures the
//! end-to-end metrics with all tracing off; with `--trace 1` it records
//! spans around every call into the program, turns on the executors'
//! own tracing, and reports the per-layer metrics. Every timed output
//! is checked outside the timed interval; any failure makes the result
//! `"correct": false` and the exit code non-zero. The last line of
//! standard output is the JSON result.

mod gemm;
mod kv;
mod layers;
mod probes;
mod proc;
mod record;
mod serve;
mod sim;
mod spans;
mod stats;

use record::{Budget, Recorder};
use spans::{Span, Tracer};
use stats::{mean, median_of_repeats, percentile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed operations an end-to-end run needs so its p90 has ten
/// samples beyond it.
const MIN_OPS: usize = 100;
/// Hard cap on the measuring loop, so that a run ends within three minutes.
const MAX_LOOP_SECS: f64 = 120.0;

/// Environment variables that change the program being measured.
const REFUSED_ENV: [&str; 3] = ["NAVP_WATCHDOG_MS", "NAVP_FAULT_SPEC", "NAVP_NET_IO_THREADS"];
/// Prefix of the flight-recorder variables, refused as well.
const REFUSED_PREFIX: &str = "NAVP_FLIGHT";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Gemm,
    Kv,
    Serve,
    Sim,
}

impl Workload {
    const ALL: [Workload; 4] = [Workload::Gemm, Workload::Kv, Workload::Serve, Workload::Sim];

    fn name(self) -> &'static str {
        match self {
            Workload::Gemm => "gemm_journey_threads",
            Workload::Kv => "kv_journey_threads",
            Workload::Serve => "serve_closed_loop",
            Workload::Sim => "paper_tables_sim",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

enum State {
    Gemm(gemm::Gemm),
    Kv(kv::Kv),
    Serve(serve::Serve),
    Sim(sim::Sim),
}

struct Ctx {
    seed: u64,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn setup(w: Workload, ctx: &Ctx, attempt: usize) -> Result<State, String> {
    Ok(match w {
        Workload::Gemm => State::Gemm(gemm::setup(ctx.seed)?),
        Workload::Kv => State::Kv(kv::setup(ctx.seed)?),
        Workload::Serve => {
            let dir = ctx
                .out_dir
                .join(format!("serve-{}-{attempt}", std::process::id()));
            State::Serve(serve::setup(ctx.seed, &ctx.bin_dir, &dir)?)
        }
        Workload::Sim => State::Sim(sim::setup()?),
    })
}

fn run(state: &State, budget: Budget, rec: &mut Recorder) {
    match state {
        State::Gemm(g) => gemm::run(g, budget, rec),
        State::Kv(k) => kv::run(k, budget, rec),
        State::Serve(s) => serve::run(s, budget, rec),
        State::Sim(s) => sim::run(s, budget, rec),
    }
}

fn teardown(state: State) -> Result<(), String> {
    match state {
        State::Serve(s) => serve::teardown(s),
        _ => Ok(()),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

const USAGE: &str = "usage: navbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     --bin-dir <dir> | --write-sim-reference | --list-layers";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

/// The variables that would change the measured program, if any is set.
fn refused_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with(REFUSED_PREFIX))
        .collect()
}

/// `nproc`, compiler and source identity of this run.
fn env_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = cmd("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("none (source fnv {:#018x})", source_fingerprint()));
    format!("nproc={nproc} rustc=\"{rustc}\" commit={commit}")
}

/// FNV-1a over the paths and contents of the program's sources, for
/// checkouts that are not git repositories.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Cumulative CPU time stolen from this (virtual) machine by its hypervisor, in
/// clock ticks summed over all CPUs (`/proc/stat`), if available.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
struct Report {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Report {
    fn new(rec: &Recorder) -> Report {
        Report {
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: rec.ops.len(),
            failed: rec.ops.iter().filter(|o| o.failed).count(),
            failures: rec.failures.clone(),
        }
    }

    /// Add a metric, or record why it could not be computed.
    fn metric(&mut self, name: &'static str, unit: &'static str, value: Option<f64>, why: &str) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push(Metric {
                name,
                value: v,
                unit,
            }),
            _ => self
                .failures
                .push(format!("{name}: not computable ({why})")),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn latencies_ms(rec: &Recorder) -> Vec<f64> {
    rec.ops
        .iter()
        .map(|o| {
            if o.failed {
                f64::INFINITY
            } else {
                o.latency.as_secs_f64() * 1e3
            }
        })
        .collect()
}

/// The end-to-end run: set up [`SETUPS`] times, then measure with all
/// tracing off.
fn end_to_end(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let start = Instant::now();
    let mut rec = Recorder::new(Tracer::off());
    let mut setups = Vec::new();
    let mut state = None;
    for attempt in 0..SETUPS {
        if let Some(old) = state.take() {
            if let Err(e) = teardown(old) {
                rec.failures.push(e);
            }
        }
        let t = Instant::now();
        state = Some(setup(args.workload, ctx, attempt)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");
    let budget = Budget {
        min_secs: args.seconds,
        min_ops: MIN_OPS,
        max_secs: (MAX_LOOP_SECS - start.elapsed().as_secs_f64()).max(args.seconds),
        max_cycles: usize::MAX,
    };
    let t = Instant::now();
    run(&state, budget, &mut rec);
    let window = t.elapsed().as_secs_f64();
    if let Err(e) = teardown(state) {
        rec.failures.push(e);
    }

    let w = args.workload;
    // A single closed-loop caller: the median over cycles of the
    // cycle's work per second of its summed run wall, so that a burst
    // of interference in part of the window moves it little. The
    // service has two concurrent clients: work per second of window.
    let work_per_s = if w == Workload::Serve {
        rec.ops
            .iter()
            .filter(|o| !o.failed)
            .map(|o| o.work)
            .sum::<f64>()
            / window
    } else {
        let rates: Vec<f64> = rec.cycles.iter().map(|c| c.work / c.wall_s).collect();
        median_of_repeats(&rates).unwrap_or(0.0)
    };
    let cycles = rec.cycles.len();
    let lat = latencies_ms(&rec);
    let n = lat.len();
    let (p50, p90) = (percentile(&lat, 0.5), percentile(&lat, 0.9));
    let rss_mb = proc::self_peak_rss_kb().max(rec.child_peak_rss_kb) as f64 / 1024.0;
    let setup_s = median_of_repeats(&setups);

    let mut r = Report::new(&rec);
    let fmt_opt = |v: Option<f64>, unit: &str| {
        v.map_or_else(|| "not computable".into(), |v| format!("{v:.4} {unit}"))
    };
    let setups_txt: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    r.lines.push(format!(
        "setup_s       {}   (median of {SETUPS} set-ups: {})",
        fmt_opt(setup_s, "s"),
        setups_txt.join(", ")
    ));
    // The workload-specific throughput of each workload, by the name
    // the design gives it; `work_per_s` carries it in the JSON.
    let per_cycle = format!("median over {cycles} cycles of cycle work / cycle run wall");
    let walls: Vec<f64> = rec.cycles.iter().map(|c| c.wall_s).collect();
    let named = [
        (
            "gemm_gflops",
            Workload::Gemm,
            work_per_s / 1e9,
            "GFLOP/s",
            per_cycle.clone(),
        ),
        ("kv_ops_per_s", Workload::Kv, work_per_s, "1/s", per_cycle),
        (
            "jobs_per_s",
            Workload::Serve,
            work_per_s,
            "1/s",
            "verified jobs / window wall".into(),
        ),
        (
            "tables_s",
            Workload::Sim,
            median_of_repeats(&walls).unwrap_or(f64::NAN),
            "s",
            format!("median of {cycles} regenerations"),
        ),
    ];
    for (name, owner, value, unit, basis) in named {
        r.lines.push(if owner == w {
            format!("{name:<13} {value:.4} {unit}   ({basis}, {n} operations)")
        } else {
            format!("{name:<13} n/a (measured on {} only)", owner.name())
        });
    }
    r.lines
        .push(format!("run_p50_ms    {}   (n={n})", fmt_opt(p50, "ms")));
    r.lines
        .push(format!("run_p90_ms    {}   (n={n})", fmt_opt(p90, "ms")));
    r.lines.push(format!(
        "failed_ratio  {}   ({} of {} operations)",
        r.failed as f64 / n.max(1) as f64,
        r.failed,
        n
    ));
    r.lines.push(format!("peak_rss_mb   {rss_mb:.1} MB"));
    r.lines.push(format!(
        "work_per_s    {work_per_s:.4} 1/s   (window {window:.2} s)"
    ));

    r.metric("setup_s", "s", setup_s, "no set-up");
    r.metric(
        "work_per_s",
        "1/s",
        (work_per_s > 0.0).then_some(work_per_s),
        "no work completed",
    );
    r.metric("run_p50_ms", "ms", p50, &format!("{n} samples"));
    r.metric("run_p90_ms", "ms", p90, &format!("{n} samples"));
    r.metric("peak_rss_mb", "MB", Some(rss_mb), "");
    Ok(r)
}

fn mean_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> Option<f64> {
    mean(&xs.iter().map(f).collect::<Vec<_>>())
}

/// Mean length, in ms, of the spans named `name`.
fn span_ms(spans: &[Span], name: &str) -> Option<f64> {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.len_ns() as f64 / 1e6)
        .collect();
    mean(&v)
}

/// The traced run: the workload untraced then traced for half the
/// window each, one short sample of every other workload so that every
/// layer is measured, then the isolated layer probes.
fn traced(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let w = args.workload;
    let anchor = Instant::now();
    let mut rec = Recorder::new(Tracer::new(false, anchor, 0));
    let state = setup(w, ctx, 0)?;
    let half = Budget {
        min_secs: args.seconds / 2.0,
        min_ops: 0,
        max_secs: MAX_LOOP_SECS / 4.0,
        max_cycles: usize::MAX,
    };
    run(&state, half, &mut rec);
    let untraced_ops = rec.ops.len();
    rec.tracer.set_on(true);
    rec.executor_trace = true;
    let from = rec.tracer.now_ns();
    run(&state, half, &mut rec);
    let to = rec.tracer.now_ns();
    if let Err(e) = teardown(state) {
        rec.failures.push(e);
    }
    let op_ms = |ops: &[record::Op]| mean_of(ops, |o| o.latency.as_secs_f64() * 1e3);
    let overhead = op_ms(&rec.ops[untraced_ops..])
        .zip(op_ms(&rec.ops[..untraced_ops]))
        .map(|(t, u)| (t / u - 1.0) * 100.0);
    let coverage = spans::layer_coverage(rec.tracer.spans(), from, to);

    let mut samples = Recorder::new(Tracer::new(true, anchor, 0));
    samples.executor_trace = true;
    for other in Workload::ALL.into_iter().filter(|&o| o != w) {
        let id = samples.tracer.enter("bench:setup", 0);
        let state = setup(other, ctx, 1)?;
        samples.tracer.exit(id);
        run(&state, Budget::one_cycle(), &mut samples);
        if let Err(e) = teardown(state) {
            samples.failures.push(e);
        }
    }
    rec.absorb(samples);
    let probes = probes::run_all();

    let mut v: Vec<(&'static str, Option<f64>)> = Vec::new();
    v.extend(probes.iter().map(|&(n, x)| (n, Some(x))));
    let spans = rec.tracer.spans();
    for (i, name) in gemm::STAGE_SPANS.iter().enumerate() {
        const METRICS: [&str; 6] = [
            "mm.dsc1d_ms",
            "mm.pipe1d_ms",
            "mm.phase1d_ms",
            "mm.dsc2d_ms",
            "mm.pipe2d_ms",
            "mm.dpc2d_ms",
        ];
        v.push((METRICS[i], span_ms(spans, name)));
    }
    for (i, name) in kv::STAGE_SPANS.iter().enumerate() {
        const METRICS: [&str; 4] = ["kv.seq_ms", "kv.dsc_ms", "kv.pipe_ms", "kv.phase_ms"];
        v.push((METRICS[i], span_ms(spans, name)));
    }
    let mm = rec.mm_counts;
    let kvc = rec.kv_counts;
    v.push(("mm.transfers", mm.map(|c| c.transfers as f64)));
    v.push(("mm.bytes", mm.map(|c| c.bytes as f64)));
    v.push(("kv.transfers", kvc.map(|c| c.transfers as f64)));
    v.push(("kv.bytes", kvc.map(|c| c.bytes as f64)));
    v.push(("kv.compactions", kvc.map(|c| c.compactions as f64)));
    v.push((
        "core.sim_navp_cells_ms",
        span_ms(spans, "core:sim_navp_cell"),
    ));
    v.push(("sim.seq_cells_ms", span_ms(spans, "sim:seq_cell")));
    v.push(("mp.sim_cells_ms", span_ms(spans, "mp:sim_cell")));
    v.push(("sim.virt_mismatch", Some(rec.virt_mismatch as f64)));

    // Every traced thread run of this traced run: the workload's own
    // and the samples'.
    let tt = &rec.thread_traces;
    v.push((
        "core.busy_ms",
        mean_of(tt, |t| t.report.busy_per_pe.iter().sum::<f64>() * 1e3),
    ));
    v.push((
        "core.block_ms",
        mean_of(tt, |t| {
            t.report.waits_per_pe.iter().map(|w| w.1).sum::<f64>() * 1e3
        }),
    ));
    let transfers_us: Vec<f64> = tt
        .iter()
        .flat_map(|t| t.transfers_s.iter().map(|s| s * 1e6))
        .collect();
    v.push(("core.hop_transfer_p50_us", percentile(&transfers_us, 0.5)));
    v.push(("core.hop_transfer_p90_us", percentile(&transfers_us, 0.9)));
    v.push(("core.utilization", mean_of(tt, |t| t.report.utilization)));
    let fills: Vec<f64> = tt
        .iter()
        .filter_map(|t| t.report.pipeline_fill)
        .map(|f| f * 1e3)
        .collect();
    v.push(("core.pipeline_fill_ms", mean(&fills)));
    v.push((
        "core.unattributed_ms",
        mean_of(tt, |t| (t.outer_s - t.report.makespan) * 1e3),
    ));
    v.push((
        "core.trace_dropped",
        (!tt.is_empty()).then(|| tt.iter().map(|t| t.report.dropped as f64).sum()),
    ));

    let (gemm_jobs, kv_jobs): (Vec<_>, Vec<_>) = rec.jobs.iter().partition(|j| !j.kv);
    let run_ms = |j: &&record::JobTimes| j.finished_ms.saturating_sub(j.started_ms) as f64;
    v.push(("net.gemm_run_ms", mean_of(&gemm_jobs, run_ms)));
    v.push(("net.kv_run_ms", mean_of(&kv_jobs, run_ms)));
    v.push((
        "serve.submit_rpc_ms",
        mean_of(&rec.jobs, |j| j.submit_s * 1e3),
    ));
    v.push((
        "serve.queue_wait_ms",
        mean_of(&rec.jobs, |j| {
            j.started_ms.saturating_sub(j.queued_ms) as f64
        }),
    ));
    v.push((
        "serve.result_lag_ms",
        mean_of(&rec.jobs, |j| {
            j.client_s * 1e3 - j.finished_ms.saturating_sub(j.queued_ms) as f64 - j.submit_s * 1e3
        }),
    ));
    v.push(("serve.rejected", Some(rec.rejected as f64)));
    v.push(("load.trace_overhead_pct", overhead));
    v.push(("load.layer_coverage", Some(coverage)));

    let spans_path = ctx
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name(), ctx.seed));
    let mut r = Report::new(&rec);
    if let Err(e) = rec.tracer.write_jsonl(&spans_path) {
        r.failures
            .push(format!("writing {}: {e}", spans_path.display()));
    }
    r.lines.push(format!(
        "traced window {:.2} s, {} spans written to {}, {} traced thread runs",
        (to - from) as f64 / 1e9,
        rec.tracer.spans().len(),
        spans_path.display(),
        tt.len()
    ));
    for m in layers::LAYER_METRICS {
        let value = v.iter().find(|(n, _)| *n == m.name).and_then(|(_, x)| *x);
        r.lines.push(format!(
            "{:<30} {:>16} {}",
            m.name,
            value.map_or("n/a".into(), |x| format!("{x:.4}")),
            m.unit
        ));
        r.metric(m.name, m.unit, value, "no samples of this layer");
    }
    if let Some((n, _)) = v.iter().find(|(n, _)| layers::find(n).is_none()) {
        r.failures.push(format!("{n}: measured but not declared"));
    }
    if rec.virt_mismatch > 0 || rec.rejected > 0 {
        r.failures
            .push("simulated-time mismatches or rejected jobs".into());
    }
    if tt.iter().any(|t| t.report.dropped > 0) {
        r.failures.push("an executor trace dropped events".into());
    }
    Ok(r)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--write-sim-reference") => {
            let text = sim::render_reference().unwrap_or_else(|e| {
                eprintln!("navbench: {e}");
                std::process::exit(1)
            });
            if let Err(e) = std::fs::write(sim::REFERENCE, text) {
                eprintln!("navbench: writing {}: {e}", sim::REFERENCE);
                std::process::exit(1);
            }
            return;
        }
        Some("--list-layers") => {
            for m in layers::LAYER_METRICS {
                println!("{}\t{}\t{}\t{}", m.name, m.unit, m.better, m.moves);
            }
            return;
        }
        _ => {}
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("navbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let refused = refused_env();
    if !refused.is_empty() {
        eprintln!(
            "navbench: refusing to run with {} set: each changes the program being measured",
            refused.join(", ")
        );
        std::process::exit(2);
    }
    if !proc::become_subreaper() {
        eprintln!("navbench: cannot become a subreaper; orphaned PE daemons may escape clean-up");
    }
    let out_dir = args
        .bin_dir
        .parent()
        .map_or_else(|| PathBuf::from("navbench"), |p| p.join("navbench"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("navbench: {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        bin_dir: args.bin_dir.clone(),
        out_dir,
    };
    println!(
        "# {} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env_line()
    );
    let (t0, steal0) = (Instant::now(), steal_ticks());
    let report = if args.trace {
        traced(&args, &ctx)
    } else {
        end_to_end(&args, &ctx)
    };
    let report = report.unwrap_or_else(|e| {
        eprintln!("navbench: {e}");
        std::process::exit(1)
    });
    for l in &report.lines {
        println!("{l}");
    }
    if let (Some(a), Some(b)) = (steal0, steal_ticks()) {
        // /proc/stat counts in USER_HZ (100) ticks per CPU.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let pct = (b - a) as f64 / (t0.elapsed().as_secs_f64() * 100.0 * cpus) * 100.0;
        println!(
            "# host steal {pct:.1}% of CPU time during this run (interference from other tenants)"
        );
    }
    // The first failures and the last (teardown problems come last).
    let n = report.failures.len();
    for (i, f) in report.failures.iter().enumerate() {
        if i < 10 || i + 3 >= n {
            println!("FAILED: {f}");
        } else if i == 10 {
            println!("FAILED: ... {} more", n - 13);
        }
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
