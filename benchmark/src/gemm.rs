//! `gemm_journey_threads`: one closed-loop caller cycling the six NavP
//! stages of the case study on the thread executor.

use crate::record::{Budget, CycleCounts, Recorder, ThreadTrace};
use navp::SplitMix64;
use navp_matrix::{Grid2D, Matrix};
use navp_mm::config::{MmConfig, Payload};
use navp_mm::runner::{run_navp_sim, run_navp_threads_unverified, NavpStage};
use navp_sim::CostModel;
use std::time::Instant;

/// Matrix order.
pub const N: usize = 1024;
/// Algorithmic block order.
pub const AB: usize = 128;
/// Flops of one product (multiply and add counted separately).
pub const FLOPS: f64 = 2.0 * (N * N * N) as f64;

/// Span name of each stage's runner call, in [`NavpStage::ALL`] order.
pub const STAGE_SPANS: [&str; 6] = [
    "mm:dsc1d",
    "mm:pipe1d",
    "mm:phase1d",
    "mm:dsc2d",
    "mm:pipe2d",
    "mm:dpc2d",
];

/// The PE topology of a stage: a line of 4 or a 2x2 grid.
pub fn grid_of(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(4).expect("a line of 4 PEs is a valid grid")
    } else {
        Grid2D::new(2, 2).expect("2x2 is a valid grid")
    }
}

/// Set-up state: the problem and one bitwise reference per stage.
pub struct Gemm {
    cfg: MmConfig,
    refs: Vec<Matrix>,
}

/// Generate the operands from `seed` and compute the references: the
/// sequential product, and for each stage the product of the
/// simulator, which must match it within 1e-9 and which every threaded
/// run must then reproduce bit for bit.
pub fn setup(seed: u64) -> Result<Gemm, String> {
    let mut rng = SplitMix64::new(seed ^ 0x6e6d_6d00);
    let cfg = MmConfig {
        payload: Payload::Real {
            seed_a: rng.next_u64(),
            seed_b: rng.next_u64(),
        },
        ..MmConfig::real(N, AB)
    };
    let seq = cfg
        .expected()
        .map_err(|e| format!("gemm reference: {e}"))?
        .ok_or("gemm reference: real payload has no product")?;
    let cost = CostModel::paper_cluster();
    let mut refs = Vec::with_capacity(NavpStage::ALL.len());
    for stage in NavpStage::ALL {
        let out = run_navp_sim(stage, &cfg, grid_of(stage), &cost, false)
            .map_err(|e| format!("gemm reference {stage:?}: {e}"))?;
        let c = out
            .c
            .ok_or(format!("gemm reference {stage:?}: no product"))?;
        let diff = c.max_abs_diff(&seq);
        if diff >= 1e-9 {
            return Err(format!(
                "gemm reference {stage:?}: simulated product is {diff:e} off the sequential one"
            ));
        }
        refs.push(c);
    }
    Ok(Gemm { cfg, refs })
}

/// Bitwise equality of two matrices.
pub fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run whole journey cycles until `budget` says stop.
pub fn run(g: &Gemm, budget: Budget, rec: &mut Recorder) {
    let t0 = Instant::now();
    let mut cycles = 0;
    let ops0 = rec.ops.len();
    while !budget.done(cycles, rec.ops.len() - ops0, t0.elapsed().as_secs_f64()) {
        let first = rec.ops.len();
        let mut counts = CycleCounts::default();
        for (i, stage) in NavpStage::ALL.into_iter().enumerate() {
            let cfg = g.cfg.with_trace(rec.executor_trace);
            let req = rec.next_req();
            let op = rec.tracer.enter("bench:op", req);
            let t = Instant::now();
            let res = rec.tracer.span(STAGE_SPANS[i], req, || {
                run_navp_threads_unverified(stage, &cfg, grid_of(stage))
            });
            let latency = t.elapsed();
            rec.tracer.exit(op);
            let check = rec.tracer.enter("bench:check", req);
            let failure = match res {
                Err(e) => Some(format!("{stage:?}: {e}")),
                Ok(out) => {
                    counts.transfers += out.transfers;
                    counts.bytes += out.bytes;
                    if let Some(tt) =
                        ThreadTrace::new(latency, out.trace.as_ref(), out.trace_report)
                    {
                        rec.thread_traces.push(tt);
                    }
                    match &out.c {
                        Some(c) if bitwise_eq(c, &g.refs[i]) => None,
                        Some(_) => Some(format!("{stage:?}: product differs from the reference")),
                        None => Some(format!("{stage:?}: no product")),
                    }
                }
            };
            rec.tracer.exit(check);
            rec.op(latency, FLOPS, failure);
        }
        rec.end_cycle(first);
        rec.mm_counts.get_or_insert(counts);
        cycles += 1;
    }
}
