//! `kv_journey_threads`: one closed-loop caller cycling the four steps
//! of the key-value journey on the thread executor.

use crate::record::{Budget, CycleCounts, Recorder, ThreadTrace};
use navp::SplitMix64;
use navp_kv::{run_kv_seq, run_kv_threads_unverified, KvConfig, KvStage};
use std::time::Instant;

/// Operations per run of the smallest and of the largest input; the
/// inputs' sizes step geometrically between them.
pub const OPS_RANGE: (usize, usize) = (10_000, 40_000);
/// Client batches per run.
pub const BATCHES: usize = 16;
/// Mesh width of the distributed steps (the sequential step uses one).
pub const PES: usize = 4;
/// Distinct seeded inputs, each of its own size. The thread executor
/// polls for completion every 20 ms, so the wall of one size sits on a
/// few tick values and a median over one size flips by a whole tick
/// when the host speeds up or slows down a little. Over many sizes the
/// walls cover many ticks, and the run's percentiles move smoothly with
/// the program's speed.
const POOL: usize = 32;

/// Span name of each step's runner call, in [`KvStage::ALL`] order.
pub const STAGE_SPANS: [&str; 4] = ["kv:kv_seq", "kv:kv_dsc", "kv:kv_pipe", "kv:kv_phase"];

/// Set-up state: the workloads and their reference checksums.
pub struct Kv {
    pool: Vec<(KvConfig, u64)>,
}

/// Derive the workloads from `seed` and take each reference checksum
/// from the sequential step, which is itself verified against the
/// library's independent `BTreeMap` oracle.
pub fn setup(seed: u64) -> Result<Kv, String> {
    let mut rng = SplitMix64::new(seed ^ 0x6b76_0000);
    let mut pool = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let cfg = KvConfig::new(ops_of(i), BATCHES).with_seed(rng.next_u64());
        let seq = run_kv_seq(&cfg).map_err(|e| format!("kv reference: {e}"))?;
        if seq.verified != Some(true) {
            return Err("kv reference: sequential step disagrees with the oracle".into());
        }
        pool.push((cfg, seq.product.checksum()));
    }
    Ok(Kv { pool })
}

/// Operations of the `i`-th input: geometric steps over [`OPS_RANGE`].
fn ops_of(i: usize) -> usize {
    let (lo, hi) = OPS_RANGE;
    let step = (hi as f64 / lo as f64).powf(i as f64 / (POOL - 1) as f64);
    (lo as f64 * step).round() as usize
}

/// The input cycle `c` runs: the bit-reversed index of `c % POOL`, so
/// that every run, however many cycles it completes, spreads its
/// cycles over the sizes as evenly as their number allows.
fn input_of(c: usize) -> usize {
    const BITS: u32 = POOL.trailing_zeros();
    (c % POOL).reverse_bits() >> (usize::BITS - BITS)
}

/// Run whole journey cycles until `budget` says stop.
pub fn run(k: &Kv, budget: Budget, rec: &mut Recorder) {
    let t0 = Instant::now();
    let mut cycles = 0;
    let ops0 = rec.ops.len();
    while !budget.done(cycles, rec.ops.len() - ops0, t0.elapsed().as_secs_f64()) {
        let first = rec.ops.len();
        let mut counts = CycleCounts::default();
        let (cfg, checksum) = k.pool[input_of(cycles)];
        for (i, stage) in KvStage::ALL.into_iter().enumerate() {
            let cfg = cfg.with_trace(rec.executor_trace);
            let req = rec.next_req();
            let op = rec.tracer.enter("bench:op", req);
            let t = Instant::now();
            let res = rec.tracer.span(STAGE_SPANS[i], req, || {
                run_kv_threads_unverified(stage, &cfg, stage.effective_pes(PES))
            });
            let latency = t.elapsed();
            rec.tracer.exit(op);
            let check = rec.tracer.enter("bench:check", req);
            let failure = match res {
                Err(e) => Some(format!("{stage}: {e}")),
                Ok(out) => {
                    counts.transfers += out.transfers;
                    counts.bytes += out.bytes;
                    counts.compactions += out.stats.compactions;
                    if let Some(tt) =
                        ThreadTrace::new(latency, out.trace.as_ref(), out.trace_report)
                    {
                        rec.thread_traces.push(tt);
                    }
                    (out.product.checksum() != checksum)
                        .then(|| format!("{stage}: product checksum differs from kv_seq"))
                }
            };
            rec.tracer.exit(check);
            rec.op(latency, cfg.ops as f64, failure);
        }
        rec.end_cycle(first);
        rec.kv_counts.get_or_insert(counts);
        cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_step_geometrically_over_the_range() {
        assert_eq!(ops_of(0), OPS_RANGE.0);
        assert_eq!(ops_of(POOL - 1), OPS_RANGE.1);
        assert!((1..POOL).all(|i| ops_of(i) > ops_of(i - 1)));
    }

    #[test]
    fn every_prefix_of_cycles_spreads_over_the_sizes() {
        assert!(POOL.is_power_of_two());
        let first: Vec<usize> = (0..POOL).map(input_of).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..POOL).collect::<Vec<_>>(), "a permutation");
        // The first 2^k cycles take one input from each 2^k-th of the
        // size range.
        for k in 0..=POOL.trailing_zeros() {
            let width = POOL >> k;
            let mut buckets: Vec<usize> = first[..1 << k].iter().map(|i| i / width).collect();
            buckets.sort_unstable();
            assert_eq!(buckets, (0..1 << k).collect::<Vec<_>>());
        }
        assert_eq!(input_of(POOL + 3), input_of(3));
    }
}
