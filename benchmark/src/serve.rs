//! `serve_closed_loop`: `navp-serve --spawn 4` on loopback, driven by
//! two client threads of this process, each submitting a job and
//! waiting for its result through the public client before the next.

use crate::proc::Service;
use crate::record::{Budget, JobTimes, Recorder};
use crate::spans::Tracer;
use navp::SplitMix64;
use navp_kv::{run_kv_seq, KvConfig};
use navp_matrix::Grid2D;
use navp_mm::config::{MmConfig, Payload};
use navp_mm::runner::run_navp_sim;
use navp_serve::client;
use navp_serve::gemm::product_checksum;
use navp_serve::proto::{JobSpec, JobState};
use navp_sim::CostModel;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// PE daemons in the service's mesh.
pub const PES: usize = 4;
/// Concurrent closed-loop clients.
pub const CLIENTS: u32 = 2;
/// Distinct inputs per job kind; each job draws one.
const POOL: usize = 4;
/// How long a client waits for one result before counting a failure.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);

/// A job the service can be given, with its locally computed checksum.
struct Job {
    spec: JobSpec,
    checksum: u64,
}

/// Set-up state: the running service and the job pool, by kind.
pub struct Serve {
    svc: Service,
    pool: [Vec<Job>; 3],
    seed: u64,
}

fn gemm_job(stage: &str, rows: u32, cols: u32, rng: &mut SplitMix64) -> Result<Job, String> {
    let (seed_a, seed_b) = (rng.next_u64(), rng.next_u64());
    let cfg = MmConfig {
        payload: Payload::Real { seed_a, seed_b },
        ..MmConfig::real(256, 32)
    };
    let nstage = navp_serve::gemm::parse_stage(stage).ok_or("unknown stage")?;
    let grid = Grid2D::new(rows as usize, cols as usize).map_err(|e| e.to_string())?;
    let out = run_navp_sim(nstage, &cfg, grid, &CostModel::paper_cluster(), false)
        .map_err(|e| format!("serve reference {stage}: {e}"))?;
    if out.verified != Some(true) {
        return Err(format!(
            "serve reference {stage}: simulated product not verified"
        ));
    }
    let c = out.c.ok_or("serve reference: no product")?;
    Ok(Job {
        spec: JobSpec {
            stage: stage.into(),
            n: 256,
            ab: 32,
            rows,
            cols,
            seed_a,
            seed_b,
            ..JobSpec::example()
        },
        checksum: product_checksum(&c),
    })
}

fn kv_job(rng: &mut SplitMix64) -> Result<Job, String> {
    let spec = JobSpec {
        stage: "kv_phase".into(),
        seed_a: rng.next_u64(),
        ..JobSpec::example_kv()
    };
    // The service's kv job shape: `n` ops in `ab` batches, seeded by
    // `seed_a`, default value length when `seed_b` is 0.
    let cfg = KvConfig::new(spec.n as usize, spec.ab as usize).with_seed(spec.seed_a);
    let seq = run_kv_seq(&cfg).map_err(|e| format!("serve kv reference: {e}"))?;
    if seq.verified != Some(true) {
        return Err("serve kv reference: sequential step not verified".into());
    }
    Ok(Job {
        spec,
        checksum: seq.product.checksum(),
    })
}

/// Generate the job pool from `seed` with a local reference checksum
/// for each job, start the service, and warm it up with one verified
/// job of each kind.
pub fn setup(seed: u64, bin_dir: &Path, work_dir: &Path) -> Result<Serve, String> {
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276);
    let mut pool: [Vec<Job>; 3] = Default::default();
    for _ in 0..POOL {
        pool[0].push(gemm_job("phase1d", 1, 4, &mut rng)?);
        pool[1].push(gemm_job("dpc2d", 2, 2, &mut rng)?);
        pool[2].push(kv_job(&mut rng)?);
    }
    let svc = Service::start(bin_dir, work_dir, PES)?;
    let s = Serve { svc, pool, seed };
    let mut warm = Recorder::new(Tracer::off());
    for kind in &s.pool {
        submit_and_wait(&s.svc.addr, &kind[0], &mut warm);
    }
    match warm.failures.first() {
        Some(f) => Err(format!("service warm-up: {f}")),
        None => Ok(s),
    }
}

/// One closed-loop job: submit, wait for the terminal state, check.
fn submit_and_wait(addr: &str, job: &Job, rec: &mut Recorder) {
    let req = rec.next_req();
    let op = rec.tracer.enter("bench:op", req);
    let t = Instant::now();
    let sub = rec.tracer.span("serve:submit", req, || {
        client::submit(addr, job.spec.clone())
    });
    let submit_s = t.elapsed().as_secs_f64();
    let id = match sub {
        Ok(Ok(id)) => id,
        Ok(Err(reason)) => {
            rec.tracer.exit(op);
            rec.rejected += 1;
            rec.op(t.elapsed(), 1.0, Some(format!("job rejected: {reason:?}")));
            return;
        }
        Err(e) => {
            rec.tracer.exit(op);
            rec.op(t.elapsed(), 1.0, Some(format!("submit: {e}")));
            return;
        }
    };
    let res = rec.tracer.span("serve:wait_terminal", req, || {
        client::wait_terminal(addr, id, RESULT_TIMEOUT)
    });
    let latency = t.elapsed();
    rec.tracer.exit(op);
    let check = rec.tracer.enter("bench:check", req);
    let failure = match res {
        Err(e) => Some(format!("job {id}: {e}")),
        Ok((info, outcome)) => {
            rec.jobs.push(JobTimes {
                kv: job.spec.kind == navp_serve::proto::JobKind::Kv,
                submit_s,
                client_s: latency.as_secs_f64(),
                queued_ms: info.queued_ms,
                started_ms: info.started_ms,
                finished_ms: info.finished_ms,
            });
            match outcome {
                _ if info.state != JobState::Done => {
                    Some(format!("job {id}: {} {}", info.state.name(), info.detail))
                }
                Some(o) if o.verified && o.checksum == job.checksum => None,
                Some(o) => Some(format!(
                    "job {id} ({}): checksum {:#x} verified {}, want {:#x}",
                    job.spec.stage, o.checksum, o.verified, job.checksum
                )),
                None => Some(format!("job {id}: done without an outcome")),
            }
        }
    };
    rec.tracer.exit(check);
    rec.op(latency, 1.0, failure);
}

/// Drive the service with [`CLIENTS`] closed-loop clients until
/// `budget` says stop; each client stops at the end of a cycle (one job
/// of each kind, in seeded order). Client threads record into their
/// own recorders, merged into `rec` afterwards.
pub fn run(s: &Serve, budget: Budget, rec: &mut Recorder) {
    let t0 = Instant::now();
    let done = AtomicUsize::new(0);
    let anchor = rec.tracer.anchor();
    let on = rec.tracer.is_on();
    let per_client: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let done = &done;
                scope.spawn(move || {
                    let mut own = Recorder::new(Tracer::new(on, anchor, c + 1));
                    let mut rng = SplitMix64::new(s.seed ^ 0x636c_0000 ^ u64::from(c));
                    let mut cycles = 0;
                    while !budget.done(
                        cycles,
                        done.load(Ordering::Relaxed),
                        t0.elapsed().as_secs_f64(),
                    ) {
                        let first = own.ops.len();
                        let mut kinds = [0usize, 1, 2];
                        for i in (1..kinds.len()).rev() {
                            kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                        }
                        for k in kinds {
                            let job = &s.pool[k][(rng.next_u64() % POOL as u64) as usize];
                            submit_and_wait(&s.svc.addr, job, &mut own);
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        own.end_cycle(first);
                        cycles += 1;
                    }
                    own
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for own in per_client {
        rec.absorb(own);
    }
    rec.child_peak_rss_kb = rec.child_peak_rss_kb.max(s.svc.peak_rss_kb());
}

/// Stop the service and its PEs; an unclean stop is an error.
pub fn teardown(s: Serve) -> Result<(), String> {
    s.svc.stop()
}
