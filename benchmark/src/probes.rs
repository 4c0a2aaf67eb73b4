//! Short probes that time one layer in isolation through its public
//! API: the GEMM kernel, the thread and simulated executors, the kv
//! shard and the net frame codec.

use navp::script::Script;
use navp::{Cluster, Effect, Key, SimExecutor, ThreadExecutor, WireSnapshot};
use navp_kv::Shard;
use navp_matrix::block::BlockData;
use navp_matrix::kernel::gemm_acc;
use navp_net::{Frame, FrameDecoder};
use navp_sim::CostModel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall of each throughput probe.
const PROBE_WALL: Duration = Duration::from_millis(150);

/// Repeat `f` until [`PROBE_WALL`] has passed; returns (calls, seconds).
fn repeat(mut f: impl FnMut()) -> (u64, f64) {
    let t = Instant::now();
    let mut calls = 0;
    while t.elapsed() < PROBE_WALL {
        f();
        calls += 1;
    }
    (calls, t.elapsed().as_secs_f64())
}

/// Deterministic filler data.
fn filler(len: usize, salt: u64) -> Vec<f64> {
    let mut rng = navp::SplitMix64::new(salt);
    (0..len)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// GFLOP/s of `gemm_acc` on square blocks of order `b`.
fn kernel_gflops(b: usize) -> f64 {
    let (a, bm) = (filler(b * b, 1), filler(b * b, 2));
    let mut c = vec![0.0; b * b];
    let (calls, secs) =
        repeat(|| gemm_acc(black_box(&mut c), black_box(&a), black_box(&bm), b, b, b));
    black_box(&c);
    2.0 * (b * b * b) as f64 * calls as f64 / secs / 1e9
}

/// GFLOP/s of one `gemm_acc` over the whole 1024² problem on this
/// thread, best of two calls.
fn seq_gemm_gflops_n1024() -> f64 {
    let n = 1024;
    let (a, b) = (filler(n * n, 3), filler(n * n, 4));
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let mut c = vec![0.0; n * n];
        let t = Instant::now();
        gemm_acc(black_box(&mut c), black_box(&a), black_box(&b), n, n, n);
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&c);
    }
    2.0 * (n * n * n) as f64 / best / 1e9
}

/// Mean wall, in seconds, of `runs` thread-executor runs of `build()`.
fn thread_run_s(runs: u32, build: impl Fn() -> Cluster) -> f64 {
    let mut total = 0.0;
    for _ in 0..runs {
        let cl = build();
        let t = Instant::now();
        ThreadExecutor::new().run(cl).expect("probe cluster runs");
        total += t.elapsed().as_secs_f64();
    }
    total / runs as f64
}

fn empty_cluster(pes: usize) -> Cluster {
    let mut cl = Cluster::new(pes).expect("probe cluster");
    cl.inject(0, Script::new("noop").then(|_| Effect::Done));
    cl
}

/// Hops and signal pairs per probe run. The thread executor notices
/// the end of a run on a 20 ms poll, so a run must last well beyond
/// that for the per-hop figure to resolve.
const HOPS: usize = 50_000;
const SIGNALS: usize = 200_000;

fn ping_pong(hops: usize) -> Cluster {
    let mut cl = Cluster::new(2).expect("two PEs");
    cl.inject(
        0,
        Script::new("pingpong").then_each(hops, |i, _| Effect::Hop((i + 1) % 2)),
    );
    cl
}

fn signal_pairs() -> Cluster {
    let mut cl = Cluster::new(1).expect("one PE");
    cl.inject(
        0,
        Script::new("producer").then_each(SIGNALS, |i, ctx| {
            ctx.signal(Key::at("tok", i));
            Effect::Hop(0)
        }),
    );
    cl.inject(
        0,
        Script::new("consumer").then_each(SIGNALS, |i, _| Effect::WaitEvent(Key::at("tok", i))),
    );
    cl
}

/// Simulated events (steps plus hops) per second of wall.
fn sim_events_per_s() -> f64 {
    let (mut events, mut secs) = (0u64, 0.0);
    for _ in 0..3 {
        let cl = ping_pong(20_000);
        let t = Instant::now();
        let rep = SimExecutor::new(CostModel::paper_cluster())
            .run(cl)
            .expect("sim probe runs");
        secs += t.elapsed().as_secs_f64();
        events += rep.steps + rep.hops;
    }
    events as f64 / secs
}

/// (put Mops/s, get Mops/s, scan MiB/s) of direct `Shard` calls.
fn shard_rates() -> (f64, f64, f64) {
    const KEYS: u64 = 200_000;
    const VALUE: usize = 32;
    let mut rng = navp::SplitMix64::new(5);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    let values: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| k.to_le_bytes().repeat(VALUE / 8))
        .collect();
    let mut shard = Shard::new();
    let t = Instant::now();
    for (k, v) in keys.iter().zip(values) {
        black_box(shard.put(*k, v));
    }
    let put = KEYS as f64 / t.elapsed().as_secs_f64() / 1e6;
    let t = Instant::now();
    for k in &keys {
        black_box(shard.get(*k));
    }
    let get = KEYS as f64 / t.elapsed().as_secs_f64() / 1e6;
    let mut scanned = 0u64;
    let (_, secs) = repeat(|| {
        for (k, v) in shard.scan(0, u64::MAX, KEYS as usize) {
            scanned += 8 + v.len() as u64;
            black_box(k);
        }
    });
    (put, get, scanned as f64 / secs / (1 << 20) as f64)
}

/// (encode, decode, incremental decode) MiB/s of hop frames carrying
/// one `b`x`b` block, encoded by the case study's registered codec.
fn frame_rates(b: usize) -> (f64, f64, f64) {
    navp_mm::register_net();
    let block = BlockData::real(
        navp_matrix::Matrix::from_vec(b, b, filler(b * b, 6)).expect("block shape"),
    );
    let (tag, bytes) =
        navp_net::registry::encode_value(&block).expect("mm.Block codec is registered");
    let frame = Frame::Hop {
        id: 42,
        sent_ns: 0,
        msgr: WireSnapshot::new(tag, bytes),
    };
    let body = frame.encode();
    let mib =
        |calls: u64, len: usize, secs: f64| calls as f64 * len as f64 / secs / (1 << 20) as f64;

    let mut buf = Vec::with_capacity(body.len());
    let (calls, secs) = repeat(|| {
        buf.clear();
        frame.encode_into(black_box(&mut buf));
    });
    let encode = mib(calls, body.len(), secs);

    let (calls, secs) = repeat(|| {
        black_box(Frame::decode(black_box(&body)).expect("frame decodes"));
    });
    let decode = mib(calls, body.len(), secs);

    // A stream of length-prefixed frames fed in TCP-segment-sized chunks.
    let mut stream = Vec::new();
    for _ in 0..(4 << 20) / body.len() + 1 {
        stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
        stream.extend_from_slice(&body);
    }
    let (calls, secs) = repeat(|| {
        let mut dec = FrameDecoder::new();
        for chunk in stream.chunks(1448) {
            dec.extend(chunk);
            while let Some(f) = dec.next_frame().expect("stream decodes") {
                black_box(f);
            }
        }
    });
    let decoder = mib(calls, stream.len(), secs);
    (encode, decode, decoder)
}

/// Run every probe; returns `(metric, value)` pairs.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("matrix.gemm_gflops_b128", kernel_gflops(128)),
        ("matrix.gemm_gflops_b32", kernel_gflops(32)),
        ("matrix.seq_gemm_gflops_n1024", seq_gemm_gflops_n1024()),
    ];
    let empty4 = thread_run_s(10, || empty_cluster(4));
    let empty2 = thread_run_s(3, || empty_cluster(2));
    let empty1 = thread_run_s(3, || empty_cluster(1));
    let hops = thread_run_s(3, || ping_pong(HOPS));
    let signals = thread_run_s(3, signal_pairs);
    out.push(("core.empty_run_ms", empty4 * 1e3));
    out.push(("core.hop_us", (hops - empty2) / HOPS as f64 * 1e6));
    out.push(("core.signal_us", (signals - empty1) / SIGNALS as f64 * 1e6));
    out.push(("core.sim_events_per_s", sim_events_per_s()));
    let (put, get, scan) = shard_rates();
    out.push(("kv.shard_put_mops", put));
    out.push(("kv.shard_get_mops", get));
    out.push(("kv.shard_scan_mib_s", scan));
    for (b, names) in [
        (
            32,
            [
                "net.frame_encode_mib_s_b32",
                "net.frame_decode_mib_s_b32",
                "net.frame_decoder_mib_s_b32",
            ],
        ),
        (
            128,
            [
                "net.frame_encode_mib_s_b128",
                "net.frame_decode_mib_s_b128",
                "net.frame_decoder_mib_s_b128",
            ],
        ),
    ] {
        let (e, d, i) = frame_rates(b);
        out.extend([(names[0], e), (names[1], d), (names[2], i)]);
    }
    out
}
