//! Fault injection + checkpoint/restart, end to end: a paper stage run
//! under an injected PE crash must produce the *bitwise identical*
//! result matrix of the fault-free run, on both executors — recovery
//! re-delivers checkpointed messengers and replays journaled writes,
//! it never re-executes committed work.

use navp_repro::navp::{FaultPlan, FaultStats, RunError};
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::runner::{
    run_navp_net_faulted, run_navp_sim, run_navp_sim_faulted, run_navp_threads,
    run_navp_threads_faulted, NavpStage, NetOpts, RunnerError,
};
use navp_repro::navp_sim::CostModel;
use std::time::Duration;

fn grid_for(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(3).expect("line")
    } else {
        Grid2D::new(2, 2).expect("grid")
    }
}

/// Crash one PE mid-run and demand the exact fault-free product back.
fn crash_recovers_bitwise(stage: NavpStage, crash_pe: usize, at_run: u64) {
    let cfg = MmConfig::real(12, 2).with_watchdog(Duration::from_secs(30));
    let grid = grid_for(stage);
    let cost = CostModel::paper_cluster();
    let plan = FaultPlan::new().crash_pe(crash_pe, at_run);

    let clean = run_navp_sim(stage, &cfg, grid, &cost, false).expect("clean sim");
    let faulted =
        run_navp_sim_faulted(stage, &cfg, grid, &cost, plan.clone()).expect("faulted sim");
    assert_eq!(faulted.verified, Some(true), "{}: sim result wrong", stage.name());
    let fs = faulted.faults.expect("NavP run reports fault stats");
    assert_eq!(fs.crashes, 1, "{}: sim crash not injected", stage.name());
    assert!(fs.redelivered >= 1, "{}: nothing re-delivered", stage.name());
    assert_eq!(
        clean.c.as_ref().expect("real payload"),
        faulted.c.as_ref().expect("real payload"),
        "{}: sim product not bitwise identical",
        stage.name()
    );

    let clean = run_navp_threads(stage, &cfg, grid).expect("clean threads");
    let faulted =
        run_navp_threads_faulted(stage, &cfg, grid, plan).expect("faulted threads");
    assert_eq!(faulted.verified, Some(true), "{}: thread result wrong", stage.name());
    let fs = faulted.faults.expect("NavP run reports fault stats");
    assert_eq!(fs.crashes, 1, "{}: thread crash not injected", stage.name());
    assert!(fs.redelivered >= 1, "{}: nothing re-delivered", stage.name());
    assert_eq!(
        clean.c.as_ref().expect("real payload"),
        faulted.c.as_ref().expect("real payload"),
        "{}: thread product not bitwise identical",
        stage.name()
    );
}

#[test]
fn dsc1d_single_pe_crash_recovers_bitwise() {
    // PE 1's first delivery (the DSC carrier arriving with its A row) is
    // destroyed by the crash and re-delivered from its hop checkpoint.
    crash_recovers_bitwise(NavpStage::Dsc1D, 1, 1);
}

#[test]
fn pipe2d_single_pe_crash_recovers_bitwise() {
    // Crash mid-pipeline: PE 1 holds parked event-waiters, deposited B
    // slots (journaled writes) and in-flight block carriers.
    crash_recovers_bitwise(NavpStage::Pipe2D, 1, 3);
}

#[test]
fn phase1d_crash_on_home_pe_recovers_bitwise() {
    // The phase-shifted stage crashes the PE that also hosts launcher
    // stops, exercising the launcher's structural snapshot.
    crash_recovers_bitwise(NavpStage::Phase1D, 0, 2);
}

#[test]
fn crash_without_checkpointing_is_structured_on_both_executors() {
    let cfg = MmConfig::real(12, 2).with_watchdog(Duration::from_secs(30));
    let grid = Grid2D::line(3).expect("line");
    let plan = FaultPlan::new().crash_pe(1, 1).without_checkpointing();

    match run_navp_sim_faulted(
        NavpStage::Dsc1D,
        &cfg,
        grid,
        &CostModel::paper_cluster(),
        plan.clone(),
    ) {
        Err(RunnerError::Navp(RunError::PeCrashed { pe: 1, .. })) => {}
        other => panic!("sim: expected PeCrashed, got ok={}", other.is_ok()),
    }
    // The generous watchdog proves the structured error preempts any
    // stall: an unrecoverable crash must not present as a hang.
    match run_navp_threads_faulted(NavpStage::Dsc1D, &cfg, grid, plan) {
        Err(RunnerError::Navp(RunError::PeCrashed { pe: 1, .. })) => {}
        other => panic!("threads: expected PeCrashed, got ok={}", other.is_ok()),
    }
}

#[test]
fn seeded_fault_plans_are_deterministic() {
    let cfg = MmConfig::real(12, 2);
    let grid = Grid2D::line(3).expect("line");
    let cost = CostModel::paper_cluster();
    let plan = FaultPlan::seeded(0xFEED, 3);

    let one = run_navp_sim_faulted(NavpStage::Dsc1D, &cfg, grid, &cost, plan.clone())
        .expect("first seeded run");
    let two = run_navp_sim_faulted(NavpStage::Dsc1D, &cfg, grid, &cost, plan)
        .expect("second seeded run");
    assert_eq!(one.verified, Some(true));
    assert_eq!(one.virt_seconds, two.virt_seconds, "virtual time must repeat");
    assert_eq!(one.faults, two.faults, "fault counters must repeat");
    assert_eq!(one.c, two.c, "product must repeat bitwise");
}

#[test]
fn recovery_makespan_accounts_for_the_outage() {
    // The simulated crash costs recovery_seconds of virtual time, so the
    // faulted makespan strictly exceeds the clean one.
    let cfg = MmConfig::real(12, 2);
    let grid = Grid2D::line(3).expect("line");
    let cost = CostModel::paper_cluster();
    let clean = run_navp_sim(NavpStage::Dsc1D, &cfg, grid, &cost, false).expect("clean");
    let plan = FaultPlan::new().crash_pe(1, 1).with_recovery_seconds(2.0);
    let faulted =
        run_navp_sim_faulted(NavpStage::Dsc1D, &cfg, grid, &cost, plan).expect("faulted");
    assert!(
        faulted.virt_seconds.unwrap() >= clean.virt_seconds.unwrap() + 1.999,
        "faulted {:?} vs clean {:?}",
        faulted.virt_seconds,
        clean.virt_seconds
    );
    assert_eq!(faulted.verified, Some(true));
}

#[test]
fn fault_counters_agree_across_sim_threads_and_net() {
    // One crash, one dropped and one delayed hop delivery, with
    // checkpointing: the three executors share one fault policy, so
    // every counter that does not depend on timing agrees, and so does
    // the product, bitwise. (`redelivered` depends on how many
    // messengers are queued on the crashed PE at that instant, which on
    // the wall-clock executors is timing.)
    let cfg = MmConfig::real(16, 2).with_watchdog(Duration::from_secs(60));
    let grid = Grid2D::line(4).expect("line");
    let plan = FaultPlan::new()
        .crash_pe(1, 2)
        .drop_hop(2, 1)
        .delay_hop(3, 1, 0.01)
        .with_retry(3, Duration::from_millis(1));
    let cost = CostModel::paper_cluster();
    let sim = run_navp_sim_faulted(NavpStage::Dsc1D, &cfg, grid, &cost, plan.clone())
        .expect("faulted sim");
    let threads = run_navp_threads_faulted(NavpStage::Dsc1D, &cfg, grid, plan.clone())
        .expect("faulted threads");
    let opts = NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    };
    let net = run_navp_net_faulted(NavpStage::Dsc1D, &cfg, grid, &opts, plan).expect("faulted net");

    let counters = |f: Option<FaultStats>| {
        f.map(|f| (f.crashes, f.hops_dropped, f.send_retries, f.hops_delayed))
    };
    let want = counters(sim.faults);
    assert_eq!(
        want,
        Some((1, 1, 1, 1)),
        "every rule fires once on the simulator"
    );
    assert_eq!(
        counters(threads.faults),
        want,
        "thread executor fault counters"
    );
    assert_eq!(counters(net.faults), want, "net executor fault counters");
    for (name, out) in [("sim", &sim), ("threads", &threads), ("net", &net)] {
        assert_eq!(out.verified, Some(true), "{name}: product wrong");
    }
    let c = sim.c.as_ref().expect("real payload");
    assert_eq!(
        threads.c.as_ref(),
        Some(c),
        "threads product not bitwise the sim's"
    );
    assert_eq!(net.c.as_ref(), Some(c), "net product not bitwise the sim's");
}
