//! `elect-coop-n128`: fresh coop clusters at n = 128 on 2 workers, one
//! election at a time.

use std::time::{Duration, Instant};

use omega_registers::ProcessId;
use omega_runtime::Cluster;
use omega_scenario::{registry, CoopDriver, Scenario};

use crate::calls::{
    cpu_per_call, measure, median_of, report_end_to_end, setup_median, setup_samples, typical_of,
    Call,
};
use crate::layers::LayerCosts;
use crate::report::{detail, not_applicable, Report};
use crate::stats::{failed_ratio, median};
use crate::Traced;

/// Longest wait for one cluster's election before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(20);

fn driver() -> CoopDriver {
    CoopDriver {
        workers: 2,
        ..CoopDriver::default()
    }
}

fn scenario() -> Scenario {
    registry::named("n-scaling-128").expect("n-scaling-128 is a registry scenario")
}

/// One cluster's election.
pub struct Election {
    leader: Option<ProcessId>,
    leader_correct: bool,
    /// Wall time from start of the wait until agreement held for the window.
    await_s: f64,
    events: u64,
    steps: u64,
    timer_fires: u64,
    reads: u64,
    writes: u64,
    reads_skipped: u64,
}

/// Waits for `cluster`'s election, takes its counters, shuts it down.
fn elect(cluster: Cluster, window: Duration) -> Election {
    let start = Instant::now();
    let leader = cluster.await_stable_leader(window, TIMEOUT);
    let await_s = start.elapsed().as_secs_f64();
    let events = cluster.events_total();
    let stats = cluster.space().stats();
    let election = Election {
        leader,
        leader_correct: leader.is_some_and(|l| cluster.correct().contains(l)),
        await_s,
        events,
        steps: cluster.steps().iter().sum(),
        timer_fires: cluster.timer_fires().iter().sum(),
        reads: stats.total_reads(),
        writes: stats.total_writes(),
        reads_skipped: cluster.scan_stats().reads_skipped,
    };
    cluster.shutdown();
    election
}

/// Launch times of clusters started and shut down without an election.
fn launches() -> Vec<f64> {
    let (driver, scenario) = (driver(), scenario());
    setup_samples(10, || driver.launch(&scenario), Cluster::shutdown)
}

fn clusters(budget: Duration, report: &mut Report) -> Vec<Call<Election>> {
    let (driver, scenario) = (driver(), scenario());
    let calls = measure(
        budget,
        3,
        || driver.launch(&scenario),
        |cluster| elect(cluster, driver.window),
    );
    report.attempted += calls.len() as u64;
    for (i, call) in calls.iter().enumerate() {
        report.check(call.out.leader_correct, || {
            format!(
                "coop cluster {i}: no correct leader elected ({:?})",
                call.out.leader
            )
        });
    }
    calls
}

/// Time to a stable leader: the wait, less the agreement window it includes.
fn elect_ms(calls: &[Call<Election>]) -> f64 {
    let window = driver().window.as_secs_f64();
    median_of(calls, |c| c.out.await_s - window) * 1e3
}

/// The untraced run: end-to-end metrics.
pub fn run(budget: Duration, report: &mut Report) {
    let setups = launches();
    let calls = clusters(budget, report);
    let unelected = calls.iter().filter(|c| !c.out.leader_correct).count() as u64;
    // Events per second of the wait for agreement, not of the shutdown.
    report_end_to_end(report, setup_median(&setups, &calls), &calls, |c| {
        c.out.events as f64 / c.out.await_s
    });
    detail("elect_ms", elect_ms(&calls), "ms");
    detail(
        "failed_ratio",
        failed_ratio(unelected, calls.len() as u64),
        "ratio",
    );
    detail("clusters", calls.len() as f64, "count");
    for (name, unit) in [
        ("commit_p50_ticks", "ticks"),
        ("commit_p99_ticks", "ticks"),
        ("unavail_ticks", "ticks"),
        ("max_rate_per_ktick", "req/ktick"),
    ] {
        not_applicable(name, unit, "no KV service on this workload");
    }
}

/// The traced run: the runtime has no spans of its own yet, so this
/// prices its counters with the layer costs and compares against CPU time.
/// With no spans it is an untraced run, so its tracing overhead is 0.
pub fn traced(budget: Duration, report: &mut Report, costs: &LayerCosts) -> Traced {
    let calls = clusters(budget, report);
    let cpu_s = cpu_per_call(&calls);
    let per_cluster = |f: fn(&Election) -> u64| {
        median(&mut calls.iter().map(|c| f(&c.out) as f64).collect::<Vec<f64>>())
    };
    let (steps, fires, events) = (
        per_cluster(|e| e.steps),
        per_cluster(|e| e.timer_fires),
        per_cluster(|e| e.events),
    );
    let (reads, skipped) = (per_cluster(|e| e.reads), per_cluster(|e| e.reads_skipped));
    let (t2_ns, t3_ns) = costs.steps_at(128);
    let core_s = (steps * t2_ns + fires * t3_ns) / 1e9;
    let predicted_s = core_s + events * costs.deadline_queue_ns / 1e9;
    detail("elect_ms", elect_ms(&calls), "ms");
    detail("cpu_s", cpu_s, "s");
    detail("run_s", typical_of(&calls, |c| c.run_s), "s");
    not_applicable("core.t2_self_s", "s", "coop has no spans yet");
    not_applicable(
        "model.trace_overhead_s",
        "s",
        "coop has no spans yet; reported as 0",
    );
    println!(
        "# cost model (per cluster, against cpu_s): predicted_s = T2 steps x core.t2_step_ns.n128 + T3 bodies x core.t3_scan_ns.n128 + runtime events x runtime.deadline_queue_ns; residual_s = cpu_s - predicted_s"
    );
    Traced {
        reads: reads as u64,
        writes: per_cluster(|e| e.writes) as u64,
        skip_ratio: skipped / (reads + skipped).max(1.0),
        t2_calls: steps as u64,
        t3_calls: fires as u64,
        events_per_cpu_s: events / cpu_s,
        overhead_share: 1.0 - core_s / cpu_s,
        predicted_s,
        residual_s: cpu_s - predicted_s,
        ..Traced::default()
    }
}
