//! `kv-sim-read` and `kv-sim-write`: the leader-gated KV service on the
//! simulator, n = 5, alg1, one leader crash mid-window.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_consensus::{KvCommand, LogShared};
use omega_core::{OmegaProcess, OmegaVariant};
use omega_registers::{Instrumentation, MemorySpace, ProcessId};
use omega_scenario::{CrashSpec, Scenario};
use omega_service::{
    Ledger, ServiceNode, ServiceOutcome, ServiceScenario, ServiceSimDriver, WorkloadSpec,
};
use omega_sim::{Actor, StepCtx};

use crate::calls::{measure, report_end_to_end, setup_median, setup_samples, typical_of};
use crate::layers::{LayerCosts, Span};
use crate::report::{detail, not_applicable, Report};
use crate::stats::{failed_ratio, max_rate, tail_percentile, Rung};
use crate::Traced;

const N: usize = 5;
const CLIENTS: u64 = 2_000;
const START: u64 = 2_000;
const DEADLINE: u64 = 6_000;
/// Commit p99 limit of the offered-rate ladder, in ticks.
pub const P99_LIMIT: u64 = 1_000;
/// Offered rates of the ladder, requests per 1 000 ticks.
const LADDER: [u64; 9] = [20, 24, 28, 32, 36, 40, 48, 56, 64];
const LADDER_WINDOW: u64 = 200_000;

/// Which KV workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 1 req/tick offered, 1 % puts, 400 k-tick window.
    Read,
    /// 1 req/35 ticks offered, 50 % puts, 2 M-tick window.
    Write,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Read => "kv-sim-read",
            Mix::Write => "kv-sim-write",
        }
    }

    /// `(mean per-client inter-arrival, put %, window)`.
    fn shape(self) -> (u64, u32, u64) {
        match self {
            Mix::Read => (CLIENTS, 1, 400_000),
            Mix::Write => (CLIENTS * 35, 50, 2_000_000),
        }
    }

    /// The workload's scenario under `seed`: the leader crashes mid-window.
    pub fn scenario(self, seed: u64) -> ServiceScenario {
        let (mean_interarrival, put_pct, window) = self.shape();
        spec(self.name(), seed, mean_interarrival, put_pct, window, true)
    }
}

/// `window` ticks of open-loop load from [`CLIENTS`] clients; the horizon
/// covers the last deadline, so every request resolves in the run.
fn spec(
    name: &str,
    seed: u64,
    mean_interarrival: u64,
    put_pct: u32,
    window: u64,
    crash: bool,
) -> ServiceScenario {
    let stop = START + window;
    let mut election = Scenario::fault_free(OmegaVariant::Alg1, N)
        .horizon(stop + DEADLINE + 1_000)
        .seed(seed);
    if crash {
        election = election.crash_leader_at(START + window / 2);
    }
    ServiceScenario::new(
        name,
        election,
        WorkloadSpec {
            clients: CLIENTS,
            mean_interarrival,
            put_pct,
            key_space: 64,
            deadline: DEADLINE,
            stall_bound: None,
            start: START,
            stop,
        },
    )
}

/// The record with its wall-clock field cleared: what must repeat exactly.
fn stable_record(outcome: &ServiceOutcome) -> String {
    let mut outcome = outcome.clone();
    outcome.elapsed_ms = 0.0;
    outcome.json_record()
}

fn check_drained(report: &mut Report, what: &str, o: &ServiceOutcome) {
    report.check(o.inflight == 0, || {
        format!("{what}: {} requests still in flight", o.inflight)
    });
    report.check(o.committed + o.rejected + o.stalled == o.requests, || {
        format!(
            "{what}: committed {} + rejected {} + stalled {} != requests {}",
            o.committed, o.rejected, o.stalled, o.requests
        )
    });
}

/// The untraced run: end-to-end metrics, plus the ladder on `kv-sim-write`.
pub fn run(mix: Mix, seed: u64, budget: Duration, report: &mut Report) {
    // The set-up builds the spec and generates its request schedule once.
    // `ServiceSimDriver::run` generates the schedule again inside the call,
    // so `run_s` holds it too; the spec alone takes about 0.2 µs, which the
    // process's address layout makes bimodal, too unsteady to gate.
    let setup = || {
        let scenario = mix.scenario(seed);
        std::hint::black_box(scenario.requests());
        scenario
    };
    let setups = setup_samples(10, setup, drop);
    let calls = measure(budget, 2, setup, |scenario| ServiceSimDriver.run(&scenario));
    report.attempted += calls.len() as u64;
    let first = stable_record(&calls[0].out);
    for call in &calls {
        check_drained(report, mix.name(), &call.out);
        report.check(call.out.stabilized, || {
            format!("{}: no stable leader", mix.name())
        });
        report.check(stable_record(&call.out) == first, || {
            format!(
                "{}: same seed, different records:\n  {first}\n  {}",
                mix.name(),
                stable_record(&call.out)
            )
        });
    }
    let o = &calls[0].out;

    report_end_to_end(report, setup_median(&setups, &calls), &calls, |c| {
        c.out.requests as f64 / c.run_s
    });
    detail("commit_p50_ticks", o.commit_p50 as f64, "ticks");
    detail("commit_p99_ticks", o.commit_p99 as f64, "ticks");
    match tail_percentile(o.committed) {
        Some(p) if p >= 99.0 => {}
        tail => println!(
            "# commit_p99_ticks has fewer than 10 of {} samples beyond it; highest supported tail: {tail:?}",
            o.committed
        ),
    }
    detail("unavail_ticks", o.unavail_ticks() as f64, "ticks");
    detail(
        "failed_ratio",
        failed_ratio(o.rejected + o.stalled, o.requests),
        "ratio",
    );
    for (name, value) in [
        ("requests", o.requests),
        ("committed", o.committed),
        ("rejected", o.rejected),
        ("stalled", o.stalled),
        ("log_slots", o.log_slots),
        ("calls", calls.len() as u64),
    ] {
        detail(name, value as f64, "count");
    }
    let (_, _, window) = mix.shape();
    detail(
        "slots_per_ktick",
        o.log_slots as f64 * 1_000.0 / window as f64,
        "slots/ktick",
    );
    not_applicable("elect_ms", "ms", "no coop cluster on this workload");
    if mix == Mix::Write {
        ladder(seed, report);
    } else {
        not_applicable(
            "max_rate_per_ktick",
            "req/ktick",
            "the ladder runs on kv-sim-write",
        );
    }
}

/// Fault-free rungs of offered load at 50 % puts; prints the highest rate
/// within [`P99_LIMIT`] with no backlog.
fn ladder(seed: u64, report: &mut Report) {
    let rungs: Vec<Rung> = LADDER
        .into_iter()
        .map(|rate| {
            let mean = CLIENTS * 1_000 / rate;
            let name = format!("ladder/{rate}");
            let o = ServiceSimDriver.run(&spec(&name, seed, mean, 50, LADDER_WINDOW, false));
            report.attempted += 1;
            check_drained(report, &name, &o);
            println!(
                "# rung {rate} req/ktick: commit p50 {} p99 {} ticks, stalled {}, rejected {}, {:.1} slots/ktick",
                o.commit_p50,
                o.commit_p99,
                o.stalled,
                o.rejected,
                o.log_slots as f64 * 1_000.0 / LADDER_WINDOW as f64
            );
            Rung {
                rate_per_ktick: rate as f64,
                commit_p99: o.commit_p99,
                stalled: o.stalled,
                inflight: o.inflight,
            }
        })
        .collect();
    match max_rate(&rungs, P99_LIMIT) {
        Some(rate) => detail("max_rate_per_ktick", rate, "req/ktick"),
        None => {
            println!("metric max_rate_per_ktick none req/ktick (no rung meets p99 <= {P99_LIMIT})")
        }
    }
}

/// Never refire: the pump does all its work in `on_step`.
const NEVER: u64 = 1 << 40;

/// An Ω process and its service replica, as `ServiceSimDriver` steps them,
/// with spans around the Ω tasks and the replica poll.
struct NodeActor {
    omega: Box<dyn OmegaProcess>,
    node: ServiceNode,
    spans: Arc<KvSpans>,
}

impl Actor for NodeActor {
    fn on_step(&mut self, ctx: StepCtx) {
        let (omega, node) = (&mut self.omega, &mut self.node);
        self.spans.t2.time(|| omega.t2_step());
        let leader = omega.cached_leader();
        self.spans.poll.time(|| node.poll(leader, ctx.now.ticks()));
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        let omega = &mut self.omega;
        self.spans.t3.time(|| omega.on_timer_expire())
    }

    fn initial_timeout(&self) -> u64 {
        self.omega.initial_timeout()
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.omega.cached_leader()
    }
}

/// The client population: issues due arrivals, sweeps deadlines.
struct PumpActor {
    ledger: Arc<Ledger>,
    next: usize,
    spans: Arc<KvSpans>,
}

impl Actor for PumpActor {
    fn on_step(&mut self, ctx: StepCtx) {
        let now = ctx.now.ticks();
        let (ledger, next) = (&self.ledger, &mut self.next);
        self.spans.pump.time(|| {
            while *next < ledger.requests() && ledger.meta()[*next].arrival <= now {
                ledger.issue(*next, now);
                *next += 1;
            }
            ledger.sweep(now);
        });
    }

    fn on_timer(&mut self, _ctx: StepCtx) -> u64 {
        NEVER
    }

    fn initial_timeout(&self) -> u64 {
        NEVER
    }

    fn current_leader(&self) -> Option<ProcessId> {
        self.ledger.route_target()
    }
}

#[derive(Default)]
struct KvSpans {
    t2: Span,
    t3: Span,
    poll: Span,
    pump: Span,
}

/// What the span-timed rebuild of `ServiceSimDriver::run` yields.
struct Rebuilt {
    outcome: ServiceOutcome,
    /// The whole rebuilt call, comparable with an untraced driver call.
    wall_s: f64,
    /// The simulator run inside it, which the spans split.
    sim_s: f64,
    events: u64,
    reads: u64,
    writes: u64,
    reads_skipped: u64,
    log_writes: u64,
}

/// `ServiceSimDriver::run`, rebuilt from the service's public parts with
/// spans around each actor's work.
fn rebuild(scenario: &ServiceScenario, spans: &Arc<KvSpans>) -> Rebuilt {
    let start = Instant::now();
    let election = &scenario.election;
    let space = MemorySpace::with_instrumentation(election.n, Instrumentation::Deferred);
    let shared = LogShared::<KvCommand>::new(space.clone());
    let ledger = Ledger::new(scenario.requests(), election.n);
    let mut actors: Vec<Box<dyn Actor>> = election
        .variant
        .build_processes_in(&space)
        .into_iter()
        .map(|omega| {
            let node = ServiceNode::new(omega.pid(), Arc::clone(&ledger), Arc::clone(&shared));
            Box::new(NodeActor {
                omega,
                node,
                spans: Arc::clone(spans),
            }) as Box<dyn Actor>
        })
        .collect();
    actors.push(Box::new(PumpActor {
        ledger: Arc::clone(&ledger),
        next: 0,
        spans: Arc::clone(spans),
    }));
    let mut env = election.clone();
    env.n = election.n + 1;
    let sim_start = Instant::now();
    let report = env.sim_builder(actors).memory(space.clone()).run();
    let sim_s = sim_start.elapsed().as_secs_f64();
    ledger.sweep(election.horizon);

    let crashes: Vec<u64> = election
        .crashes
        .iter()
        .map(|c| match *c {
            CrashSpec::At { tick, .. } | CrashSpec::LeaderAt { tick } => tick,
        })
        .collect();
    let stats = space.stats();
    let log_writes = stats
        .rows()
        .filter(|row| row.name.starts_with("LOG["))
        .map(|row| row.total_writes())
        .sum();
    let outcome = ServiceOutcome::assemble(
        "sim",
        scenario,
        &ledger,
        &crashes,
        report.stabilization().is_some(),
        stats.total_writes(),
        shared.allocated_slots() as u64,
        report.wall.elapsed_ms(),
    );
    Rebuilt {
        outcome,
        wall_s: start.elapsed().as_secs_f64(),
        sim_s,
        events: report.events_processed,
        reads: stats.total_reads(),
        writes: stats.total_writes(),
        reads_skipped: stats.scan().reads_skipped,
        log_writes,
    }
}

/// The counts a rebuild must share with the driver's record before its
/// split of time between layers is trusted.
fn split_key(o: &ServiceOutcome) -> [u64; 9] {
    [
        o.requests,
        o.committed,
        o.rejected,
        o.stalled,
        o.log_slots,
        o.commit_p50,
        o.commit_p95,
        o.commit_p99,
        o.commit_max,
    ]
}

/// The traced run: untraced driver calls, each followed by a span-timed
/// rebuild, for the budget. Spans add up over the rebuilds.
pub fn traced(
    mix: Mix,
    seed: u64,
    budget: Duration,
    report: &mut Report,
    costs: &LayerCosts,
) -> Traced {
    let scenario = mix.scenario(seed);
    let spans = Arc::new(KvSpans::default());
    let pairs = measure(
        budget,
        1,
        || (),
        |()| {
            let start = Instant::now();
            let plain = ServiceSimDriver.run(&scenario);
            let untraced_s = start.elapsed().as_secs_f64();
            (plain, untraced_s, rebuild(&scenario, &spans))
        },
    );
    report.attempted += 2 * pairs.len() as u64;
    let mut reproduced = 0;
    for pair in &pairs {
        let (plain, _, rebuilt) = &pair.out;
        check_drained(report, mix.name(), plain);
        reproduced += usize::from(split_key(&rebuilt.outcome) == split_key(plain));
    }
    let split = reproduced == pairs.len();
    println!(
        "# rebuild reproduces the driver's record (requests, committed, rejected, stalled, log_slots, commit quantiles) in {reproduced} of {} pairs",
        pairs.len()
    );
    // Counts repeat exactly from pair to pair; times are per call.
    let rebuilt = &pairs[0].out.2;
    let o = &rebuilt.outcome;
    let count = pairs.len() as u64;
    let per_call = |s: &Span| s.seconds() / count as f64;
    let sim_s = pairs.iter().map(|p| p.out.2.sim_s).sum::<f64>() / count as f64;
    let untraced_s = typical_of(&pairs, |p| p.out.1);
    let traced_s = typical_of(&pairs, |p| p.out.2.wall_s);

    let spent = [&spans.t2, &spans.t3, &spans.poll, &spans.pump];
    let sim_self_s = sim_s - spent.iter().map(|s| per_call(s)).sum::<f64>();
    // An unreproduced split is reported as unavailable (-1), not guessed.
    let share = |s: f64| if split { s / sim_s } else { -1.0 };
    if split {
        detail("core.t2_self_s", per_call(&spans.t2), "s");
        detail("core.t3_self_s", per_call(&spans.t3), "s");
        detail("service.poll_self_s", per_call(&spans.poll), "s");
        detail("service.pump_self_s", per_call(&spans.pump), "s");
        detail("sim.self_s", sim_self_s, "s");
    } else {
        println!("# layer split unavailable: the rebuild diverged from ServiceSimDriver");
    }
    detail("run_s.untraced", untraced_s, "s");
    detail("run_s.traced", traced_s, "s");
    detail("pairs", count as f64, "count");

    let (t2_ns, t3_ns) = costs.steps_at(N);
    let requests = o.requests as f64;
    let (t2_calls, t3_calls) = (spans.t2.calls() / count, spans.t3.calls() / count);
    let predicted_ns = t2_calls as f64 * t2_ns
        + t3_calls as f64 * t3_ns
        + rebuilt.events as f64 * costs.wheel_ns
        + requests
            * (costs.generate_ns_per_request
                + costs.ledger_issue_ns
                + costs.ledger_drain_ns
                + costs.histogram_record_ns)
        + (spans.pump.calls() / count) as f64 * costs.ledger_sweep_ns
        + o.log_slots as f64 * costs.decide_ns;
    println!(
        "# cost model: predicted_s = T2 steps x core.t2_step_ns.n5 + T3 bodies x core.t3_scan_ns.n5 + sim events x sim.wheel_ns + requests x (generate + issue + drain + histogram) + pump steps x ledger_sweep_ns + log slots x consensus.decide_ns; residual_s = untraced run_s - predicted_s"
    );
    Traced {
        reads: rebuilt.reads,
        writes: rebuilt.writes,
        skip_ratio: rebuilt.reads_skipped as f64
            / (rebuilt.reads + rebuilt.reads_skipped).max(1) as f64,
        t2_calls,
        t3_calls,
        t2_self_share: share(per_call(&spans.t2)),
        t3_self_share: share(per_call(&spans.t3)),
        sim_self_share: share(sim_self_s),
        poll_self_share: share(per_call(&spans.poll)),
        pump_self_share: share(per_call(&spans.pump)),
        sim_events: rebuilt.events,
        log_slots: o.log_slots,
        writes_per_slot: rebuilt.log_writes as f64 / o.log_slots.max(1) as f64,
        predicted_s: predicted_ns / 1e9,
        residual_s: untraced_s - predicted_ns / 1e9,
        trace_overhead_s: traced_s - untraced_s,
        ..Traced::default()
    }
}
