//! `elect-sim-n128`: the registry scenario `n-scaling-128` on the simulator.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_scenario::{registry, Outcome, Scenario, SimDriver};
use omega_sim::{Actor, StepCtx};

use crate::calls::{measure, report_end_to_end, setup_median, setup_samples};
use crate::layers::{LayerCosts, Span};
use crate::report::{detail, not_applicable, Report};
use crate::Traced;

const SCENARIO: &str = "n-scaling-128";
/// The committed sim baseline the run must reproduce.
const RECORDS: &str = "BENCH_scenarios.json";

/// The counters of the committed record that a run must reproduce.
#[derive(Debug, PartialEq, Eq)]
pub struct Record {
    pub stabilization_ticks: u64,
    pub total_reads: u64,
    pub total_writes: u64,
}

/// The unsigned integer field `key` of a flat one-line JSON record.
pub fn record_field(line: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = line.find(&pattern)? + pattern.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The sim record of `scenario` in the text of a `BENCH_scenarios.json`.
pub fn find_record(records: &str, scenario: &str) -> Option<Record> {
    let tag = format!("{{\"scenario\":\"{scenario}\",\"backend\":\"sim\",");
    let line = records.lines().find(|l| l.trim_start().starts_with(&tag))?;
    Some(Record {
        stabilization_ticks: record_field(line, "stabilization_ticks")?,
        total_reads: record_field(line, "total_reads")?,
        total_writes: record_field(line, "total_writes")?,
    })
}

fn scenario() -> Scenario {
    registry::named(SCENARIO).expect("n-scaling-128 is a registry scenario")
}

fn check(report: &mut Report, outcome: &Outcome, record: Option<&Record>) {
    report.check(outcome.stabilized && outcome.leader_is_correct(), || {
        format!(
            "{SCENARIO}: no stable correct leader ({:?})",
            outcome.elected
        )
    });
    let got = Record {
        stabilization_ticks: outcome.stabilization_ticks.unwrap_or(0),
        total_reads: outcome.total_reads(),
        total_writes: outcome.total_writes(),
    };
    report.check(record == Some(&got), || {
        format!("{SCENARIO}: {got:?} does not reproduce the {RECORDS} record {record:?}")
    });
}

fn events_of(outcome: &Outcome) -> f64 {
    // The outcome carries the simulator's rate and the time it was taken
    // over; their product is the event count, exact up to rounding.
    (outcome.events_per_sec * outcome.elapsed_ms / 1e3).round()
}

fn load_record(report: &mut Report) -> Option<Record> {
    let record = std::fs::read_to_string(RECORDS)
        .ok()
        .and_then(|text| find_record(&text, SCENARIO));
    report.check(record.is_some(), || {
        format!("no sim record of {SCENARIO} in {RECORDS}")
    });
    record
}

/// The untraced run: end-to-end metrics.
pub fn run(budget: Duration, report: &mut Report) {
    let record = load_record(report);
    let setup = || {
        let scenario = scenario();
        let system = scenario.variant.build(scenario.n);
        (scenario, system)
    };
    let setups = setup_samples(10, setup, drop);
    let calls = measure(budget, 1, setup, |(scenario, system)| {
        SimDriver.run_actors(&scenario, system.actors, &system.space)
    });
    for call in &calls {
        check(report, &call.out, record.as_ref());
    }
    report.attempted += calls.len() as u64;
    let unelected = calls.iter().filter(|c| !c.out.stabilized).count() as u64;

    report_end_to_end(report, setup_median(&setups, &calls), &calls, |c| {
        events_of(&c.out) / c.run_s
    });
    detail(
        "failed_ratio",
        crate::stats::failed_ratio(unelected, calls.len() as u64),
        "ratio",
    );
    let last = &calls[calls.len() - 1].out;
    detail(
        "stabilization_ticks",
        last.stabilization_ticks.unwrap_or(0) as f64,
        "ticks",
    );
    detail("sim_events", events_of(last), "count");
    detail("calls", calls.len() as f64, "count");
    for (name, unit) in [
        ("elect_ms", "ms"),
        ("commit_p50_ticks", "ticks"),
        ("commit_p99_ticks", "ticks"),
        ("unavail_ticks", "ticks"),
        ("max_rate_per_ktick", "req/ktick"),
    ] {
        not_applicable(name, unit, "no coop cluster or KV service on this workload");
    }
}

/// Times a simulator actor's `T2` steps and `T3` timer bodies.
struct TimedActor {
    inner: Box<dyn Actor>,
    t2: Arc<Span>,
    t3: Arc<Span>,
}

impl Actor for TimedActor {
    fn on_step(&mut self, ctx: StepCtx) {
        let inner = &mut self.inner;
        self.t2.time(|| inner.on_step(ctx));
    }

    fn on_timer(&mut self, ctx: StepCtx) -> u64 {
        let inner = &mut self.inner;
        self.t3.time(|| inner.on_timer(ctx))
    }

    fn initial_timeout(&self) -> u64 {
        self.inner.initial_timeout()
    }

    fn current_leader(&self) -> Option<omega_registers::ProcessId> {
        self.inner.current_leader()
    }
}

/// The traced run: one untraced and one span-timed call.
pub fn traced(report: &mut Report, costs: &LayerCosts) -> Traced {
    let record = load_record(report);
    let scenario = scenario();

    let (plain, untraced_s) = {
        let system = scenario.variant.build(scenario.n);
        let start = Instant::now();
        let plain = SimDriver.run_actors(&scenario, system.actors, &system.space);
        (plain, start.elapsed().as_secs_f64())
    };
    check(report, &plain, record.as_ref());

    let system = scenario.variant.build(scenario.n);
    let (t2, t3) = (Arc::new(Span::default()), Arc::new(Span::default()));
    let actors: Vec<Box<dyn Actor>> = system
        .actors
        .into_iter()
        .map(|inner| {
            Box::new(TimedActor {
                inner,
                t2: Arc::clone(&t2),
                t3: Arc::clone(&t3),
            }) as Box<dyn Actor>
        })
        .collect();
    let start = Instant::now();
    let outcome = SimDriver.run_actors(&scenario, actors, &system.space);
    let traced_s = start.elapsed().as_secs_f64();
    check(report, &outcome, record.as_ref());
    report.check(outcome.fingerprint() == plain.fingerprint(), || {
        format!("{SCENARIO}: timing the actors changed the outcome")
    });
    report.attempted += 2;

    let events = events_of(&outcome);
    let (t2_ns, t3_ns) = costs.steps_at(scenario.n);
    let predicted_s =
        (t2.calls() as f64 * t2_ns + t3.calls() as f64 * t3_ns + events * costs.wheel_ns) / 1e9;
    detail("core.t2_self_s", t2.seconds(), "s");
    detail("core.t3_self_s", t3.seconds(), "s");
    detail("sim.self_s", traced_s - t2.seconds() - t3.seconds(), "s");
    detail("run_s.untraced", untraced_s, "s");
    detail("run_s.traced", traced_s, "s");
    println!(
        "# cost model: predicted_s = T2 steps x core.t2_step_ns.n128 + T3 bodies x core.t3_scan_ns.n128 + sim events x sim.wheel_ns; residual_s = untraced run_s - predicted_s"
    );
    let reads = outcome.total_reads();
    Traced {
        reads,
        writes: outcome.total_writes(),
        skip_ratio: outcome.reads_skipped as f64 / (reads + outcome.reads_skipped).max(1) as f64,
        t2_calls: t2.calls(),
        t3_calls: t3.calls(),
        t2_self_share: t2.seconds() / traced_s,
        t3_self_share: t3.seconds() / traced_s,
        sim_self_share: (traced_s - t2.seconds() - t3.seconds()) / traced_s,
        sim_events: events as u64,
        predicted_s,
        residual_s: untraced_s - predicted_s,
        trace_overhead_s: traced_s - untraced_s,
        ..Traced::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"  {"scenario":"n-scaling-128","backend":"sim","variant":"alg1-fig2","n":128,"stabilized":true,"stabilization_ticks":100,"horizon_ticks":100000,"total_writes":33284,"total_reads":408480768,"elapsed_ms":4686.85},"#;

    #[test]
    fn record_fields_parse_from_a_flat_line() {
        assert_eq!(record_field(LINE, "stabilization_ticks"), Some(100));
        assert_eq!(record_field(LINE, "total_reads"), Some(408_480_768));
        assert_eq!(
            record_field(LINE, "elapsed_ms"),
            Some(4_686),
            "integer part"
        );
        assert_eq!(record_field(LINE, "missing"), None);
        assert_eq!(record_field(LINE, "variant"), None, "not a number");
    }

    #[test]
    fn the_sim_record_is_found_by_scenario_and_backend() {
        let coop = LINE.replace("\"sim\"", "\"coop\"");
        let text = format!("[\n{coop}\n{LINE}\n]");
        assert_eq!(
            find_record(&text, "n-scaling-128"),
            Some(Record {
                stabilization_ticks: 100,
                total_reads: 408_480_768,
                total_writes: 33_284,
            })
        );
        assert_eq!(find_record(&text, "n-scaling-64"), None);
        assert_eq!(find_record(&coop, "n-scaling-128"), None);
    }
}
