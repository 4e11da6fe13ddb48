//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Readable `metric <name> <value> <unit>`
//! and `# ...` lines come first; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of [`END_TO_END`]; with `--trace 1`
//! the per-layer ones of [`PER_LAYER`]. The exit code is 1 when any
//! correctness check failed and 2 on a usage error. See `README.md`.

mod calls;
mod coop;
mod elect_sim;
mod kv_sim;
mod layers;
mod procfs;
mod report;
mod stats;

use std::time::Duration;

use report::{Declared, Report};

/// End-to-end metrics, reported on every workload.
const END_TO_END: Declared = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, reported on every workload; a
/// count or share of a layer the workload does not reach is 0.
const PER_LAYER: Declared = &[
    ("registers.read_ns", "ns"),
    ("registers.write_ns", "ns"),
    ("registers.reads", "count"),
    ("registers.writes", "count"),
    ("registers.skip_ratio", "ratio"),
    ("core.t1_leader_ns.n5", "ns"),
    ("core.t1_leader_ns.n128", "ns"),
    ("core.t2_step_ns.n5", "ns"),
    ("core.t2_step_ns.n128", "ns"),
    ("core.t3_scan_ns.n5", "ns"),
    ("core.t3_scan_ns.n128", "ns"),
    ("core.t2_calls", "count"),
    ("core.t3_calls", "count"),
    ("core.t2_self_share", "ratio"),
    ("core.t3_self_share", "ratio"),
    ("core.build_s", "s"),
    ("core.build_rss_mb", "MB"),
    ("sim.events", "count"),
    ("sim.self_share", "ratio"),
    ("sim.wheel_ns", "ns"),
    ("sim.trace_encode_ns_per_event", "ns"),
    ("runtime.start_s", "s"),
    ("runtime.shutdown_s", "s"),
    ("runtime.deadline_queue_ns", "ns"),
    ("runtime.events_per_cpu_s", "1/s"),
    ("runtime.overhead_share", "ratio"),
    ("consensus.log_slots", "count"),
    ("consensus.writes_per_slot", "count"),
    ("consensus.decide_ns", "ns"),
    ("service.generate_ns_per_request", "ns"),
    ("service.ledger_issue_ns", "ns"),
    ("service.ledger_drain_ns", "ns"),
    ("service.ledger_sweep_ns", "ns"),
    ("service.histogram_record_ns", "ns"),
    ("service.poll_self_share", "ratio"),
    ("service.pump_self_share", "ratio"),
    ("model.predicted_s", "s"),
    ("model.residual_s", "s"),
    ("model.trace_overhead_s", "s"),
    ("host.calib_ns", "ns"),
];

/// The workloads `BENCHMARK.json` declares.
const WORKLOADS: [&str; 2] = ["kv-sim-read", "elect-coop-n128"];

/// Workloads the command runs but `BENCHMARK.json` does not declare. The
/// reference host's speed drifts by up to 40 % over minutes, so the gated
/// set is kept to two workloads that each get long runs; these two stay
/// runnable by hand (see `README.md`).
const UNDECLARED: [&str; 2] = ["elect-sim-n128", "kv-sim-write"];

/// A workload's counts and spans from its traced run. Shares are of the
/// traced simulator run's wall time; `-1` marks a split that could not be
/// trusted.
#[derive(Debug, Default)]
pub struct Traced {
    pub reads: u64,
    pub writes: u64,
    pub skip_ratio: f64,
    pub t2_calls: u64,
    pub t3_calls: u64,
    pub t2_self_share: f64,
    pub t3_self_share: f64,
    pub sim_self_share: f64,
    pub poll_self_share: f64,
    pub pump_self_share: f64,
    pub sim_events: u64,
    pub events_per_cpu_s: f64,
    pub overhead_share: f64,
    pub log_slots: u64,
    pub writes_per_slot: f64,
    pub predicted_s: f64,
    pub residual_s: f64,
    pub trace_overhead_s: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().chain(&UNDECLARED).any(|w| *w == workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or {UNDECLARED:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer value of a traced run, by the name [`PER_LAYER`]
/// declares it under.
fn layer_values(costs: &layers::LayerCosts, t: &Traced, calib_ns: f64) -> Vec<(&'static str, f64)> {
    let mut values = vec![
        ("registers.read_ns", costs.register_read_ns),
        ("registers.write_ns", costs.register_write_ns),
        ("registers.reads", t.reads as f64),
        ("registers.writes", t.writes as f64),
        ("registers.skip_ratio", t.skip_ratio),
    ];
    for &(n, t1, t2, t3) in &costs.core {
        let names = match n {
            5 => [
                "core.t1_leader_ns.n5",
                "core.t2_step_ns.n5",
                "core.t3_scan_ns.n5",
            ],
            _ => [
                "core.t1_leader_ns.n128",
                "core.t2_step_ns.n128",
                "core.t3_scan_ns.n128",
            ],
        };
        values.extend(names.into_iter().zip([t1, t2, t3]));
    }
    values.extend([
        ("core.t2_calls", t.t2_calls as f64),
        ("core.t3_calls", t.t3_calls as f64),
        ("core.t2_self_share", t.t2_self_share),
        ("core.t3_self_share", t.t3_self_share),
        ("core.build_s", costs.build_s),
        ("core.build_rss_mb", costs.build_rss_mb),
        ("sim.events", t.sim_events as f64),
        ("sim.self_share", t.sim_self_share),
        ("sim.wheel_ns", costs.wheel_ns),
        (
            "sim.trace_encode_ns_per_event",
            costs.trace_encode_ns_per_event,
        ),
        ("runtime.start_s", costs.start_s),
        ("runtime.shutdown_s", costs.shutdown_s),
        ("runtime.deadline_queue_ns", costs.deadline_queue_ns),
        ("runtime.events_per_cpu_s", t.events_per_cpu_s),
        ("runtime.overhead_share", t.overhead_share),
        ("consensus.log_slots", t.log_slots as f64),
        ("consensus.writes_per_slot", t.writes_per_slot),
        ("consensus.decide_ns", costs.decide_ns),
        (
            "service.generate_ns_per_request",
            costs.generate_ns_per_request,
        ),
        ("service.ledger_issue_ns", costs.ledger_issue_ns),
        ("service.ledger_drain_ns", costs.ledger_drain_ns),
        ("service.ledger_sweep_ns", costs.ledger_sweep_ns),
        ("service.histogram_record_ns", costs.histogram_record_ns),
        ("service.poll_self_share", t.poll_self_share),
        ("service.pump_self_share", t.pump_self_share),
        ("model.predicted_s", t.predicted_s),
        ("model.residual_s", t.residual_s),
        ("model.trace_overhead_s", t.trace_overhead_s),
        ("host.calib_ns", calib_ns),
    ]);
    values
}

/// The unit a metric is declared with.
///
/// # Panics
///
/// Panics on a name neither [`END_TO_END`] nor [`PER_LAYER`] declares.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
        .1
}

/// Fixes glibc's mmap threshold at its default 128 KiB. Left alone, glibc
/// raises the threshold whenever a mapped block is freed, so which of the
/// coop cluster's 128 KiB arrays are mapped depends on the order in which
/// worker threads free them, and peak RSS lands on one of two values run
/// to run. Setting the threshold turns that adjustment off.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only changes allocator tuning; it is called before
    // any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = procfs::host();
    println!(
        "# host nproc={} cpu={:?} calib_ns={}",
        host.nproc, host.cpu_model, host.calib_ns
    );
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    let declared = if args.trace {
        let costs = layers::measure(args.seed);
        let traced = match args.workload.as_str() {
            "elect-sim-n128" => elect_sim::traced(&mut report, &costs),
            "kv-sim-read" => {
                kv_sim::traced(kv_sim::Mix::Read, args.seed, budget, &mut report, &costs)
            }
            "kv-sim-write" => {
                kv_sim::traced(kv_sim::Mix::Write, args.seed, budget, &mut report, &costs)
            }
            _ => coop::traced(budget, &mut report, &costs),
        };
        for (name, value) in layer_values(&costs, &traced, host.calib_ns) {
            report.metric(name, value);
        }
        PER_LAYER
    } else {
        match args.workload.as_str() {
            "elect-sim-n128" => elect_sim::run(budget, &mut report),
            "kv-sim-read" => kv_sim::run(kv_sim::Mix::Read, args.seed, budget, &mut report),
            "kv-sim-write" => kv_sim::run(kv_sim::Mix::Write, args.seed, budget, &mut report),
            _ => coop::run(budget, &mut report),
        }
        END_TO_END
    };
    let (line, correct) = report.result_line(declared);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn arguments_parse_and_refuse() {
        let a = args("--workload kv-sim-read --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-sim-read", 7, 3, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(
            args("--workload kv-sim-read --seconds 1").is_err(),
            "seed required"
        );
        assert!(args("--workload kv-sim-read --seed x --seconds 1").is_err());
        assert!(args("--workload kv-sim-read --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload kv-sim-read --seed 1 --seconds").is_err());
    }

    #[test]
    fn declared_names_are_unique() {
        for declared in [END_TO_END, PER_LAYER] {
            let mut names: Vec<&str> = declared.iter().map(|d| d.0).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), declared.len());
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared = END_TO_END.len() + PER_LAYER.len();
        assert_eq!(text.matches("\"unit\":").count(), declared);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let at = text
                .find(&format!("\"name\": \"{name}\","))
                .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
            let unit_at = text[at..].find("\"unit\": \"").expect("a unit follows") + at + 9;
            assert!(
                text[unit_at..].starts_with(&format!("{unit}\"")),
                "unit of {name}"
            );
        }
        for workload in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{workload}\",")),
                "{workload}"
            );
        }
        for workload in UNDECLARED {
            assert!(!text.contains(&format!("\"name\": \"{workload}\",")));
        }
    }

    #[test]
    fn a_traced_run_reports_exactly_the_per_layer_metrics() {
        let costs = layers::LayerCosts {
            register_read_ns: 1.0,
            register_write_ns: 1.0,
            core: layers::CORE_SIZES
                .into_iter()
                .map(|n| (n, 1.0, 1.0, 1.0))
                .collect(),
            build_s: 1.0,
            build_rss_mb: 1.0,
            wheel_ns: 1.0,
            trace_encode_ns_per_event: 1.0,
            deadline_queue_ns: 1.0,
            start_s: 1.0,
            shutdown_s: 1.0,
            decide_ns: 1.0,
            generate_ns_per_request: 1.0,
            ledger_issue_ns: 1.0,
            ledger_drain_ns: 1.0,
            ledger_sweep_ns: 1.0,
            histogram_record_ns: 1.0,
        };
        let mut names: Vec<&str> = layer_values(&costs, &Traced::default(), 1.0)
            .into_iter()
            .map(|v| v.0)
            .collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|d| d.0).collect();
        names.sort_unstable();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert_eq!(unit_of("core.t3_scan_ns.n128"), "ns");
        assert_eq!(unit_of("setup_s"), "s");
    }
}
