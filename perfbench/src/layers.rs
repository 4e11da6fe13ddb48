//! Per-operation costs of each layer, timed from outside through the
//! layers' public functions.
//!
//! Every traced run measures all of them, whatever its workload, so the
//! cost model can price any workload's counts and so the same number is
//! comparable across workloads.

use std::time::{Duration, Instant};

use omega_consensus::{KvCommand, LogHandle, LogShared};
use omega_core::OmegaVariant;
use omega_registers::{Instrumentation, MemorySpace, ProcessId};
use omega_runtime::coop::DeadlineQueue;
use omega_scenario::{CoopDriver, Scenario, SimDriver};
use omega_service::{Histogram, Ledger, WorkloadSpec};
use omega_sim::wheel::TimerWheel;

use crate::procfs;
use crate::stats::median;

/// Sampling budget of one operation's measurement.
const BUDGET: Duration = Duration::from_millis(40);

/// System sizes the `core` costs are reported at.
pub const CORE_SIZES: [usize; 2] = [5, 128];

/// Median nanoseconds per `op`, over batches of about 1 ms each.
pub fn ns_per_op(mut op: impl FnMut()) -> f64 {
    for _ in 0..16 {
        op();
    }
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        if start.elapsed() >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let mut per_op = Vec::new();
    let budget = Instant::now();
    while budget.elapsed() < BUDGET || per_op.len() < 5 {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        per_op.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut per_op)
}

/// Median of `samples` runs of `f`, each timed in nanoseconds.
fn median_ns(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&mut (0..samples).map(|_| f()).collect::<Vec<f64>>())
}

/// Per-operation costs of every layer.
pub struct LayerCosts {
    pub register_read_ns: f64,
    pub register_write_ns: f64,
    /// `(n, T1 leader() ns, T2 step ns, T3 scan ns)` for each of [`CORE_SIZES`].
    pub core: Vec<(usize, f64, f64, f64)>,
    pub build_s: f64,
    pub build_rss_mb: f64,
    pub wheel_ns: f64,
    pub trace_encode_ns_per_event: f64,
    pub deadline_queue_ns: f64,
    pub start_s: f64,
    pub shutdown_s: f64,
    pub decide_ns: f64,
    pub generate_ns_per_request: f64,
    pub ledger_issue_ns: f64,
    pub ledger_drain_ns: f64,
    pub ledger_sweep_ns: f64,
    pub histogram_record_ns: f64,
}

impl LayerCosts {
    /// `(T2 step ns, T3 scan ns)` at system size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not one of [`CORE_SIZES`].
    pub fn steps_at(&self, n: usize) -> (f64, f64) {
        let &(_, _, t2, t3) = self
            .core
            .iter()
            .find(|c| c.0 == n)
            .unwrap_or_else(|| panic!("core costs are measured at {CORE_SIZES:?}, not {n}"));
        (t2, t3)
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Measures every layer; `seed` picks the generated inputs.
pub fn measure(seed: u64) -> LayerCosts {
    // Building the largest system: time and the memory it holds. First,
    // before freed memory of other measurements could be reused.
    let rss_before = procfs::rss_mb();
    let start = Instant::now();
    let built = OmegaVariant::Alg1.build(128);
    let build_s = start.elapsed().as_secs_f64();
    let build_rss_mb = procfs::rss_mb() - rss_before;
    drop(built);

    // Registers as the simulator uses them: deferred instrumentation.
    let space = MemorySpace::with_instrumentation(4, Instrumentation::Deferred);
    let register = space.nat_register("R", p(0), 0);
    let mut v = seed;
    let register_write_ns = ns_per_op(|| {
        v = v.wrapping_add(1);
        register.write(p(0), v);
    });
    let register_read_ns = ns_per_op(|| {
        std::hint::black_box(register.read(p(1)));
    });

    let core = CORE_SIZES
        .into_iter()
        .map(|n| {
            let space = MemorySpace::with_instrumentation(n, Instrumentation::Deferred);
            let mut procs = OmegaVariant::Alg1.build_processes_in(&space);
            let t1 = ns_per_op(|| {
                std::hint::black_box(procs[0].leader());
            });
            let t2 = ns_per_op(|| procs[0].t2_step());
            let t3 = ns_per_op(|| {
                std::hint::black_box(procs[1].on_timer_expire());
            });
            (n, t1, t2, t3)
        })
        .collect();

    let wheel_ns = {
        // Depth 2n at n = 128: one step and one timer entry per process.
        let depth = 256u64;
        let mut wheel = TimerWheel::new();
        for k in 0..depth {
            wheel.push(k, k);
        }
        let mut rng = seed | 1;
        ns_per_op(|| {
            let (key, _, payload) = wheel.pop().expect("wheel stays at depth");
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            wheel.push(key + 1 + (rng >> 33) % depth, payload);
        })
    };
    let deadline_queue_ns = {
        let depth = 256u64;
        let mut queue = DeadlineQueue::new();
        for k in 0..depth {
            queue.push(k, k as usize);
        }
        let mut rng = seed | 1;
        ns_per_op(|| {
            let (key, task) = queue.pop().expect("queue stays at depth");
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            queue.push(key + 1 + (rng >> 33) % depth, task);
        })
    };

    let trace_encode_ns_per_event = {
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 5)
            .horizon(50_000)
            .seed(seed);
        let (_, trace) = SimDriver.run_traced(&scenario);
        let events = trace.len().max(1) as f64;
        median_ns(5, || {
            let start = Instant::now();
            std::hint::black_box(trace.encode());
            start.elapsed().as_nanos() as f64
        }) / events
    };

    // Coop runtime start and shutdown at the coop workload's size and pool.
    let (start_s, shutdown_s) = {
        let driver = CoopDriver {
            workers: 2,
            ..CoopDriver::default()
        };
        let scenario = Scenario::fault_free(OmegaVariant::Alg1, 128);
        let mut starts = Vec::new();
        let mut stops = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let cluster = driver.launch(&scenario);
            starts.push(start.elapsed().as_secs_f64());
            let stop = Instant::now();
            cluster.shutdown();
            stops.push(stop.elapsed().as_secs_f64());
        }
        (median(&mut starts), median(&mut stops))
    };

    // One sole-leader log decision at n = 5, slot after slot.
    let decide_ns = {
        let space = MemorySpace::with_instrumentation(5, Instrumentation::Deferred);
        let mut log = LogHandle::new(LogShared::<KvCommand>::new(space), p(0));
        let mut id = 0u64;
        ns_per_op(|| {
            id += 1;
            log.submit(KvCommand::Put("k".to_string(), id));
            let target = log.committed().len() + 1;
            assert!(
                log.step_until_committed(p(0), target, 64),
                "a sole leader decides"
            );
        })
    };

    let spec = WorkloadSpec {
        clients: 2_000,
        mean_interarrival: 2_000,
        put_pct: 1,
        key_space: 64,
        deadline: 6_000,
        stall_bound: None,
        start: 0,
        stop: 100_000,
    };
    let meta = spec.generate(seed);
    let requests = meta.len() as f64;
    let generate_ns_per_request = median_ns(5, || {
        let start = Instant::now();
        std::hint::black_box(spec.generate(seed));
        start.elapsed().as_nanos() as f64
    }) / requests;

    // Route every request to a sole leader, draining its inbox every 64.
    let (mut issue, mut drain) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let ledger = Ledger::new(meta.clone(), 5);
        for i in 0..5 {
            ledger.publish(p(i), Some(p(0)));
        }
        let (mut issue_ns, mut drain_ns) = (0u128, 0u128);
        let ids: Vec<usize> = (0..meta.len()).collect();
        for chunk in ids.chunks(64) {
            let start = Instant::now();
            for &id in chunk {
                ledger.issue(id, meta[id].arrival);
            }
            issue_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            std::hint::black_box(ledger.drain(p(0)));
            drain_ns += start.elapsed().as_nanos();
        }
        issue.push(issue_ns as f64 / requests);
        drain.push(drain_ns as f64 / requests);
    }
    let (ledger_issue_ns, ledger_drain_ns) = (median(&mut issue), median(&mut drain));

    // Deadline sweeps once per tick over served requests, as the workload
    // actor sweeps after every step.
    let ledger_sweep_ns = median_ns(5, || {
        let ledger = Ledger::new(meta.clone(), 5);
        for (id, m) in meta.iter().enumerate() {
            ledger.complete(id, m.arrival);
        }
        let end = meta.last().map_or(0, |m| m.deadline);
        let start = Instant::now();
        for now in 0..=end {
            ledger.sweep(now);
        }
        start.elapsed().as_nanos() as f64 / (end + 1) as f64
    });

    let histogram_record_ns = {
        let mut histogram = Histogram::new();
        let mut rng = seed | 1;
        let cost = ns_per_op(|| {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record((rng >> 33) % 4_096);
        });
        std::hint::black_box(histogram.count());
        cost
    };

    LayerCosts {
        register_read_ns,
        register_write_ns,
        core,
        build_s,
        build_rss_mb,
        wheel_ns,
        trace_encode_ns_per_event,
        deadline_queue_ns,
        start_s,
        shutdown_s,
        decide_ns,
        generate_ns_per_request,
        ledger_issue_ns,
        ledger_drain_ns,
        ledger_sweep_ns,
        histogram_record_ns,
    }
}

/// Time and calls accumulated around one layer's work; shared through an
/// `Arc` by actors the simulator owns.
#[derive(Default)]
pub struct Span {
    nanos: std::sync::atomic::AtomicU64,
    calls: std::sync::atomic::AtomicU64,
}

impl Span {
    /// Times `f` into this span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        use std::sync::atomic::Ordering::Relaxed;
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }
}
