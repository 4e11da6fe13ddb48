//! The measured loop: repeated set-up + driver call pairs, each timed, and
//! the end-to-end metrics every workload reports from them.

use std::time::{Duration, Instant};

use crate::procfs;
use crate::report::{timing, Report};
use crate::stats::{median, trimmed_mean};

/// One measured driver call.
pub struct Call<T> {
    /// Wall seconds of the set-up before the call.
    pub setup_s: f64,
    /// Wall seconds of the driver call itself.
    pub run_s: f64,
    /// CPU seconds (user + sys, all threads) during the driver call.
    pub cpu_s: f64,
    pub out: T,
}

/// Runs `setup` then `call` repeatedly for about `budget`: it stops before a
/// pair that would end past the budget (judged by the last pair's length),
/// but never before `min_calls` pairs.
pub fn measure<S, T>(
    budget: Duration,
    min_calls: usize,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut(S) -> T,
) -> Vec<Call<T>> {
    let start = Instant::now();
    let mut calls = Vec::new();
    loop {
        let pair = Instant::now();
        let input = setup();
        let setup_s = pair.elapsed().as_secs_f64();
        let cpu_before = procfs::cpu_s();
        let timed = Instant::now();
        let out = std::hint::black_box(call(std::hint::black_box(input)));
        let run_s = timed.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_s() - cpu_before;
        calls.push(Call {
            setup_s,
            run_s,
            cpu_s,
            out,
        });
        if calls.len() >= min_calls && start.elapsed() + pair.elapsed() > budget {
            return calls;
        }
    }
}

/// Median of one field over the calls.
pub fn median_of<T>(calls: &[Call<T>], field: impl Fn(&Call<T>) -> f64) -> f64 {
    median(&mut calls.iter().map(field).collect::<Vec<f64>>())
}

/// Share of the fastest and of the slowest calls left out of a timing.
const TRIM: f64 = 0.1;

/// Trimmed mean (see [`trimmed_mean`]) of one field over the calls.
pub fn typical_of<T>(calls: &[Call<T>], field: impl Fn(&Call<T>) -> f64) -> f64 {
    trimmed_mean(&mut calls.iter().map(field).collect::<Vec<f64>>(), TRIM)
}

/// CPU seconds per call: total over the calls divided by their count, so
/// the 10 ms granularity of `/proc/self/stat` averages out over short calls.
pub fn cpu_per_call<T>(calls: &[Call<T>]) -> f64 {
    calls.iter().map(|c| c.cpu_s).sum::<f64>() / calls.len() as f64
}

/// Times `count` set-ups on their own before the measured calls, handing
/// each result to `teardown` outside the timing, so `setup_s` is a median
/// over many set-ups even when few calls fit the budget.
pub fn setup_samples<S>(
    count: usize,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let start = Instant::now();
            let input = std::hint::black_box(setup());
            let seconds = start.elapsed().as_secs_f64();
            teardown(input);
            seconds
        })
        .collect()
}

/// Median set-up time over the extra set-ups and the calls' own.
pub fn setup_median<T>(extra: &[f64], calls: &[Call<T>]) -> f64 {
    let mut all: Vec<f64> = extra.to_vec();
    all.extend(calls.iter().map(|c| c.setup_s));
    median(&mut all)
}

/// Reports the end-to-end metrics of a workload's calls: `setup_s` as
/// given; `run_s` and `events_per_s` as trimmed means over the calls,
/// `rate` giving one call's work per second; `cpu_s` per call;
/// `peak_rss_mb` of the process so far.
pub fn report_end_to_end<T>(
    report: &mut Report,
    setup_s: f64,
    calls: &[Call<T>],
    rate: impl Fn(&Call<T>) -> f64,
) {
    report.metric("setup_s", setup_s);
    report.metric("run_s", typical_of(calls, |c| c.run_s));
    timing(
        "run_s",
        &mut calls.iter().map(|c| c.run_s).collect::<Vec<f64>>(),
        "s",
    );
    report.metric("cpu_s", cpu_per_call(calls));
    report.metric("events_per_s", typical_of(calls, rate));
    report.metric("peak_rss_mb", procfs::peak_rss_mb());
}
