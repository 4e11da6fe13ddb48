//! Process and host facts read from `/proc`, with no dependency beyond std.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 (`USER_HZ`) on every mainstream architecture for decades;
/// std offers no `sysconf`, so it is fixed here.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`, in MB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let mut words = line.split(':').nth(1)?.split_whitespace();
    let kb: u64 = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then(|| kb as f64 / 1024.0)
}

/// The first `model name` in the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// CPU seconds this process has used so far, all threads included.
pub fn cpu_s() -> f64 {
    parse_stat_cpu_s(&read("/proc/self/stat")).expect("/proc/self/stat has utime and stime")
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    parse_status_mb(&read("/proc/self/status"), "VmHWM").expect("/proc/self/status has VmHWM")
}

/// Current resident set size (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    parse_status_mb(&read("/proc/self/status"), "VmRSS").expect("/proc/self/status has VmRSS")
}

/// What a reader needs to compare runs from different hosts.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// Nanoseconds for the fixed calibration loop.
    pub calib_ns: f64,
}

/// Iterations of the calibration loop: an integer hash chain whose every
/// step depends on the last, so it measures one core's scalar speed.
const CALIB_ITERS: u64 = 20_000_000;

fn calibration_loop() -> u64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..CALIB_ITERS {
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
    }
    x
}

/// Reads the host fingerprint and times the calibration loop (median of 5).
pub fn host() -> Host {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(calibration_loop());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: parse_cpu_model(&std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default())
            .unwrap_or_else(|| "unknown".to_string()),
        calib_ns: crate::stats::median(&mut samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_last_paren() {
        let stat = "4242 (a (b) c) S 1 4242 4242 0 -1 4194304 86 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) S 1 2"), None, "truncated line");
        assert_eq!(parse_stat_cpu_s("no paren at all"), None);
    }

    #[test]
    fn status_fields_are_read_in_mb() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(2.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(1.0));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        assert_eq!(
            parse_status_mb("VmHWM:\t12 pages\n", "VmHWM"),
            None,
            "unit kB only"
        );
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn live_proc_reads_parse() {
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
    }
}
