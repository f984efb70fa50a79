//! The host under a run: keeping its CPUs awake, and measuring the CPU time
//! it steals.
//!
//! On a virtual machine an idle vCPU halts, and waking it for the next
//! request costs the hypervisor's wake-up latency, which depends on the
//! host's load rather than on the program. At an open loop's low rates the
//! CPUs go idle between requests, so that cost lands on nearly every
//! request and moves latency by half from one run to the next. One
//! `SCHED_IDLE` spinner per CPU keeps the vCPUs running: any thread of the
//! program that wakes preempts it at once, and it gets no share of a CPU
//! that the program wants (the idle class has weight 3 against 1024).
//!
//! A shared host also runs other machines' vCPUs on the same cores. The
//! time it takes from this machine's vCPUs is counted as `steal` in
//! `/proc/stat`; with the spinners every vCPU is always runnable, so the
//! stolen share of an interval is the share of CPU time the program was
//! denied. [`unstolen`] reports the rest, so that a rate measured over an
//! interval much longer than the host's scheduling slices can be stated
//! per second of CPU time the host actually gave.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the background sampler reads `/proc/stat`.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// One reading of the all-CPU line of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ticks {
    at: Instant,
    steal: u64,
    total: u64,
}

/// Every reading taken since [`Host::start`], in time order.
static READINGS: Mutex<Vec<Ticks>> = Mutex::new(Vec::new());

/// The spinners and the steal sampler; dropping the value stops and joins
/// every thread it started.
pub struct Host {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Host {
    /// Starts one spinner per available CPU and the steal sampler. A
    /// spinner that cannot enter the idle scheduling class ends at once
    /// rather than spin at normal priority.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        READINGS.lock().expect("readings poisoned").extend(read_ticks());
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let mut threads: Vec<JoinHandle<()>> = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    if !enter_idle_class() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let sampler_stop = Arc::clone(&stop);
        threads.push(thread::spawn(move || {
            while !sampler_stop.load(Ordering::Relaxed) {
                thread::sleep(SAMPLE_EVERY);
                READINGS.lock().expect("readings poisoned").extend(read_ticks());
            }
        }));
        Self { stop, threads }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The share of the machine's CPU time in `[from, to]` that the host did
/// not steal, from the readings that enclose the interval (a fresh one if
/// none is taken after `to` yet). 1 when nothing was stolen or `/proc/stat`
/// cannot be read.
pub fn unstolen(from: Instant, to: Instant) -> f64 {
    let mut readings = READINGS.lock().expect("readings poisoned");
    if readings.last().is_none_or(|r| r.at < to) {
        readings.extend(read_ticks());
    }
    unstolen_share(&readings, from, to)
}

/// Seconds since `started`, times the unstolen share of that interval:
/// the time an interval of work would have taken had the host stolen
/// nothing.
pub fn unstolen_seconds(started: Instant) -> f64 {
    let ended = Instant::now();
    (ended - started).as_secs_f64() * unstolen(started, ended)
}

fn unstolen_share(readings: &[Ticks], from: Instant, to: Instant) -> f64 {
    let first = readings.partition_point(|r| r.at <= from).saturating_sub(1);
    let last = readings.partition_point(|r| r.at < to).min(readings.len().saturating_sub(1));
    let (Some(a), Some(b)) = (readings.get(first), readings.get(last)) else { return 1.0 };
    if b.total <= a.total {
        return 1.0;
    }
    let stolen = b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64;
    (1.0 - stolen).clamp(0.05, 1.0)
}

/// Reads the steal and total ticks of all CPUs from `/proc/stat`.
fn read_ticks() -> Option<Ticks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?, Instant::now())
}

/// Parses `cpu user nice system idle iowait irq softirq steal ...`; guest
/// time is already inside user time, so the total is the first eight.
fn parse_cpu_line(line: &str, at: Instant) -> Option<Ticks> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields.take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| Ticks { at, steal: ticks[7], total: ticks.iter().sum() })
}

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling thread and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_all_cpu_line() {
        let at = Instant::now();
        let t = parse_cpu_line("cpu  783354 0 165263 1645935 1112 0 39462 23739 0 0", at).unwrap();
        assert_eq!(t.steal, 23739);
        assert_eq!(t.total, 783354 + 165263 + 1645935 + 1112 + 39462 + 23739);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8 0 0", at).is_none());
        assert!(parse_cpu_line("cpu 1 2 3", at).is_none());
    }

    #[test]
    fn the_unstolen_share_spans_the_enclosing_readings() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        // 100 ticks per 20 ms; the host steals 25 of them in (20, 40].
        let readings = [
            Ticks { at: at(0), steal: 0, total: 0 },
            Ticks { at: at(20), steal: 0, total: 100 },
            Ticks { at: at(40), steal: 25, total: 200 },
            Ticks { at: at(60), steal: 25, total: 300 },
        ];
        assert_eq!(unstolen_share(&readings, at(20), at(40)), 0.75);
        // A sub-interval widens to the readings that enclose it.
        assert_eq!(unstolen_share(&readings, at(25), at(35)), 0.75);
        assert_eq!(unstolen_share(&readings, at(0), at(60)), 1.0 - 25.0 / 300.0);
        assert_eq!(unstolen_share(&readings, at(40), at(60)), 1.0);
        // No readings, or no ticks between them: nothing is known stolen.
        assert_eq!(unstolen_share(&[], at(0), at(10)), 1.0);
        assert_eq!(unstolen_share(&readings[..1], at(0), at(10)), 1.0);
    }
}
