//! Load generation: an open loop on a fixed schedule and a closed loop of
//! pipelined connections.
//!
//! The open loop runs on one thread. Request `i` is due at
//! `start + i / rate`; its latency is timed from that due time, not from
//! when it was actually sent, so a stall (in the system or in the
//! generator) is charged to every request queued behind it.

use std::thread;
use std::time::{Duration, Instant};

use crate::host;

/// How long before a due time the generator stops sleeping and spins, so
/// timer overshoot is not charged to the system under test.
const SPIN: Duration = Duration::from_micros(100);

/// What one open-loop phase recorded.
#[derive(Debug, Default)]
pub struct OpenLoopRecord {
    /// Microseconds from due time to completion; `+inf` for a failed request.
    pub latencies_us: Vec<f64>,
    /// Microseconds the generator sent each request after its due time.
    pub late_us: Vec<f64>,
    /// Most requests that were due but not yet sent at any send.
    pub backlog_max: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl OpenLoopRecord {
    /// Appends another slice's record to this one.
    pub fn absorb(&mut self, other: OpenLoopRecord) {
        self.latencies_us.extend(other.latencies_us);
        self.late_us.extend(other.late_us);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.failed += other.failed;
    }
}

/// The fixed schedule: request `i` is due at `start + i · interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Self { start, interval: Duration::from_secs_f64(1.0 / rate_per_s) }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Requests due at or before `now`.
    pub fn due_by(&self, now: Instant) -> u64 {
        (now.saturating_duration_since(self.start).as_secs_f64() / self.interval.as_secs_f64())
            as u64
            + 1
    }
}

/// Waits until `due`: sleeps while it is far, spins for the last [`SPIN`].
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs `issue(i)` for every request due before `deadline`, on this thread.
/// `issue` sends request `i`, waits for its answer and returns when it
/// completed, or `None` if it failed; the generator times it from its due
/// time.
pub fn open_loop(
    schedule: Schedule,
    deadline: Instant,
    mut issue: impl FnMut(u64) -> Option<Instant>,
) -> OpenLoopRecord {
    let mut record = OpenLoopRecord::default();
    for i in 0.. {
        let due = schedule.due(i);
        if due >= deadline {
            break;
        }
        wait_until(due);
        let sent = Instant::now();
        record.late_us.push((sent - due).as_secs_f64() * 1e6);
        record.backlog_max = record.backlog_max.max(schedule.due_by(sent) - i - 1);
        match issue(i) {
            Some(done) => record.latencies_us.push((done - due).as_secs_f64() * 1e6),
            None => {
                record.failed += 1;
                record.latencies_us.push(f64::INFINITY);
            }
        }
    }
    record
}

/// Width of the windows a throughput is measured over.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Per-window throughput: `done` holds (seconds since the start, items
/// completed then); items are counted per [`WINDOW`] and the trailing
/// partial window is dropped. A run reports the median window, which a
/// short stall cannot move. Shorter than one window: the plain average.
pub fn window_rates(done: &[(f64, u64)], elapsed: f64) -> Vec<f64> {
    let width = WINDOW.as_secs_f64();
    let full = (elapsed / width) as usize;
    if full == 0 {
        return vec![done.iter().map(|d| d.1).sum::<u64>() as f64 / elapsed];
    }
    let mut counts = vec![0u64; full];
    for &(at, n) in done {
        if let Some(c) = counts.get_mut((at / width) as usize) {
            *c += n;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// What a closed-loop phase did.
pub struct ClosedLoopRecord {
    pub requests: u64,
    pub failed: u64,
    /// Requests per second in each [`WINDOW`], by [`window_rates`], per
    /// second of CPU time the host did not steal ([`host::unstolen`]).
    pub windows: Vec<f64>,
}

/// Runs `connections` closed-loop clients until `deadline`. Each runs
/// `batch(c)` repeatedly on its own thread: one call sends a pipelined
/// batch on connection `c`, reads every answer and returns `(requests,
/// failed)`.
pub fn closed_loop<F>(connections: usize, deadline: Instant, batch: F) -> ClosedLoopRecord
where
    F: Fn(usize) -> (u64, u64) + Sync,
{
    let started = Instant::now();
    let per_client: Vec<(Vec<(f64, u64)>, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let batch = &batch;
                scope.spawn(move || {
                    let (mut done, mut failed) = (Vec::new(), 0);
                    while Instant::now() < deadline {
                        let (d, f) = batch(c);
                        done.push((started.elapsed().as_secs_f64(), d));
                        failed += f;
                    }
                    (done, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let done: Vec<(f64, u64)> = per_client.iter().flat_map(|c| c.0.iter().copied()).collect();
    let ended = started + Duration::from_secs_f64(elapsed);
    let windows = window_rates(&done, elapsed)
        .into_iter()
        .zip((0u32..).map(|k| started + WINDOW * k))
        .map(|(rate, from)| rate / host::unstolen(from, (from + WINDOW).min(ended)))
        .collect();
    ClosedLoopRecord {
        requests: done.iter().map(|d| d.1).sum(),
        failed: per_client.iter().map(|c| c.1).sum(),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 1 ms apart; request 3 stalls the (sequential) system for 30 ms.
        let start = Instant::now() + Duration::from_millis(2);
        let schedule = Schedule::new(start, 1000.0);
        let stall = Duration::from_millis(30);
        let record = open_loop(schedule, start + Duration::from_millis(60), |i| {
            if i == 3 {
                thread::sleep(stall);
            }
            Some(Instant::now())
        });
        let lat = &record.latencies_us;
        assert!(lat.len() >= 50, "{} requests", lat.len());
        // The stalled request itself pays the stall.
        assert!(lat[3] >= 30_000.0, "{}", lat[3]);
        // Request 3 + j was due j ms after it and could only be sent once the
        // stall ended: it waited at least 30 - j ms.
        for j in 1..25u64 {
            let floor = 30_000.0 - 1_000.0 * j as f64;
            assert!(
                lat[3 + j as usize] >= floor - 50.0,
                "request {}: {}",
                3 + j,
                lat[3 + j as usize]
            );
            assert!(record.late_us[3 + j as usize] >= floor - 50.0);
        }
        // The generator saw the queue: about 29 requests overdue at once.
        assert!(record.backlog_max >= 25, "backlog {}", record.backlog_max);
        // Well after the stall it is back on schedule.
        assert!(lat[lat.len() - 1] < 10_000.0);
    }

    #[test]
    fn failures_count_as_missing() {
        let start = Instant::now();
        let record =
            open_loop(Schedule::new(start, 2000.0), start + Duration::from_millis(10), |i| {
                (i % 2 == 0).then(Instant::now)
            });
        assert_eq!(record.failed as usize, record.latencies_us.len() / 2);
        assert!(record.latencies_us.iter().skip(1).step_by(2).all(|l| l.is_infinite()));
    }

    #[test]
    fn window_rates_isolate_a_stalled_window() {
        // 100 per 0.1 s for 2.2 s, except nothing during [1.0, 1.5).
        let done: Vec<(f64, u64)> = (0..22)
            .map(|i| i as f64 * 0.1 + 0.05)
            .filter(|t| !(1.0..1.5).contains(t))
            .map(|t| (t, 100))
            .collect();
        let rates = window_rates(&done, 2.2);
        assert_eq!(rates, vec![1000.0, 1000.0, 0.0, 1000.0]);
        assert_eq!(crate::stats::median(&rates), Some(1000.0));
        // Shorter than one window: the plain average.
        assert_eq!(window_rates(&[(0.1, 30)], 0.25), vec![120.0]);
    }

    #[test]
    fn schedule_counts_due_requests() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 100.0);
        assert_eq!(schedule.due_by(start), 1);
        assert_eq!(schedule.due_by(start + Duration::from_millis(25)), 3);
        assert_eq!(schedule.due(2), start + Duration::from_millis(20));
    }
}
