//! Open-loop pacing: operations are due on a fixed schedule regardless of
//! how the system keeps up, and each is timed **from its due time**, so a
//! stall charges the wait it imposes on the operations queued behind it.

use std::time::{Duration, Instant};

use crate::stats::ns32;

/// A fixed-rate schedule: operation `i` is due at `i × period`.
#[derive(Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Schedule {
        assert!(rate > 0.0, "rate must be positive");
        Schedule {
            period_ns: (1e9 / rate).round() as u64,
        }
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }
}

/// Latencies from due time and generator lateness, both in ns.
#[derive(Default)]
pub struct OpenLoopLog {
    pub from_due: Vec<u32>,
    pub late: Vec<u32>,
}

impl OpenLoopLog {
    /// Accounts one operation from times relative to the schedule origin:
    /// when it was due, when the generator actually sent it, when its
    /// reply arrived. The reported latency runs from the due time; the
    /// generator's own lateness is recorded beside it so a slow generator
    /// cannot pass for a slow system unnoticed.
    pub fn account(&mut self, due_ns: u64, sent_ns: u64, done_ns: u64) {
        let clamp = |ns: u64| u32::try_from(ns).unwrap_or(u32::MAX);
        self.from_due.push(clamp(done_ns.saturating_sub(due_ns)));
        self.late.push(clamp(sent_ns.saturating_sub(due_ns)));
    }
}

/// Runs `op` `count` times on `schedule` from one generator thread,
/// sleeping (never spinning — the generator shares a pinned CPU with the
/// system under test) until each due time.
pub fn run_open_loop(
    schedule: Schedule,
    count: u64,
    log: &mut OpenLoopLog,
    mut op: impl FnMut(u64),
) -> Duration {
    let origin = Instant::now();
    for i in 0..count {
        let due = Duration::from_nanos(schedule.due_ns(i));
        let now = origin.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = origin.elapsed();
        op(i);
        let done = origin.elapsed();
        log.account(
            due.as_nanos() as u64,
            sent.as_nanos() as u64,
            done.as_nanos() as u64,
        );
    }
    origin.elapsed()
}

/// Convenience for closed-loop timing of one operation.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, u32) {
    let t = Instant::now();
    let out = op();
    (out, ns32(t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced() {
        let s = Schedule::per_second(640.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 1_562_500);
        assert_eq!(s.due_ns(640), 1_000_000_000);
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        // 1 ms period, 0.1 ms service time, but operation 2 stalls for
        // 3.5 ms. One connection: an operation is sent when it is due or
        // when the previous one completes, whichever is later.
        let s = Schedule::per_second(1000.0);
        let service = |i: u64| if i == 2 { 3_500_000 } else { 100_000 };
        let mut log = OpenLoopLog::default();
        let mut free_at = 0u64;
        for i in 0..8 {
            let due = s.due_ns(i);
            let sent = due.max(free_at);
            let done = sent + service(i);
            free_at = done;
            log.account(due, sent, done);
        }
        let us = |v: &[u32]| v.iter().map(|&ns| ns / 1000).collect::<Vec<_>>();
        // Ops 3..5 were due during the stall: their latency from due time
        // includes the wait (a closed loop would report 100 µs for each).
        assert_eq!(
            us(&log.from_due),
            [100, 100, 3500, 2600, 1700, 800, 100, 100]
        );
        assert_eq!(us(&log.late), [0, 0, 0, 2500, 1600, 700, 0, 0]);
    }

    #[test]
    fn the_pacer_does_not_run_ahead_of_its_schedule() {
        let mut log = OpenLoopLog::default();
        let mut calls = 0;
        let elapsed = run_open_loop(Schedule::per_second(2000.0), 20, &mut log, |_| calls += 1);
        assert_eq!((calls, log.from_due.len(), log.late.len()), (20, 20, 20));
        assert!(elapsed >= Duration::from_micros(19 * 500), "{elapsed:?}");
    }
}
