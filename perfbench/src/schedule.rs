//! Seeded arrival schedules and the open-loop sender.
//!
//! An open loop sends each request at its scheduled time whether or not
//! earlier replies came back, and every latency is timed from the
//! *scheduled* time. A send that stalls therefore makes every later request
//! late too, and that wait lands in their latencies instead of vanishing
//! (the coordinated-omission trap of closed-loop timing).

use crate::stats::{median, quantile};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator for schedules and orders.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Poisson arrivals at a mean of `rate_per_s`: offsets from the start of the
/// phase, with exponential gaps, up to `span`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    let mut schedule = Vec::new();
    loop {
        // 1 - unit() is in (0, 1], so the log is finite
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= span.as_secs_f64() {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(t));
    }
}

/// Time source of the open-loop sender (a fake one in tests).
pub trait Clock {
    /// Time since the phase started.
    fn now(&mut self) -> Duration;
    /// Returns once `now() >= t` (at once when `t` has passed).
    fn sleep_until(&mut self, t: Duration);
}

/// The wall clock. Sleeps to just short of the deadline and spins the last
/// stretch, so wake-up jitter does not turn into lateness.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn starting_at(start: Instant) -> Self {
        WallClock { start }
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        const SPIN: Duration = Duration::from_micros(150);
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// Sends request `i` at `schedule[i]`, or as soon as the previous send
/// returned when that is later. Returns when each send actually started.
pub fn drive_open_loop<C: Clock>(
    clock: &mut C,
    schedule: &[Duration],
    mut send: impl FnMut(usize),
) -> Vec<Duration> {
    let mut sent = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        clock.sleep_until(due);
        sent.push(clock.now());
        send(i);
    }
    sent
}

/// How late each send started against its schedule.
pub fn lateness(schedule: &[Duration], sent: &[Duration]) -> Vec<Duration> {
    schedule
        .iter()
        .zip(sent)
        .map(|(&due, &at)| at.saturating_sub(due))
        .collect()
}

/// The p90 send lateness an open-loop run may reach, as a share of its p50
/// latency. Past it the generator, not the server, sets the latencies, and
/// the run is invalid. A generator that keeps up is late by microseconds;
/// in the busiest stretch of a shared 2-vCPU machine seen so far, when
/// every thread there was held up alike, the p90 reached 0.37 of the p50.
pub const MAX_LATE_SHARE: f64 = 0.5;

/// Whether an open-loop generator kept to its schedule: the p90 of how late
/// it sent (`late_ms`) is at most [`MAX_LATE_SHARE`] of the p50 of the
/// latencies it measured.
pub fn generator_kept_up(late_ms: &[f64], latencies_ms: &[f64]) -> bool {
    quantile(late_ms, 0.9) <= MAX_LATE_SHARE * median(latencies_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let span = Duration::from_secs(10);
        let a = poisson_schedule(11, 200.0, span);
        assert_eq!(a, poisson_schedule(11, 200.0, span));
        assert_ne!(a, poisson_schedule(12, 200.0, span));
        // ~2000 arrivals, increasing, inside the span
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().is_some_and(|&t| t < span));
    }

    #[test]
    fn permutations_cover_every_index_once() {
        let mut order = SplitMix64::new(5).permutation(50);
        assert_ne!(order, (0..50).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    /// A clock that moves only when slept on or when a send stalls it.
    struct FakeClock<'a> {
        now: &'a Cell<Duration>,
    }

    impl Clock for FakeClock<'_> {
        fn now(&mut self) -> Duration {
            self.now.get()
        }
        fn sleep_until(&mut self, t: Duration) {
            self.now.set(self.now.get().max(t));
        }
    }

    fn run(schedule: &[Duration], stall: Option<(usize, Duration)>) -> Vec<Duration> {
        let now = Cell::new(Duration::ZERO);
        let mut clock = FakeClock { now: &now };
        drive_open_loop(&mut clock, schedule, |i| {
            if let Some((_, by)) = stall.filter(|&(at, _)| at == i) {
                now.set(now.get() + by);
            }
        })
    }

    #[test]
    fn a_stalled_send_makes_every_later_request_late() {
        let ms = Duration::from_millis;
        // one request every 10 ms; the send of request 3 stalls for 55 ms
        let schedule: Vec<Duration> = (0..10).map(|i| ms(10 * i)).collect();
        assert_eq!(run(&schedule, None), schedule, "no stall: all on time");
        let late = lateness(&schedule, &run(&schedule, Some((3, ms(55)))));
        // requests 0..=3 were on time; 4..=8 all wait for the stall to end
        // at 85 ms, and only request 9 (due at 90 ms) is back on schedule
        assert_eq!(&late[..4], &[ms(0); 4]);
        assert_eq!(&late[4..9], &[ms(45), ms(35), ms(25), ms(15), ms(5)]);
        assert_eq!(late[9], ms(0));
    }

    #[test]
    fn a_stalled_generator_invalidates_the_run() {
        let ms = Duration::from_millis;
        let to_ms = |d: &[Duration]| d.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>();
        let schedule: Vec<Duration> = (0..10).map(|i| ms(10 * i)).collect();
        let latencies_ms = [3.0; 10];
        let on_time = to_ms(&lateness(&schedule, &run(&schedule, None)));
        assert!(generator_kept_up(&on_time, &latencies_ms));
        // the 55 ms stall above: p90 lateness 36 ms against a 3 ms p50
        let stalled = to_ms(&lateness(&schedule, &run(&schedule, Some((3, ms(55))))));
        assert!(!generator_kept_up(&stalled, &latencies_ms));
        // lateness of exactly the limit's share of the p50 still passes
        assert!(generator_kept_up(&[1.5; 10], &latencies_ms));
        assert!(!generator_kept_up(&[1.51; 10], &latencies_ms));
    }
}
