//! The machine-speed probe, and measured phases cut into windows between
//! probe blocks.
//!
//! A shared host lends the benchmark a different speed from one minute to
//! the next, and a compute-bound number follows it: the same build's
//! throughput moved by a third between runs minutes apart. The probe is a
//! fixed piece of work of the same kind as feature extraction (sorting, a
//! visibility scan, scattered counter updates) in code that lives only
//! here, so no change to the program can move it. A measured phase runs in
//! windows with a probe block before the first and after each one, and a
//! window's compute-bound numbers are taken to the reference speed by its
//! [`Window::scale`].

use crate::schedule::SplitMix64;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median time of one probe iteration on the reference machine, a 2-vCPU
/// shared Xeon VM. It only fixes the unit: a window whose probe blocks read
/// exactly this reports its numbers as measured.
pub const REFERENCE_US: f64 = 55.0;

/// Load time of one window.
pub const WINDOW: Duration = Duration::from_secs(2);

/// How long one probe block runs: about 3000 iterations.
pub const BLOCK: Duration = Duration::from_millis(160);

const LENGTH: usize = 512;
/// How far the visibility scan looks ahead from each point.
const HORIZON: usize = 48;
const BUCKETS: usize = 1 << 12;

/// The probe's fixed input and scratch space.
pub struct Probe {
    series: Vec<f64>,
    sorted: Vec<f64>,
    counts: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut rng = SplitMix64::new(0x9e0b_e5ee_d000_0001);
        let mut level = 0.0;
        let series = (0..LENGTH)
            .map(|_| {
                level = 0.9 * level + rng.unit() - 0.5;
                level
            })
            .collect();
        Probe {
            series,
            sorted: Vec::with_capacity(LENGTH),
            counts: vec![0; BUCKETS],
        }
    }
}

impl Probe {
    /// One iteration; returns a checksum so none of it can be elided.
    pub fn iteration(&mut self) -> u64 {
        let series = black_box(&self.series[..]);
        self.sorted.clear();
        self.sorted.extend_from_slice(series);
        self.sorted.sort_unstable_by(f64::total_cmp);
        let mut edges = 0u64;
        for (i, &a) in series.iter().enumerate() {
            // natural visibility within the horizon: a point is seen from
            // `a` when its slope beats every slope before it
            let mut steepest = f64::NEG_INFINITY;
            for (d, &b) in series[i + 1..].iter().take(HORIZON).enumerate() {
                let slope = (b - a) / (d + 1) as f64;
                if slope > steepest {
                    steepest = slope;
                    edges += 1;
                    let bucket = (b.to_bits() >> 20) as usize % BUCKETS;
                    self.counts[bucket] = self.counts[bucket].wrapping_add(1);
                }
            }
        }
        let middle = self.sorted[LENGTH / 2].to_bits();
        black_box(edges ^ middle ^ u64::from(self.counts[edges as usize % BUCKETS]))
    }

    /// Runs iterations for [`BLOCK`] and returns their median time in µs.
    pub fn block_us(&mut self) -> f64 {
        let started = Instant::now();
        let mut times = Vec::new();
        while started.elapsed() < BLOCK {
            let t = Instant::now();
            black_box(self.iteration());
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&times)
    }
}

/// One window of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Seconds since the phase started.
    pub from_s: f64,
    pub to_s: f64,
    /// Series completed in the window.
    pub series: f64,
    /// CPU seconds the program used in the window.
    pub cpu_s: f64,
    /// Mean of the probe blocks before and after the window, in µs.
    pub probe_us: f64,
}

impl Window {
    /// Factor that takes a time measured in this window to the reference
    /// speed (a rate is divided by it).
    pub fn scale(&self) -> f64 {
        REFERENCE_US / self.probe_us
    }

    /// Whether an op that completed `at_s` into the phase belongs here.
    pub fn holds(&self, at_s: f64) -> bool {
        self.from_s < at_s && at_s <= self.to_s
    }
}

/// A measured phase: its windows and every probe block, in order (one
/// more block than windows).
#[derive(Debug, Default)]
pub struct Measured {
    pub windows: Vec<Window>,
    pub blocks_us: Vec<f64>,
}

/// What one window's load reported.
pub struct Load {
    /// Series completed in the window.
    pub series: usize,
    /// Whether another window follows.
    pub more: bool,
}

/// Where the program's work runs, and so where a probe block runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    /// On the calling thread (in-process ops): one block on this thread.
    This,
    /// In another process, on whichever core it is given: one block on
    /// every core at once, and their mean.
    All,
}

/// One probe block on each of `probes` at once (the first on the calling
/// thread); the mean of their medians in µs.
fn block_us(probes: &mut [Probe]) -> f64 {
    let count = probes.len() as f64;
    let Some((first, rest)) = probes.split_first_mut() else {
        return f64::NAN;
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = rest
            .iter_mut()
            .map(|p| scope.spawn(move || p.block_us()))
            .collect();
        let mut total = first.block_us();
        for other in others {
            total += other.join().unwrap_or(f64::NAN);
        }
        total / count
    })
}

/// Runs `load` window after window, with a probe block before the first
/// and after each one, until it reports that no window follows. `load(k)`
/// runs window `k` for about [`WINDOW`] and returns once all of its work
/// has completed, so nothing of the program runs beside a probe block.
/// `cpu_s` reads the program's CPU seconds so far.
pub fn run_windows(
    start: Instant,
    cores: Cores,
    mut cpu_s: impl FnMut() -> Result<f64, String>,
    mut load: impl FnMut(usize) -> Result<Load, String>,
) -> Result<Measured, String> {
    let count = match cores {
        Cores::This => 1,
        Cores::All => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut probes: Vec<Probe> = (0..count).map(|_| Probe::default()).collect();
    let mut measured = Measured {
        windows: Vec::new(),
        blocks_us: vec![block_us(&mut probes)],
    };
    for k in 0.. {
        let (from_s, cpu_before) = (start.elapsed().as_secs_f64(), cpu_s()?);
        let done = load(k)?;
        let (to_s, cpu_after) = (start.elapsed().as_secs_f64(), cpu_s()?);
        let before_us = measured.blocks_us[k];
        let after_us = block_us(&mut probes);
        measured.blocks_us.push(after_us);
        measured.windows.push(Window {
            from_s,
            to_s,
            series: done.series as f64,
            cpu_s: cpu_after - cpu_before,
            probe_us: (before_us + after_us) / 2.0,
        });
        if !done.more {
            break;
        }
    }
    Ok(measured)
}

/// Throughput and CPU per series over `windows` taken together, each
/// window's time multiplied by `scale(window)`. Returns `(series per
/// second, CPU ms per series)`.
pub fn rates(windows: &[Window], scale: impl Fn(&Window) -> f64) -> (f64, f64) {
    let seconds: f64 = windows.iter().map(|w| (w.to_s - w.from_s) * scale(w)).sum();
    let cpu_s: f64 = windows.iter().map(|w| w.cpu_s * scale(w)).sum();
    let series: f64 = windows.iter().map(|w| w.series).sum();
    (series / seconds, cpu_s * 1e3 / series)
}

/// Each op's value multiplied by `scale` of the window it completed in;
/// `done_s[i]` is when op `i` completed, `values[i]` its value. An op
/// outside every window is left out.
pub fn scaled(
    windows: &[Window],
    done_s: &[f64],
    values: &[f64],
    scale: impl Fn(&Window) -> f64,
) -> Vec<f64> {
    done_s
        .iter()
        .zip(values)
        .filter_map(|(&at, &v)| windows.iter().find(|w| w.holds(at)).map(|w| v * scale(w)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_repeats_its_work() {
        let (mut a, mut b) = (Probe::default(), Probe::default());
        assert_eq!(a.series, b.series);
        assert_eq!(a.iteration(), b.iteration());
        assert!(a.block_us() > 0.0);
    }

    #[test]
    fn a_phase_runs_its_windows_between_probe_blocks() {
        let mut cpu = 0.0;
        let measured = run_windows(
            Instant::now(),
            Cores::All,
            || {
                cpu += 0.5;
                Ok(cpu)
            },
            |k| {
                Ok(Load {
                    series: 10 * (k + 1),
                    more: k < 2,
                })
            },
        )
        .unwrap();
        assert_eq!(measured.windows.len(), 3);
        assert_eq!(measured.blocks_us.len(), 4);
        let w = measured.windows[1];
        assert_eq!((w.series, w.cpu_s), (20.0, 0.5));
        assert_eq!(
            w.probe_us,
            (measured.blocks_us[1] + measured.blocks_us[2]) / 2.0
        );
        // a probe block runs between consecutive windows
        assert!(measured.windows[0].to_s < w.from_s);
    }

    #[test]
    fn each_window_is_scaled_by_its_own_probe_reading() {
        let window = |from_s, to_s, probe_us| Window {
            from_s,
            to_s,
            series: 100.0,
            cpu_s: to_s - from_s,
            probe_us,
        };
        // window 0 ran at the reference speed, window 1 at half of it
        let windows = [
            window(0.0, 2.0, REFERENCE_US),
            window(3.0, 5.0, 2.0 * REFERENCE_US),
        ];
        assert_eq!(windows[1].scale(), 0.5);
        assert_eq!(rates(&windows, |_| 1.0), (50.0, 20.0));
        // at the reference speed the 4 s of load would have taken 3 s
        let (rate, cpu_ms) = rates(&windows, Window::scale);
        assert!((rate - 200.0 / 3.0).abs() < 1e-9, "{rate}");
        assert!((cpu_ms - 15.0).abs() < 1e-9, "{cpu_ms}");
        // ops keep to the window they completed in; one that completed in
        // the gap between windows is left out
        let done = [1.0, 2.5, 4.0];
        assert_eq!(
            scaled(&windows, &done, &[3.0, 3.0, 3.0], Window::scale),
            [3.0, 1.5]
        );
    }
}
