//! The host's speed, measured beside the workload.
//!
//! The machine this benchmark runs on is a guest sharing its cores: the
//! same single-threaded code runs up to twice as slow for spells of one
//! to thirty seconds, with no steal time to show for it. A spell that
//! long cannot be averaged away inside a run, so the single-threaded
//! workloads take a control measurement instead: every few milliseconds
//! of work they time a fixed [`Kernel`] that belongs to the benchmark and
//! calls nothing of the repository. What slows the workload slows the
//! kernel, and the ratio of the two cancels it.
//!
//! The kernel sorts, probes a hash table and sifts a heap over a few
//! tens of kilobytes without allocating: branchy, cache-resident code
//! like the simulator's own. Of the kernels tried (a dependent multiply
//! chain, four independent ones, a pointer chase over 1 MB and over
//! 128 MB, a stream over 2 MB, a `BTreeMap` with boxed values) the
//! allocating one tracked `check-battery` best and this one next, within
//! a hundredth; an allocating kernel times the heap the workload leaves
//! behind (ten times slower beside `sim-scale`'s 685 MB), this one does
//! not.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Mean time of one [`Kernel::run`] on this repository's host in its
/// calmest spells. It only fixes the scale, so that corrected rates read
/// as those of a calm host; on another machine every corrected rate is
/// off by one common factor.
pub const CALM_KERNEL_S: f64 = 220e-6;

/// Work between two timings of the kernel. The kernel takes about 0.25 ms,
/// so sampling costs a run 2 to 3 % of its time (not of its measured
/// time: the kernel's share is taken out).
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// A kernel run longer than this many times the run's median was
/// interrupted, not slowed: the host slows code down twofold at most, and
/// now and then stops a process for up to 0.3 s, which in a mean over
/// 1 500 samples would read as a host at half its speed.
const STALL: f64 = 4.0;

const KEYS: usize = 512;
const SLOTS: usize = 8192;
const HEAP: usize = 1024;
const ROUNDS: usize = 24;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed piece of work: the same instructions over the same data in
/// every process, whatever the seed and whatever the repository's code.
pub struct Kernel {
    keys: Vec<u64>,
    table: Vec<u64>,
    heap: Vec<u64>,
    state: u64,
}

impl Kernel {
    pub fn new() -> Self {
        let mut kernel = Kernel {
            keys: vec![0; KEYS],
            table: vec![0; SLOTS],
            heap: (0..HEAP as u64).map(|i| i.wrapping_mul(GOLDEN)).collect(),
            state: 88_172_645_463_325_252,
        };
        // The table fills to its steady occupancy within a few runs.
        for _ in 0..4 {
            kernel.run();
        }
        kernel
    }

    /// [`ROUNDS`] rounds of: draw 512 keys, sort them, toggle each in an
    /// open-addressing table, and replace the top of a min-heap with it.
    pub fn run(&mut self) -> u64 {
        let mut x = self.state;
        let mut sum = 0u64;
        for _ in 0..ROUNDS {
            for key in &mut self.keys {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *key = x;
            }
            self.keys.sort_unstable();
            for &key in &self.keys {
                let mut at = (key.wrapping_mul(GOLDEN) >> 51) as usize;
                let mut probes = 0;
                while self.table[at] != 0 && self.table[at] != key && probes < 8 {
                    at = (at + 1) % SLOTS;
                    probes += 1;
                }
                self.table[at] = if self.table[at] == key { 0 } else { key };

                self.heap[0] = key;
                let mut i = 0;
                loop {
                    let left = 2 * i + 1;
                    if left >= HEAP {
                        break;
                    }
                    let right = left + 1;
                    let child = if right < HEAP && self.heap[right] < self.heap[left] {
                        right
                    } else {
                        left
                    };
                    if self.heap[child] >= self.heap[i] {
                        break;
                    }
                    self.heap.swap(child, i);
                    i = child;
                }
            }
            sum ^= self.heap[0];
        }
        self.state = x;
        black_box(sum)
    }

    /// The host's speed right now as a share of its calm speed, from a
    /// millisecond of the kernel: for work too short to sample inside.
    pub fn speed_now(&mut self) -> f64 {
        let mut runs: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                self.run();
                start.elapsed().as_secs_f64()
            })
            .collect();
        CALM_KERNEL_S / median(&mut runs)
    }
}

/// The mean of `samples` with each held to [`STALL`] times their median.
fn mean_without_stalls(samples: &[f64]) -> f64 {
    let cap = STALL * median(&mut samples.to_vec());
    samples.iter().map(|s| s.min(cap)).sum::<f64>() / samples.len() as f64
}

/// Times a single-threaded piece of work and, in alternation with it, the
/// kernel. The work calls [`HostSpeed::poll`] between its slices.
pub struct HostSpeed {
    kernel: Kernel,
    started: Instant,
    due: Instant,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Builds and warms the kernel, then starts the clock.
    pub fn start() -> Self {
        let kernel = Kernel::new();
        let started = Instant::now();
        HostSpeed {
            kernel,
            started,
            due: started + SAMPLE_EVERY,
            samples: Vec::with_capacity(4096),
        }
    }

    /// Between two slices of work: times the kernel once if
    /// [`SAMPLE_EVERY`] has passed since it last ran. Costs one clock
    /// read otherwise.
    pub fn poll(&mut self) {
        let now = Instant::now();
        if now >= self.due {
            self.sample(now);
        }
    }

    fn sample(&mut self, now: Instant) {
        self.kernel.run();
        let end = Instant::now();
        self.samples.push((end - now).as_secs_f64());
        self.due = end + SAMPLE_EVERY;
    }

    /// Stops the clock; work shorter than one sampling interval gets its
    /// one sample here.
    pub fn finish(mut self) -> Measured {
        let mut end = Instant::now();
        if self.samples.is_empty() {
            self.sample(end);
            end = Instant::now();
        }
        let kernel_s = self.samples.iter().sum::<f64>();
        Measured {
            work_s: (end - self.started).as_secs_f64() - kernel_s,
            kernel_s,
            kernel_mean_s: mean_without_stalls(&self.samples),
            kernel_min_s: self.samples.iter().copied().fold(f64::MAX, f64::min),
            samples: self.samples.len() as u64,
        }
    }
}

/// What [`HostSpeed`] saw.
pub struct Measured {
    /// Wall time of the work alone: the kernel's share is taken out.
    pub work_s: f64,
    /// Time spent in the kernel, all samples together.
    pub kernel_s: f64,
    /// Mean time of one kernel run, stalls held down.
    pub kernel_mean_s: f64,
    pub kernel_min_s: f64,
    pub samples: u64,
}

impl Measured {
    /// The host's speed during the work as a share of its calm speed:
    /// 1 in a calm spell, about 0.5 in the worst seen.
    pub fn speed(&self) -> f64 {
        CALM_KERNEL_S / self.kernel_mean_s
    }

    /// `count` per second of work, as a calm host would have done it:
    /// the plain rate divided by the host's speed at the time.
    pub fn calm_rate(&self, count: f64) -> f64 {
        count / self.work_s / self.speed()
    }

    /// The plain rate and what the correction rests on, for the
    /// diagnostics of a run.
    pub fn diagnostics(&self, count: f64) -> [(&'static str, f64); 5] {
        [
            ("acq_per_s.uncorrected", count / self.work_s),
            ("host.speed", self.speed()),
            ("host.kernel_us_mean", self.kernel_mean_s * 1e6),
            ("host.kernel_us_min", self.kernel_min_s * 1e6),
            ("host.kernel_samples", self.samples as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's inputs are its own: two fresh kernels do the same
    /// work, run after run.
    #[test]
    fn kernel_is_the_same_work_every_time() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        let sums = |k: &mut Kernel| (0..5).map(|_| k.run()).collect::<Vec<_>>();
        let first = sums(&mut a);
        assert_eq!(first, sums(&mut b));
        assert!(first.windows(2).any(|w| w[0] != w[1]), "the kernel's state does not advance");
    }

    #[test]
    fn a_host_at_half_speed_doubles_the_rate() {
        let calm = Measured {
            work_s: 2.0,
            kernel_s: 100.0 * CALM_KERNEL_S,
            kernel_mean_s: CALM_KERNEL_S,
            kernel_min_s: CALM_KERNEL_S,
            samples: 100,
        };
        assert!((calm.speed() - 1.0).abs() < 1e-12);
        assert!((calm.calm_rate(1_000.0) - 500.0).abs() < 1e-9);
        let slow = Measured { work_s: 4.0, kernel_mean_s: 2.0 * CALM_KERNEL_S, ..calm };
        assert!((slow.speed() - 0.5).abs() < 1e-12);
        assert!((slow.calm_rate(1_000.0) - 500.0).abs() < 1e-9);
    }

    /// A slow spell counts in full, a process stalled for 0.3 s in the
    /// middle of one sample as no more than [`STALL`] samples.
    #[test]
    fn a_stall_is_not_a_slow_host() {
        let mut samples = vec![250e-6; 60];
        samples.extend([500e-6; 40]);
        assert!((mean_without_stalls(&samples) - 350e-6).abs() < 1e-12);
        samples[0] = 0.3;
        let mean = mean_without_stalls(&samples);
        assert!((mean - (350e-6 + (STALL - 1.0) * 250e-6 / 100.0)).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn short_work_still_gets_a_sample() {
        let measured = HostSpeed::start().finish();
        assert_eq!(measured.samples, 1);
        assert!(measured.kernel_s > 0.0 && measured.work_s >= 0.0);
    }
}
