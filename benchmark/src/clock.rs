//! The benchmark's clock: seconds on one process-wide scale, and the same
//! with the time the hypervisor stole taken out.
//!
//! The box the baseline was recorded on is a two-CPU VM whose hypervisor
//! withholds anything from 0% to 60% of the CPU time the guest asks for,
//! changing from one second to the next and from one minute to the next
//! (`steal` in `/proc/stat`). Wall-clock figures follow it: the same binary
//! on the same seed reads 117 ops/s in one run and 55 in another. That is
//! the neighbours' load, not the program's cost, and no amount of repeating
//! averages it out of a run that sat in a bad minute. So the end-to-end time
//! metrics are read on a clock that stops while the hypervisor runs someone
//! else: a [`Sampler`] reads `/proc/stat` a few times a second while the
//! workload runs, and [`Unstolen`] takes from every interval the stolen time
//! that fell inside it. Where nothing is stolen (a machine of one's own, or
//! no `/proc/stat`) the two clocks are the same clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seconds since the process first asked.
pub fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// How often the sampler reads `/proc/stat`. The counters there move in
/// 10 ms steps, so a shorter window would mostly read rounding.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Seconds each CPU has been stolen since boot: field 8 (`steal`, in
/// hundredths of a second) of every `cpuN` line. Empty when there are none.
pub fn stolen_per_cpu(proc_stat: &str) -> Vec<f64> {
    proc_stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .map(|l| {
            let steal = l.split_ascii_whitespace().nth(8);
            steal.and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0) / 100.0
        })
        .collect()
}

/// Samples the stolen time of every CPU on a thread of its own (asleep but
/// for four reads a second) from `start` until `finish`.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(f64, Vec<f64>)>>,
}

impl Sampler {
    pub fn start() -> Self {
        let sample = || {
            let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
            (now(), stolen_per_cpu(&text))
        };
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![sample()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                samples.push(sample());
            }
            samples
        });
        Self { stop, thread }
    }

    pub fn finish(self) -> Unstolen {
        self.stop.store(true, Ordering::Relaxed);
        Unstolen::from_samples(&self.thread.join().expect("the sampler thread panicked"))
    }
}

/// Seconds by which the program was held up in one sample window, given the
/// seconds stolen from each CPU in it. The program stands still while any
/// CPU it is running on is stolen — a lone thread waits for its CPU, a
/// fork-join waits for its slowest worker, a lock's waiters wait for its
/// holder — and an idle CPU has nothing to steal, so it is the share of the
/// window in which at least one CPU was stolen. Which moments those were is
/// not recorded, only how long each CPU lost; taking the CPUs to be stolen
/// independently of each other, that share is 1 − Π(1 − stolenᵢ ÷ window).
fn held_up(window: f64, stolen: impl Iterator<Item = f64>) -> f64 {
    if window <= 0.0 {
        return 0.0;
    }
    let ours = stolen.fold(1.0, |ours, s| ours * (1.0 - (s / window).clamp(0.0, 1.0)));
    window * (1.0 - ours)
}

/// The clock that stops while the hypervisor runs someone else: for a time
/// on the process clock, how many seconds before it were stolen.
#[derive(Debug, Default)]
pub struct Unstolen {
    /// `(process clock, seconds held up so far)`, ascending in both.
    knots: Vec<(f64, f64)>,
}

impl Unstolen {
    /// From `(process clock, seconds stolen from each CPU since boot)`.
    pub fn from_samples(samples: &[(f64, Vec<f64>)]) -> Self {
        let mut knots = Vec::with_capacity(samples.len());
        let mut total = 0.0;
        for (i, (t, cpus)) in samples.iter().enumerate() {
            if let Some((before, earlier)) = i.checked_sub(1).map(|j| &samples[j]) {
                let stolen = cpus.iter().zip(earlier).map(|(now, then)| now - then);
                total += held_up(t - before, stolen);
            }
            knots.push((*t, total));
        }
        Self { knots }
    }

    /// Seconds held up before `t`: linear inside a sample window (the
    /// window's loss is spread evenly over it), flat outside the samples.
    pub fn stolen_before(&self, t: f64) -> f64 {
        let after = self.knots.partition_point(|k| k.0 <= t);
        match (after.checked_sub(1), self.knots.get(after)) {
            (None, _) => 0.0,
            (Some(i), None) => self.knots[i].1,
            (Some(i), Some(&(t1, s1))) => {
                let (t0, s0) = self.knots[i];
                s0 + (s1 - s0) * (t - t0) / (t1 - t0).max(f64::MIN_POSITIVE)
            }
        }
    }

    /// `t` on the clock that stops while time is stolen.
    pub fn at(&self, t: f64) -> f64 {
        t - self.stolen_before(t)
    }

    /// Share of `start..end` that was stolen.
    pub fn stolen_share(&self, start: f64, end: f64) -> f64 {
        if end <= start {
            return 0.0;
        }
        (self.stolen_before(end) - self.stolen_before(start)) / (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_time_is_read_per_cpu() {
        let text = "cpu  100 20 50 800 10 4 6 35 7 0\ncpu0 50 10 25 400 5 2 3 30 7 0\n\
                    cpu1 50 10 25 400 5 2 3 5 0 0\nintr 9\n";
        assert_eq!(stolen_per_cpu(text), vec![0.3, 0.05]);
        assert!(stolen_per_cpu("intr 5\n").is_empty());
    }

    #[test]
    fn the_program_stands_still_while_any_of_its_cpus_is_stolen() {
        // one busy thread: all that its CPU lost (the idle CPU lost nothing)
        assert!((held_up(1.0, [0.2, 0.0].into_iter()) - 0.2).abs() < 1e-12);
        // two CPUs each stolen a fifth of the window, independently: stolen
        // together a 25th of it, so at least one was gone for 0.36
        assert!((held_up(1.0, [0.2, 0.2].into_iter()) - 0.36).abs() < 1e-12);
        // nothing stolen, nothing lost; never more than the window
        assert_eq!(held_up(1.0, [0.0, 0.0].into_iter()), 0.0);
        assert_eq!(held_up(0.0, [0.3].into_iter()), 0.0);
        assert_eq!(held_up(1.0, [1.5, 0.1].into_iter()), 1.0);
        assert_eq!(held_up(1.0, std::iter::empty()), 0.0);
    }

    #[test]
    fn intervals_lose_the_stolen_time_that_fell_inside_them() {
        // window 10..11 is clean, 11..12 has 0.5 s stolen from one CPU
        let u = Unstolen::from_samples(&[
            (10.0, vec![1.0, 0.0]),
            (11.0, vec![1.0, 0.0]),
            (12.0, vec![1.5, 0.0]),
        ]);
        assert_eq!(u.stolen_before(9.0), 0.0);
        assert_eq!(u.stolen_before(11.0), 0.0);
        assert!((u.stolen_before(11.5) - 0.25).abs() < 1e-12);
        assert!((u.stolen_before(12.0) - 0.5).abs() < 1e-12);
        assert!((u.stolen_before(99.0) - 0.5).abs() < 1e-12);
        // an op from 10.5 to 11.5 took 1 s of wall, 0.75 s unstolen
        assert!((u.at(11.5) - u.at(10.5) - 0.75).abs() < 1e-12);
        assert!((u.stolen_share(11.0, 12.0) - 0.5).abs() < 1e-12);
        // the clock never runs backwards
        assert!(u.at(12.0) > u.at(11.0));
        // no samples, no correction
        assert_eq!(Unstolen::default().at(3.0), 3.0);
    }
}
