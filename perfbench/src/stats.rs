//! Small statistics helpers, the seeded generator that derives workload
//! inputs, and the host-speed probe.

use std::hint::black_box;
use std::time::Instant;

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    dco_obs::report::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// splitmix64: a tiny, well-mixed seeded generator. Every input the
/// benchmark feeds the program is drawn from one of these, so a workload
/// seed fixes the inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Host-speed probe: a fixed, allocation-free integer loop timed at regular
/// points of a run. It reads only while the program is idle (between flow
/// jobs; with both serve clients held), so its readings show how fast the
/// host itself was while the run measured. The time metrics are scaled by
/// it to a reference host speed (see [`HostProbe::at_ref`]).
///
/// The loop keeps eight independent multiply chains in flight, so it needs
/// the core's full issue width and slows down when the host slows the core.
/// On a 2-vCPU cloud host that is the dominant noise: it stretches a
/// `dco224` job from ~1.7 s to 2.4–2.9 s for seconds to minutes at a time.
/// Each loop takes the fastest of three passes, so a pass the OS interrupted
/// to run one of the benchmark's own threads does not count; a reading is
/// the slower of two loops run at once (see [`HostProbe::sample`]).
#[derive(Debug, Default)]
pub struct HostProbe {
    /// Milliseconds per reading.
    samples: Vec<f64>,
}

impl HostProbe {
    const ITERS: u64 = 300_000;

    /// The reading the job-time metrics are scaled to: about the fastest
    /// reading of the 2-vCPU Xeon host the bounds were set on.
    pub const REF_MS: f64 = 1.6;

    /// The median reading of the run so far.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// `t`, a time measured over the run (in any unit), scaled to a host
    /// whose median reading is [`HostProbe::REF_MS`]. A host phase that slows the probe
    /// slows the program with it, so the scaled time moves less with the
    /// host than the raw one; a change to the program moves both alike,
    /// since the probe's loop is not the program's code.
    pub fn at_ref(&self, t: f64) -> f64 {
        t * Self::REF_MS / self.median_ms()
    }

    /// Take one reading: the slower of two probe loops run at once. The
    /// serve workload keeps both vCPUs of a 2-vCPU host busy and a flow job
    /// may run on either, so a slow phase on either core must show.
    pub fn sample(&mut self) {
        let reading = || (0..3).map(|_| Self::pass()).fold(f64::INFINITY, f64::min);
        let ms = std::thread::scope(|s| {
            let other = s.spawn(reading);
            let mine = reading();
            other.join().map_or(mine, |theirs| mine.max(theirs))
        });
        self.samples.push(ms);
    }

    fn pass() -> f64 {
        let t = Instant::now();
        let mut x = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for i in 0..Self::ITERS {
            for v in x.iter_mut() {
                *v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (*v >> 29);
            }
        }
        black_box(x);
        ms_since(t)
    }

    /// One summary line: reading count, and min, median and max in ms.
    pub fn summary(&self) -> String {
        let s = &self.samples;
        format!(
            "host_probe n={} min_ms={:.3} median_ms={:.3} max_ms={:.3}",
            s.len(),
            quantile(s, 0.0),
            median(s),
            quantile(s, 1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
