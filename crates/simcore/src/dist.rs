//! Probability distributions on top of [`Rng`](crate::rng::Rng).
//!
//! Each distribution is a small value type with a `sample(&mut Rng)` method,
//! plus the [`Distribution`] trait for generic call sites (workload
//! generators take `impl Distribution` so experiments can swap load shapes
//! without touching the cluster code).

use crate::rng::Rng;

/// Something that can draw `f64` samples from an [`Rng`].
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution mean, when it exists, for analytic cross-checks.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates the distribution; panics when `lo > hi` or a bound is not
    /// finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "uniform bounds must be finite"
        );
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.uniform(self.lo, self.hi)
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Normal distribution via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mu: f64,
    /// Standard deviation (non-negative).
    pub sigma: f64,
}

impl Normal {
    /// Creates the distribution; panics on negative or non-finite `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be >= 0, got {sigma}"
        );
        Normal { mu, sigma }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Marsaglia polar method; we deliberately discard the second variate
        // to keep the sampler stateless (determinism is easier to reason
        // about when each draw consumes a bounded, state-free number of RNG
        // outputs).
        loop {
            let u = rng.uniform(-1.0, 1.0);
            let v = rng.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter; strictly positive.
    pub lambda: f64,
}

impl Exponential {
    /// Creates the distribution; panics when `lambda <= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be > 0, got {lambda}"
        );
        Exponential { lambda }
    }
}

impl Distribution for Exponential {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse transform; (1 - u) keeps the argument strictly positive.
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Pareto (type I) distribution: heavy-tailed, used for spiky workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale: the minimum value, strictly positive.
    pub scale: f64,
    /// Shape `alpha`; strictly positive. The mean is finite only for
    /// `alpha > 1`.
    pub shape: f64,
}

impl Pareto {
    /// Creates the distribution; panics on non-positive parameters.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "scale must be > 0, got {scale}");
        assert!(shape > 0.0, "shape must be > 0, got {shape}");
        Pareto { scale, shape }
    }
}

impl Distribution for Pareto {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.scale / (1.0 - rng.next_f64()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.shape * self.scale / (self.shape - 1.0))
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Sampled by inversion against the precomputed CDF; `O(log n)` per draw.
/// Used for popularity-skewed application placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n`; panics when `n == 0` or
    /// `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be >= 0, got {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Knuth's multiplication method for small means, normal approximation with
/// continuity correction beyond `lambda = 30` (adequate for arrival counts;
/// error is well below the stochastic noise of the experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean; non-negative.
    pub lambda: f64,
}

impl Poisson {
    /// Creates the distribution; panics on negative or non-finite `lambda`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be >= 0, got {lambda}"
        );
        Poisson { lambda }
    }

    /// Draws a count.
    pub fn sample_count(&self, rng: &mut Rng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let n = Normal::new(self.lambda, self.lambda.sqrt()).sample(rng) + 0.5;
            if n < 0.0 {
                0
            } else {
                n as u64
            }
        }
    }
}

impl Distribution for Poisson {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_count(rng) as f64
    }

    fn mean(&self) -> Option<f64> {
        Some(self.lambda)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))` — the classic model for
/// file sizes and service times with a heavy right tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates the distribution; panics on negative or non-finite `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be >= 0, got {sigma}"
        );
        LogNormal { mu, sigma }
    }

    /// Parameterises the distribution by its own mean and the underlying
    /// sigma: `mu = ln(mean) − sigma²/2`.
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive, got {mean}");
        LogNormal::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        Normal::new(self.mu, self.sigma).sample(rng).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }
}

/// Weibull distribution — failure times and duty cycles; `shape < 1`
/// gives a decreasing hazard (infant mortality), `shape > 1` wear-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Scale parameter λ, strictly positive.
    pub scale: f64,
    /// Shape parameter k, strictly positive.
    pub shape: f64,
}

impl Weibull {
    /// Creates the distribution; panics on non-positive parameters.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "scale must be > 0, got {scale}");
        assert!(shape > 0.0, "shape must be > 0, got {shape}");
        Weibull { scale, shape }
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse transform: λ · (−ln(1−u))^{1/k}.
        self.scale * (-(1.0 - rng.next_f64()).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.scale * gamma(1.0 + 1.0 / self.shape))
    }
}

/// Erlang-k distribution: sum of `k` exponentials — service times with
/// bounded variability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    /// Number of exponential stages.
    pub k: u32,
    /// Rate of each stage.
    pub lambda: f64,
}

impl Erlang {
    /// Creates the distribution; panics on `k == 0` or non-positive rate.
    pub fn new(k: u32, lambda: f64) -> Self {
        assert!(k > 0, "Erlang needs at least one stage");
        assert!(lambda > 0.0 && lambda.is_finite(), "lambda must be > 0");
        Erlang { k, lambda }
    }
}

impl Distribution for Erlang {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Product-of-uniforms form avoids k logarithms.
        let mut prod = 1.0;
        for _ in 0..self.k {
            prod *= 1.0 - rng.next_f64();
        }
        -prod.ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(self.k as f64 / self.lambda)
    }
}

/// Lanczos approximation of the gamma function, used for the Weibull
/// mean. Accurate to ~1e-10 over the range the distributions use.
fn gamma(x: f64) -> f64 {
    // Lanczos g = 7, n = 9 coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// A constant "distribution" — handy as a degenerate workload shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    #[inline]
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }

    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_mean_matches() {
        let d = Uniform::new(0.2, 0.4);
        let m = sample_mean(&d, 1, 100_000);
        assert!((m - 0.3).abs() < 0.002, "mean {m}");
        assert!((d.mean().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn normal_mean_and_sd_match() {
        let d = Normal::new(5.0, 2.0);
        let mut rng = Rng::new(2);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::new(0.25);
        let m = sample_mean(&d, 3, 200_000);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(1.0);
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let d = Pareto::new(2.0, 2.5);
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
        let m = sample_mean(&d, 6, 400_000);
        let expect = d.mean().unwrap();
        assert!(
            (m - expect).abs() / expect < 0.05,
            "mean {m} expect {expect}"
        );
    }

    #[test]
    fn pareto_mean_undefined_for_heavy_tail() {
        assert_eq!(Pareto::new(1.0, 0.9).mean(), None);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.2);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 101];
        for _ in 0..50_000 {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        assert!(
            counts[1] > counts[2],
            "rank 1 {} rank 2 {}",
            counts[1],
            counts[2]
        );
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0, "rank 0 must never occur");
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let d = Zipf::new(4, 0.0);
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 5];
        let n = 80_000;
        for _ in 0..n {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts[1..] {
            assert!((c as f64 - n as f64 / 4.0).abs() < 800.0, "count {c}");
        }
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let d = Poisson::new(3.5);
        let m = sample_mean(&d, 9, 100_000);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let d = Poisson::new(250.0);
        let m = sample_mean(&d, 10, 50_000);
        assert!((m - 250.0).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = Rng::new(11);
        assert_eq!(Poisson::new(0.0).sample_count(&mut rng), 0);
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = Rng::new(12);
        assert_eq!(Constant(0.7).sample(&mut rng), 0.7);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn uniform_rejects_inverted_bounds() {
        Uniform::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn normal_rejects_negative_sigma() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn lognormal_mean_matches() {
        let d = LogNormal::with_mean(5.0, 0.5);
        let m = sample_mean(&d, 20, 400_000);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((d.mean().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let d = LogNormal::new(0.0, 1.0);
        let mut rng = Rng::new(21);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "right skew: mean {mean} > median {median}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(2.0, 1.0);
        let m = sample_mean(&w, 22, 200_000);
        assert!((m - 2.0).abs() < 0.03, "mean {m}");
        assert!((w.mean().unwrap() - 2.0).abs() < 1e-9, "Γ(2) = 1");
    }

    #[test]
    fn weibull_mean_uses_gamma() {
        let w = Weibull::new(1.0, 2.0);
        // mean = Γ(1.5) = √π/2 ≈ 0.8862.
        assert!((w.mean().unwrap() - 0.886_226_9).abs() < 1e-6);
        let m = sample_mean(&w, 23, 200_000);
        assert!((m - 0.8862).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn erlang_mean_and_lower_variance_than_exponential() {
        let e = Erlang::new(4, 2.0); // mean 2.0
        let m = sample_mean(&e, 24, 200_000);
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
        let mut rng = Rng::new(25);
        let n = 100_000;
        let var_erlang = {
            let xs: Vec<f64> = (0..n).map(|_| e.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64
        };
        let ex = Exponential::new(0.5); // same mean 2.0
        let var_exp = {
            let xs: Vec<f64> = (0..n).map(|_| ex.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64
        };
        assert!(
            var_erlang < var_exp,
            "Erlang-4 is less variable: {var_erlang} < {var_exp}"
        );
    }

    #[test]
    fn gamma_function_reference_points() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma(5.0) - 24.0).abs() < 1e-6);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "stage")]
    fn erlang_rejects_zero_stages() {
        Erlang::new(0, 1.0);
    }
}
