//! Time-varying arrival processes for scenario workloads.
//!
//! The plain open-loop sources of [`requests`](crate::requests) are
//! homogeneous Poisson: a flat rate `λ` per source. Scenario tournaments
//! need richer shapes — *flash crowds* (a keyed subset of sources ramps
//! to a multiple of its base rate and decays back) and *correlated
//! diurnal waves* (every source swings sinusoidally, with phases drawn
//! per source and pulled together by a correlation knob). Both are
//! non-homogeneous Poisson processes `λ·m(t)` realised by inversion:
//! draw a unit-mean exponential `E` from the source's existing arrival
//! stream, then solve `λ·∫ m(t) dt = E` over `[now, now + Δ]` for the
//! gap `Δ`. The modulation multiplier `m` has a closed-form integral for
//! every shape, so the solve is an exact replay of a fixed 60-step
//! bisection with no extra randomness — the arrival stream consumes
//! exactly one draw per arrival, the same as the flat process. The
//! replay evaluates the integral only at steps whose outcome is not
//! already known (see [`SourceProfile::next_gap_s`]), yet returns the
//! bisection's bits.
//!
//! Determinism contract (the `fault_stream` idiom): per-source profile
//! randomness (flash-crowd participation, diurnal phase) comes from
//! `request_stream(seed, Modulation, source)` and nowhere else, and a
//! modulation with zero intensity or amplitude is a *structural no-op* —
//! [`RateModulation::profile_for`] returns [`SourceProfile::Flat`]
//! without constructing a single RNG stream, so lowering a knob to zero
//! cannot perturb any other stream in the run.

use crate::requests::{request_stream, OpenLoopSource, RequestStreamDomain};
use std::f64::consts::TAU;

/// Fixed bisection depth for gap inversion. 60 halvings shrink any
/// practical bracket below one ULP. The solve replays exactly this many
/// `lo`/`hi` updates, so the gap is a pure function of the draw, the
/// profile and `now`, byte-identical across platforms and thread counts.
const BISECTION_STEPS: u32 = 60;

/// Most Newton iterations spent estimating the root before the
/// certified bracket is drawn around it (convergence is quadratic, so
/// two or three is usual; the cap only bounds a pathological profile).
const NEWTON_STEPS: u32 = 8;

/// Half-width of the certified bracket around the Newton root, in units
/// of `error bound / m(root)` plus an ulp of the instant: the two probes
/// must clear the target by twice the bound, and the estimate itself is
/// off by up to about one. A probe that fails to clear only costs work.
const BRACKET_WIDTH: f64 = 3.0;

/// Unit roundoff `u` of f64 arithmetic: every correctly rounded
/// operation has relative error at most `u`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// A flash crowd: a keyed fraction of sources ramps linearly from its
/// base rate to `peak_multiplier×` over `ramp_s`, then decays
/// exponentially back with time constant `decay_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdSpec {
    /// Scenario intensity knob in `[0, 1]`; scales the excess rate.
    /// `0` disables the flash crowd structurally (no streams built).
    pub intensity: f64,
    /// Seconds into the run when the ramp starts.
    pub onset_s: f64,
    /// Ramp duration, seconds (clamped to a tiny positive floor, so
    /// `0` means an effectively instantaneous jump).
    pub ramp_s: f64,
    /// Exponential decay time constant after the peak, seconds.
    pub decay_s: f64,
    /// Rate multiplier at the peak for a fully swept-up source at
    /// intensity 1 (e.g. `6.0` = six times the base rate).
    pub peak_multiplier: f64,
    /// Fraction of sources swept up in the crowd (keyed per source).
    pub participation: f64,
}

impl FlashCrowdSpec {
    /// A moderate reference crowd: 60 % of sources ramp to 6× over
    /// 30 s starting at t = 60 s, decaying with a 90 s time constant.
    pub fn moderate() -> Self {
        FlashCrowdSpec {
            intensity: 1.0,
            onset_s: 60.0,
            ramp_s: 30.0,
            decay_s: 90.0,
            peak_multiplier: 6.0,
            participation: 0.6,
        }
    }
}

/// A correlated diurnal wave: every source's rate swings sinusoidally
/// around its base with per-source phases. `correlation = 1` puts all
/// sources in phase (fleet-wide wave); `correlation = 0` spreads phases
/// uniformly over the period (waves largely cancel in aggregate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalSpec {
    /// Wave period, seconds.
    pub period_s: f64,
    /// Relative swing in `[0, 1)`: the rate varies between
    /// `λ(1 − amplitude)` and `λ(1 + amplitude)`. `0` disables the
    /// wave structurally (no streams built).
    pub amplitude: f64,
    /// Phase correlation across sources in `[0, 1]`.
    pub correlation: f64,
}

impl DiurnalSpec {
    /// A strong in-phase wave: ±70 % swing on a 240 s period, fully
    /// correlated across sources.
    pub fn correlated() -> Self {
        DiurnalSpec {
            period_s: 240.0,
            amplitude: 0.7,
            correlation: 1.0,
        }
    }
}

/// How a scenario modulates the arrival rates of its sources over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateModulation {
    /// Homogeneous Poisson — exactly the plain open-loop process.
    Flat,
    /// A flash crowd sweeping up a keyed fraction of sources.
    FlashCrowd(FlashCrowdSpec),
    /// A correlated diurnal wave across all sources.
    Diurnal(DiurnalSpec),
}

impl RateModulation {
    /// Resolves the modulation profile of one source. Per-source
    /// randomness (participation, phase) is keyed on
    /// `(seed, Modulation, source)`; `Flat`, a zero-intensity flash
    /// crowd and a zero-amplitude wave construct **zero** RNG streams.
    pub fn profile_for(&self, seed: u64, source: u64) -> SourceProfile {
        match *self {
            RateModulation::Flat => SourceProfile::Flat,
            RateModulation::FlashCrowd(spec) => {
                if spec.intensity <= 0.0 {
                    return SourceProfile::Flat;
                }
                let burst = spec.intensity.min(1.0) * (spec.peak_multiplier - 1.0).max(0.0);
                if burst <= 0.0 {
                    return SourceProfile::Flat;
                }
                let mut rng = request_stream(seed, RequestStreamDomain::Modulation, source);
                if rng.chance(spec.participation.clamp(0.0, 1.0)) {
                    SourceProfile::Flash {
                        burst,
                        onset_s: spec.onset_s.max(0.0),
                        ramp_s: spec.ramp_s.max(1e-9),
                        decay_s: spec.decay_s.max(1e-9),
                    }
                } else {
                    SourceProfile::Flat
                }
            }
            RateModulation::Diurnal(spec) => {
                if spec.amplitude <= 0.0 {
                    return SourceProfile::Flat;
                }
                let period_s = spec.period_s.max(1e-6);
                let mut rng = request_stream(seed, RequestStreamDomain::Modulation, source);
                let u = rng.next_f64();
                let phase_s = (1.0 - spec.correlation.clamp(0.0, 1.0)) * u * period_s;
                SourceProfile::Diurnal {
                    period_s,
                    amplitude: spec.amplitude.clamp(0.0, 0.95),
                    phase_s,
                }
            }
        }
    }
}

/// The resolved, per-source modulation shape: a pure function of time
/// with a closed-form integral, holding no RNG state of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceProfile {
    /// No modulation: `m(t) = 1` everywhere.
    Flat,
    /// Flash-crowd excursion: `m(t) = 1 + burst·f(t)` where `f` ramps
    /// linearly from 0 to 1 over `[onset, onset + ramp]` and decays as
    /// `exp(−(t − peak)/decay)` afterwards.
    Flash {
        /// Excess multiplier at the peak (`m_peak = 1 + burst`).
        burst: f64,
        /// Ramp start, seconds.
        onset_s: f64,
        /// Ramp duration, seconds (> 0).
        ramp_s: f64,
        /// Decay time constant, seconds (> 0).
        decay_s: f64,
    },
    /// Sinusoidal wave: `m(t) = 1 + A·sin(2π(t + φ)/P)`.
    Diurnal {
        /// Period `P`, seconds (> 0).
        period_s: f64,
        /// Amplitude `A` in `[0, 0.95]`, so `m ≥ 0.05` everywhere.
        amplitude: f64,
        /// Per-source phase offset `φ`, seconds.
        phase_s: f64,
    },
}

impl SourceProfile {
    /// True for the unmodulated profile (the structural no-op case).
    pub fn is_flat(&self) -> bool {
        matches!(self, SourceProfile::Flat)
    }

    /// The rate multiplier `m(t)` at absolute time `t_s`.
    pub fn multiplier_at(&self, t_s: f64) -> f64 {
        match *self {
            SourceProfile::Flat => 1.0,
            SourceProfile::Flash { burst, .. } => 1.0 + burst * self.flash_shape(t_s).1,
            SourceProfile::Diurnal {
                period_s,
                amplitude,
                phase_s,
            } => 1.0 + amplitude * (TAU * (t_s + phase_s) / period_s).sin(),
        }
    }

    /// Closed-form `∫ m(t) dt` over `[from_s, to_s]` (`from_s ≤ to_s`).
    pub fn integral(&self, from_s: f64, to_s: f64) -> f64 {
        let span = (to_s - from_s).max(0.0);
        match *self {
            SourceProfile::Flat => span,
            SourceProfile::Flash { burst, .. } => {
                span + burst * (self.flash_shape(to_s).0 - self.flash_shape(from_s).0)
            }
            SourceProfile::Diurnal {
                period_s,
                amplitude,
                phase_s,
            } => {
                let omega = TAU / period_s;
                span + amplitude / omega
                    * ((omega * (from_s + phase_s)).cos() - (omega * (to_s + phase_s)).cos())
            }
        }
    }

    /// A hard lower bound on `m(t)`, used to bracket gap inversion.
    fn min_multiplier(&self) -> f64 {
        match *self {
            SourceProfile::Flat | SourceProfile::Flash { .. } => 1.0,
            SourceProfile::Diurnal { amplitude, .. } => 1.0 - amplitude,
        }
    }

    /// The flash shape at `t_s`: its cumulative area from 0 to `t_s` and
    /// its value `f(t_s)`, both dimensionless (before the `burst` scale).
    /// One `exp` serves both.
    fn flash_shape(&self, t_s: f64) -> (f64, f64) {
        let SourceProfile::Flash {
            onset_s,
            ramp_s,
            decay_s,
            ..
        } = *self
        else {
            return (0.0, 0.0);
        };
        let peak_s = onset_s + ramp_s;
        if t_s <= onset_s {
            (0.0, 0.0)
        } else if t_s < peak_s {
            let x = t_s - onset_s;
            (x * x / (2.0 * ramp_s), x / ramp_s)
        } else {
            let tail = (-(t_s - peak_s) / decay_s).exp();
            (ramp_s / 2.0 + decay_s * (1.0 - tail), tail)
        }
    }

    /// Draws the next inter-arrival gap of `source` under this profile,
    /// starting from absolute time `now_s`: one unit exponential `E`
    /// from the source's arrival stream, inverted through the
    /// cumulative modulated rate so that `λ·∫ m = E` over the gap.
    /// Flat profiles reduce to exactly the plain `next_gap_s` draw,
    /// bit for bit. `None` when the source is silent.
    ///
    /// A modulated gap is the result of a fixed 60-step bisection on
    /// `∫ m < E/λ`, replayed exactly: the same `lo`/`hi`/`mid` updates,
    /// hence the same bits. The integral is evaluated only at steps
    /// whose outcome is not already known. The start instant's terms
    /// are evaluated once per gap. A step whose instant `now + mid`
    /// rounds to the instant of the `lo` or `hi` end takes that end's
    /// recorded outcome. And a Newton estimate of the root, probed on
    /// both sides, settles every step outside a narrow certified
    /// bracket (see `Cumulative::certify`).
    pub fn next_gap_s(&self, source: &mut OpenLoopSource, now_s: f64) -> Option<f64> {
        let e = source.next_unit_exp()?;
        if self.is_flat() {
            return Some(e / source.rate_per_s);
        }
        // Target area of m to accumulate: λ·∫m = E  ⇔  ∫m = E/λ.
        Some(self.invert(e / source.rate_per_s, now_s).0)
    }

    /// The exact-replay solve of `∫ m = target` over
    /// `[now_s, now_s + gap]`: returns the gap and the number of
    /// closed-form integral evaluations it spent (the start instant's
    /// hoisted term counts as one).
    fn invert(&self, target: f64, now_s: f64) -> (f64, u32) {
        let cumulative = Cumulative::new(*self, now_s);
        let mut evals = 1;
        // m ≥ min_multiplier > 0 brackets the root at target/m_min;
        // a doubling guard absorbs rounding at the bracket edge.
        let mut hi = target / self.min_multiplier();
        // Settled outcomes, as gap offsets: below at every step with
        // `mid ≤ below_to`, not below at every `mid ≥ above_from`.
        // Certified up to one doubling, the most rounding at the bracket
        // edge calls for, so the guard stops there or sooner.
        let (below_to, above_from) = cumulative.certify(target, 2.0 * hi, &mut evals);
        // The outcome of the step at gap offset `x`, from the
        // certificate where it speaks, else from the integral.
        let mut outcome = |x: f64| {
            if x <= below_to {
                true
            } else if x >= above_from {
                false
            } else {
                evals += 1;
                cumulative.integral_to(now_s + x) < target
            }
        };
        let mut hi_below = outcome(hi);
        let mut guard = 0;
        while hi_below && guard < 8 {
            hi *= 2.0;
            guard += 1;
            hi_below = outcome(hi);
        }
        // Only `hi` has a recorded outcome so far (true if the guard gave
        // up). The `lo = 0` end was never evaluated: no instant matches
        // NaN, so its outcome is learnt on demand (false for a zero
        // target); after that `lo` only moves to a step found below.
        let mut lo = 0.0f64;
        let mut t_lo = f64::NAN;
        let mut t_hi = now_s + hi;
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            let t = now_s + mid;
            let is_below = if t == t_hi {
                hi_below
            } else if t == t_lo {
                true
            } else {
                outcome(mid)
            };
            if is_below {
                (lo, t_lo) = (mid, t);
            } else {
                (hi, t_hi, hi_below) = (mid, t, false);
            }
        }
        (hi, evals)
    }
}

/// `∫ m` from a fixed start instant, with the start's own term (the
/// flash shape's area, or the wave's cosine) evaluated once instead of
/// in every call. [`Cumulative::integral_to`] performs the operations
/// of [`SourceProfile::integral`] in the same order, so it returns the
/// same bits.
struct Cumulative {
    profile: SourceProfile,
    from_s: f64,
    /// Flash: the shape's area at `from_s`. Wave: `cos(ω(from_s + φ))`.
    from_term: f64,
    /// `m(from_s)`, which seeds the Newton estimate.
    from_rate: f64,
}

impl Cumulative {
    fn new(profile: SourceProfile, from_s: f64) -> Self {
        let (from_term, from_rate) = match profile {
            SourceProfile::Flat => (0.0, 1.0),
            SourceProfile::Flash { burst, .. } => {
                let (area, shape) = profile.flash_shape(from_s);
                (area, 1.0 + burst * shape)
            }
            SourceProfile::Diurnal {
                period_s,
                amplitude,
                phase_s,
            } => {
                let angle = TAU / period_s * (from_s + phase_s);
                (angle.cos(), 1.0 + amplitude * angle.sin())
            }
        };
        Cumulative {
            profile,
            from_s,
            from_term,
            from_rate,
        }
    }

    /// `∫ m` over `[from_s, to_s]`, bitwise `profile.integral(from_s, to_s)`.
    fn integral_to(&self, to_s: f64) -> f64 {
        self.integral_and_rate(to_s).0
    }

    /// `(∫ m over [from_s, to_s], m(to_s))`: the Newton step's value and
    /// slope. For a flash crowd one `exp` serves both.
    #[inline]
    fn integral_and_rate(&self, to_s: f64) -> (f64, f64) {
        let span = (to_s - self.from_s).max(0.0);
        match self.profile {
            SourceProfile::Flat => (span, 1.0),
            SourceProfile::Flash { burst, .. } => {
                let (area, shape) = self.profile.flash_shape(to_s);
                (span + burst * (area - self.from_term), 1.0 + burst * shape)
            }
            SourceProfile::Diurnal {
                period_s,
                amplitude,
                phase_s,
            } => {
                let omega = TAU / period_s;
                let angle = omega * (to_s + phase_s);
                (
                    span + amplitude / omega * (self.from_term - angle.cos()),
                    1.0 + amplitude * angle.sin(),
                )
            }
        }
    }

    /// Settles in advance the bisection outcome `integral_to(t) < target`
    /// at every gap `x ∈ [0, hi]` (instant `t = from_s + x`, rounded) but
    /// a narrow bracket around the root. Returns `(below_to, above_from)`
    /// as gaps: the outcome is true at every `x ≤ below_to` and false at
    /// every `x ≥ above_from` in that range, since rounding `from_s + x`
    /// is monotone in `x`; `(−∞, +∞)` settles nothing.
    ///
    /// Newton estimates the root; the integral is then probed at the
    /// estimate ± a few error bounds. By [`Cumulative::error_bound`]
    /// the float integral is within `B` of a strictly increasing exact
    /// one `g`, so for `t ≤ t′` in the range,
    /// `fl(t) ≤ g(t) + B ≤ g(t′) + B ≤ fl(t′) + 2B`: a probe at `t′`
    /// with `fl(t′) + 2B < target` settles every earlier instant as
    /// below, and likewise one with `fl(t′) − 2B ≥ target` every later
    /// instant as not below. This holds although `fl` itself need not
    /// be monotone. A probe that fails to clear settles nothing.
    fn certify(&self, target: f64, hi: f64, evals: &mut u32) -> (f64, f64) {
        let Some((bound, curvature)) = self.error_bound(target, self.from_s + hi) else {
            return (f64::NEG_INFINITY, f64::INFINITY);
        };
        // Newton on F(x) = ∫ m over [from, from + x] − target, kept
        // inside the bracket [lo, up] where F changes sign.
        let (mut lo, mut up) = (0.0, hi);
        let mut x = (target / self.from_rate).min(hi);
        let mut rate = self.from_rate;
        for _ in 0..NEWTON_STEPS {
            *evals += 1;
            let (area, slope) = self.integral_and_rate(self.from_s + x);
            rate = slope;
            let excess = area - target;
            let step = excess / slope;
            // F′ = m is Lipschitz, so the next error is about
            // curvature·step²: once that is below the bound, stop.
            if curvature * step * step <= bound {
                x -= step;
                break;
            }
            if excess < 0.0 {
                lo = x;
            } else {
                up = x;
            }
            x = if x - step > lo && x - step < up {
                x - step
            } else {
                0.5 * (lo + up)
            };
        }
        // Instants are f64s too: keep the probes a few of their ulps
        // off the root, or a bound far below one ulp cannot clear.
        let half_width = BRACKET_WIDTH * (bound / rate + f64::EPSILON * (self.from_s + x).abs());
        let x_below = (x - half_width).clamp(0.0, hi);
        let x_above = (x + half_width).clamp(0.0, hi);
        *evals += 2;
        let below_to = if self.integral_to(self.from_s + x_below) + 2.0 * bound < target {
            x_below
        } else {
            f64::NEG_INFINITY
        };
        let above_from = if self.integral_to(self.from_s + x_above) - 2.0 * bound >= target {
            x_above
        } else {
            f64::INFINITY
        };
        (below_to, above_from)
    }

    /// A proven bound `B ≥ |integral_to(t) − g(t)|` over every instant
    /// `t ∈ [from_s, t_top]`, where `g` is the same formula in real
    /// arithmetic, together with the Newton curvature
    /// `max|m′| / (2·min m)`. `None` when `g` is not strictly
    /// increasing or the magnitudes leave the range of the derivation.
    ///
    /// Derivation, with `u` the unit roundoff, `s = t − from_s`, every
    /// basic operation correctly rounded, and `exp`/`cos` assumed within
    /// 2 ulp (relative error ≤ 4u; common libms are within 1):
    /// * The span `fl(t − from_s)` errs by ≤ `u·s`.
    /// * Flash, with `P = onset + ramp` and `P̂ = fl(P)`: the ramp
    ///   branch rounds four times, ≤ `4.01u·x²/2ramp ≤ 2.01u·ramp`.
    ///   Where `P ≤ τ < P̂` it stands in for the decay formula, off by
    ///   ≤ `η²(1/2ramp + 1/2decay)` with `η ≤ u|P|`, negligible since
    ///   `1024u|P| ≤ min(ramp, decay)` is required. In the decay branch
    ///   the exponent `z` errs by ≤ `2.01u·z + u|P|/decay`, which costs
    ///   ≤ `decay·e^(−z)·2.01u·z + u|P| ≤ 0.74u·decay + u|P|`; `exp`,
    ///   `1 − e`, the product and the add contribute `4u·decay`,
    ///   `2.01u·decay` and `u(ramp/2 + decay)`; where `P̂ ≤ τ < P` the
    ///   mismatch adds ≤ `2.01u|P|` in all. So each area errs by
    ///   `E ≤ u(2.01·ramp + 7.75·decay + 2.01|P|)`. Two areas, their
    ///   difference, the `burst` product and the final add then give
    ///   `|fl − g| ≤ u(2.01s + burst(4.02|onset| + 9.6·ramp + 18.6·decay))`.
    /// * Wave, with the f64 `ω` taken as exact and `a` the amplitude:
    ///   each angle `ω(τ + φ)` errs by ≤ `2.01u·ω|τ + φ|`, so each cosine
    ///   by ≤ `4u + 2.01u·ω|τ + φ|`. The quotient `a/ω`, the difference
    ///   and the product add `6.02u·a/ω`, the final add `u(s + 2a/ω)`:
    ///   `|fl − g| ≤ u(2.01s + 16.1a/ω + 4.02a(|from_s + φ| + |t_top + φ|))`.
    /// * Underflow adds at most `2⁻¹⁰⁷⁴(1 + burst(1 + decay + 1/ramp))`.
    ///
    /// The returned `8u·(…)` dominates every coefficient above (8 ≥ 4.02,
    /// 16 ≥ 9.6, 24 ≥ 18.6 and 24 ≥ 16.1), and its `8u·target` term
    /// absorbs the rounding of the certificate's own comparisons.
    /// Magnitudes ≤ 1e100 keep every intermediate (the largest is the
    /// ramp's `x²`) far from overflow.
    fn error_bound(&self, target: f64, t_top: f64) -> Option<(f64, f64)> {
        let u = UNIT_ROUNDOFF;
        let span = t_top - self.from_s;
        let (size, scale, curvature, underflow) = match self.profile {
            SourceProfile::Flat => return None,
            SourceProfile::Flash {
                burst,
                onset_s,
                ramp_s,
                decay_s,
            } => {
                let peak = onset_s.abs() + ramp_s;
                let shortest = ramp_s.min(decay_s);
                if !(burst >= 0.0 && shortest > 0.0 && 1024.0 * u * peak <= shortest) {
                    return None;
                }
                // Before the onset both areas are exactly 0.
                let areas = if t_top <= onset_s {
                    0.0
                } else {
                    burst * (onset_s.abs() + 2.0 * ramp_s + 3.0 * decay_s)
                };
                (
                    peak + decay_s,
                    span + target + areas,
                    0.5 * burst / shortest,
                    f64::MIN_POSITIVE * (1.0 + burst * (1.0 + decay_s + 1.0 / ramp_s)),
                )
            }
            SourceProfile::Diurnal {
                period_s,
                amplitude,
                phase_s,
            } => {
                let omega = TAU / period_s;
                if !((0.0..1.0).contains(&amplitude) && omega > 0.0) {
                    return None;
                }
                let reach = (self.from_s + phase_s).abs() + (t_top + phase_s).abs();
                (
                    reach + omega,
                    span + target + amplitude * (3.0 / omega + reach),
                    0.5 * amplitude * omega / (1.0 - amplitude),
                    f64::MIN_POSITIVE,
                )
            }
        };
        let certifiable = target > 0.0 && span >= 0.0 && size <= 1e100 && scale <= 1e100;
        certifiable.then_some((8.0 * u * scale + underflow, curvature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::AppId;
    use crate::requests::SlaClass;
    use ecolb_simcore::proptest_lite::{check, Gen};

    fn source(seed: u64, idx: u64, rate: f64) -> OpenLoopSource {
        OpenLoopSource::new(seed, idx, AppId(idx), rate, SlaClass::Bronze)
    }

    #[test]
    fn flat_profile_gaps_are_bitwise_the_plain_draw() {
        let mut plain = source(11, 3, 1.7);
        let mut modded = source(11, 3, 1.7);
        let profile = RateModulation::Flat.profile_for(11, 3);
        let mut now = 0.0;
        for _ in 0..256 {
            let a = plain.next_gap_s().unwrap();
            let b = profile.next_gap_s(&mut modded, now).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
            now += a;
        }
    }

    #[test]
    fn zero_intensity_flash_crowd_is_a_structural_noop() {
        let spec = FlashCrowdSpec {
            intensity: 0.0,
            ..FlashCrowdSpec::moderate()
        };
        for src in 0..64 {
            assert!(RateModulation::FlashCrowd(spec)
                .profile_for(5, src)
                .is_flat());
        }
        // Unit peak multiplier is equally inert even at full intensity.
        let unit = FlashCrowdSpec {
            peak_multiplier: 1.0,
            ..FlashCrowdSpec::moderate()
        };
        assert!(RateModulation::FlashCrowd(unit).profile_for(5, 0).is_flat());
        // Zero-amplitude waves too.
        let still = DiurnalSpec {
            amplitude: 0.0,
            ..DiurnalSpec::correlated()
        };
        assert!(RateModulation::Diurnal(still).profile_for(5, 0).is_flat());
    }

    #[test]
    fn flash_multiplier_has_the_ramp_peak_decay_shape() {
        let profile = RateModulation::FlashCrowd(FlashCrowdSpec {
            participation: 1.0,
            ..FlashCrowdSpec::moderate()
        })
        .profile_for(7, 0);
        assert!(!profile.is_flat());
        assert_eq!(profile.multiplier_at(0.0), 1.0);
        assert_eq!(profile.multiplier_at(60.0), 1.0);
        let mid = profile.multiplier_at(75.0);
        let peak = profile.multiplier_at(90.0);
        assert!((peak - 6.0).abs() < 1e-9, "peak {peak}");
        assert!((mid - 3.5).abs() < 1e-9, "mid-ramp {mid}");
        let later = profile.multiplier_at(90.0 + 90.0);
        assert!((later - (1.0 + 5.0 / std::f64::consts::E)).abs() < 1e-9);
        assert!(profile.multiplier_at(10_000.0) < 1.0 + 1e-6);
    }

    #[test]
    fn participation_is_keyed_and_partial() {
        let modulation = RateModulation::FlashCrowd(FlashCrowdSpec::moderate());
        let swept = (0..2000)
            .filter(|&i| !modulation.profile_for(13, i).is_flat())
            .count();
        assert!((1050..1350).contains(&swept), "swept {swept}");
        assert_eq!(modulation.profile_for(13, 4), modulation.profile_for(13, 4));
    }

    #[test]
    fn diurnal_correlation_pulls_phases_together() {
        let in_phase = RateModulation::Diurnal(DiurnalSpec::correlated());
        let p0 = in_phase.profile_for(3, 0);
        let p1 = in_phase.profile_for(3, 1);
        assert_eq!(p0, p1, "full correlation ⇒ identical profiles");

        let spread = RateModulation::Diurnal(DiurnalSpec {
            correlation: 0.0,
            ..DiurnalSpec::correlated()
        });
        let q0 = spread.profile_for(3, 0);
        let q1 = spread.profile_for(3, 1);
        assert_ne!(q0, q1, "zero correlation ⇒ distinct phases");
    }

    #[test]
    fn closed_form_integral_matches_quadrature() {
        let profiles = [
            RateModulation::FlashCrowd(FlashCrowdSpec {
                participation: 1.0,
                ..FlashCrowdSpec::moderate()
            })
            .profile_for(9, 0),
            RateModulation::Diurnal(DiurnalSpec {
                correlation: 0.3,
                ..DiurnalSpec::correlated()
            })
            .profile_for(9, 1),
        ];
        for profile in profiles {
            for (a, b) in [(0.0, 50.0), (40.0, 130.0), (85.0, 400.0)] {
                let n = 200_000;
                let h = (b - a) / n as f64;
                let riemann: f64 = (0..n)
                    .map(|i| profile.multiplier_at(a + (i as f64 + 0.5) * h) * h)
                    .sum();
                let exact = profile.integral(a, b);
                assert!(
                    (exact - riemann).abs() < 1e-3 * riemann.abs().max(1.0),
                    "integral [{a},{b}]: exact {exact} vs quadrature {riemann}"
                );
            }
        }
    }

    #[test]
    fn modulated_gap_inverts_the_cumulative_rate() {
        // The defining identity: λ·∫m over the returned gap equals the
        // exponential that produced it. Check indirectly: advancing a
        // clock by modulated gaps and summing λ·∫m over each gap must
        // reproduce the plain-source unit-exponential stream.
        let profile = RateModulation::FlashCrowd(FlashCrowdSpec {
            participation: 1.0,
            ..FlashCrowdSpec::moderate()
        })
        .profile_for(21, 0);
        let mut modded = source(21, 0, 2.0);
        let mut reference = source(21, 0, 2.0);
        let mut now = 0.0;
        for _ in 0..512 {
            let gap = profile.next_gap_s(&mut modded, now).unwrap();
            let area = 2.0 * profile.integral(now, now + gap);
            let e = reference.next_unit_exp().unwrap();
            assert!((area - e).abs() < 1e-6 * e.max(1.0), "area {area} vs E {e}");
            now += gap;
        }
    }

    #[test]
    fn silent_source_is_silent_under_any_profile() {
        let profile = RateModulation::Diurnal(DiurnalSpec::correlated()).profile_for(2, 0);
        let mut silent = source(2, 0, 0.0);
        assert_eq!(profile.next_gap_s(&mut silent, 0.0), None);
    }

    /// The bisection the exact replay must reproduce, kept verbatim as
    /// the oracle: every gap is a pure function of these updates.
    fn bisection_oracle(profile: &SourceProfile, target: f64, now_s: f64) -> f64 {
        let mut hi = target / profile.min_multiplier();
        let mut guard = 0;
        while profile.integral(now_s, now_s + hi) < target && guard < 8 {
            hi *= 2.0;
            guard += 1;
        }
        let mut lo = 0.0f64;
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if profile.integral(now_s, now_s + mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Inverts `target` at `now_s` and requires the oracle's bits.
    /// Returns the gap and the integral evaluations spent.
    fn replay_matches_oracle(profile: &SourceProfile, target: f64, now_s: f64) -> (f64, u32) {
        let (gap, evals) = profile.invert(target, now_s);
        let want = bisection_oracle(profile, target, now_s);
        assert_eq!(
            gap.to_bits(),
            want.to_bits(),
            "{profile:?}: target {target:e} at {now_s}: replay {gap:e}, oracle {want:e}"
        );
        (gap, evals)
    }

    /// The `serve_faulted` crowd: onset 300 s, 120 s ramp, 400 s decay,
    /// 3× peak.
    const FAULTED_CROWD: SourceProfile = SourceProfile::Flash {
        burst: 2.0,
        onset_s: 300.0,
        ramp_s: 120.0,
        decay_s: 400.0,
    };

    /// The serve horizon the arrival processes run over.
    const HORIZON_S: f64 = 1800.0;

    fn log_uniform(g: &mut Gen, lo: f64, hi: f64) -> f64 {
        g.f64_in(lo.ln(), hi.ln()).exp()
    }

    fn wave(period_s: f64, amplitude: f64, phase_s: f64) -> SourceProfile {
        SourceProfile::Diurnal {
            period_s,
            amplitude,
            phase_s,
        }
    }

    #[test]
    fn exact_replay_matches_the_bisection_oracle() {
        check("exact_replay_matches_bisection_oracle", |g| {
            let profile = match g.usize_in(0, 4) {
                0 => FAULTED_CROWD,
                1 => SourceProfile::Flash {
                    burst: log_uniform(g, 0.01, 10.0),
                    onset_s: g.f64_in(0.0, 900.0),
                    // The spec's 1e-9 floor is an instantaneous jump.
                    ramp_s: if g.usize_in(0, 5) == 0 {
                        1e-9
                    } else {
                        log_uniform(g, 0.01, 600.0)
                    },
                    decay_s: log_uniform(g, 0.1, 1000.0),
                },
                arm => {
                    let period_s = log_uniform(g, 10.0, 2000.0);
                    let amplitude = if arm == 2 { g.f64_in(0.05, 0.95) } else { 0.95 };
                    wave(period_s, amplitude, g.f64_in(0.0, period_s))
                }
            };
            let rate = log_uniform(g, 1e-2, 1e3);
            // Segment boundaries: the ramp's start and peak; the wave's
            // extremes, where m′ changes sign.
            let boundary = match profile {
                SourceProfile::Flash {
                    onset_s, ramp_s, ..
                } => [onset_s, onset_s + ramp_s][g.usize_in(0, 2)],
                SourceProfile::Diurnal {
                    period_s, phase_s, ..
                } => {
                    let k = g.usize_in(0, 2 * (HORIZON_S / period_s) as usize + 1);
                    ((0.25 + 0.5 * k as f64) * period_s - phase_s).max(0.0)
                }
                SourceProfile::Flat => 0.0,
            };
            let mut now_s = match g.usize_in(0, 4) {
                0 => g.f64_in(0.0, HORIZON_S),
                1 => boundary,
                2 => f64::from_bits(boundary.to_bits() + g.u64_in(0, 8)) - 0.0,
                _ => (boundary - g.f64_in(0.0, 3.0) / rate).max(0.0),
            };
            for _ in 0..24 {
                let u = match g.usize_in(0, 8) {
                    0 => 1.0 - 0.5f64.powi(g.usize_in(1, 54) as i32),
                    1 => g.f64_in(0.0, 1e-12),
                    _ => g.f64_in(0.0, 1.0),
                };
                let target = -(1.0 - u).ln() / rate;
                now_s += replay_matches_oracle(&profile, target, now_s).0;
                if now_s > HORIZON_S {
                    now_s = g.f64_in(0.0, HORIZON_S);
                }
            }
        });
    }

    #[test]
    fn zero_unit_exponential_gives_a_zero_gap_under_every_profile() {
        // A zero uniform draws E = −ln 1 = −0.0, so the target is zero.
        // The replay must not assume the `lo = 0` end is below the
        // target: here it is not, and every step lands on `hi`.
        let e = -(1.0f64 - 0.0).ln();
        let mut plain = source(1, 0, 2.5);
        assert_eq!(e / plain.rate_per_s, 0.0, "flat: the plain draw");
        assert!(plain.next_gap_s().is_some());
        let profiles = [
            FAULTED_CROWD,
            wave(240.0, 0.7, 0.0),
            wave(240.0, 0.95, 31.0),
        ];
        for profile in profiles {
            for rate in [1e-2, 1.0, 1e3] {
                for now_s in [0.0, 299.0, 300.0, 420.0, 1000.0, HORIZON_S] {
                    for target in [e / rate, 0.0] {
                        let (gap, _) = replay_matches_oracle(&profile, target, now_s);
                        assert_eq!(gap.to_bits(), 0.0f64.to_bits(), "{profile:?} at {now_s}");
                    }
                }
            }
        }
    }

    #[test]
    fn exhausted_doubling_guard_replays_verbatim() {
        // After 8 doublings `hi` may still be short of the root, so its
        // recorded outcome is *below*. Two profiles reach that path:
        // a wave with amplitude > 1 (m < 0 in places, so the starting
        // `hi` is negative) and a flash whose negative burst sinks m to
        // 0.001 (so 256× the starting `hi` covers a quarter of the area).
        let profiles = [
            wave(50.0, 1.5, 0.0),
            SourceProfile::Flash {
                burst: -0.999,
                onset_s: 0.0,
                ramp_s: 1e-9,
                decay_s: 1e9,
            },
        ];
        for profile in profiles {
            let mut exhausted = 0;
            for k in 0..200 {
                let now_s = 0.37 * k as f64;
                for target in [1e-3, 0.1, 1.0, 7.0] {
                    let hi = target / profile.min_multiplier();
                    exhausted += usize::from(
                        (0..=8)
                            .all(|d| profile.integral(now_s, now_s + hi * 2f64.powi(d)) < target),
                    );
                    replay_matches_oracle(&profile, target, now_s);
                }
            }
            assert!(
                exhausted > 100,
                "{profile:?}: guard exhausted {exhausted} times"
            );
        }
    }

    #[test]
    fn error_bound_dominates_the_observed_rounding() {
        // The certificate is sound only if `error_bound` covers the
        // rounding of `integral_to`. Measure that rounding against a
        // reference that differences the two terms analytically (so it
        // carries no error of the order of the terms themselves), over
        // short gaps where the flash decays and across the wave.
        let u = UNIT_ROUNDOFF;
        check("error_bound_dominates_observed_rounding", |g| {
            let (profile, now_s) = if g.usize_in(0, 2) == 0 {
                let profile = SourceProfile::Flash {
                    burst: log_uniform(g, 0.1, 10.0),
                    onset_s: g.f64_in(0.0, 300.0),
                    ramp_s: log_uniform(g, 1.0, 300.0),
                    decay_s: log_uniform(g, 10.0, 1000.0),
                };
                (profile, g.f64_in(600.0, HORIZON_S))
            } else {
                let period_s = log_uniform(g, 60.0, 2000.0);
                let profile = wave(period_s, g.f64_in(0.05, 0.95), g.f64_in(0.0, period_s));
                (profile, g.f64_in(0.0, HORIZON_S))
            };
            let cumulative = Cumulative::new(profile, now_s);
            for _ in 0..64 {
                let t = now_s + log_uniform(g, 1e-6, 1.0);
                // `t − now` is exact here (Sterbenz), and so is the span.
                let span = t - now_s;
                let reference = match profile {
                    SourceProfile::Flash {
                        burst,
                        onset_s,
                        ramp_s,
                        decay_s,
                    } => {
                        let head = (-(now_s - (onset_s + ramp_s)) / decay_s).exp();
                        span + burst * decay_s * head * -(-span / decay_s).exp_m1()
                    }
                    SourceProfile::Diurnal {
                        period_s,
                        amplitude,
                        phase_s,
                    } => {
                        // cos a − cos b = 2 sin((a + b)/2) sin((b − a)/2).
                        let omega = TAU / period_s;
                        let middle = omega * (now_s + 0.5 * span + phase_s);
                        span + amplitude / omega * 2.0 * middle.sin() * (0.5 * omega * span).sin()
                    }
                    SourceProfile::Flat => span,
                };
                let (bound, _) = cumulative
                    .error_bound(1.0, t)
                    .expect("the profile is certifiable");
                // The reference errs by a few ulps of the (small) terms.
                let slack = 64.0 * u * (span + reference.abs());
                let observed = (cumulative.integral_to(t) - reference).abs();
                assert!(
                    observed <= bound + slack,
                    "{profile:?} [{now_s}, {t}]: rounding {observed:e} over bound {bound:e}"
                );
            }
        });
    }

    /// Mean and largest integral evaluations per gap of one source
    /// walking the serve horizon under `profile`.
    fn work_per_gap(profile: SourceProfile, rate: f64) -> (f64, u32) {
        let mut src = source(20140109, 0, rate);
        let (mut now_s, mut gaps, mut evals, mut most) = (0.0, 0u32, 0u32, 0u32);
        while now_s < HORIZON_S {
            let target = src.next_unit_exp().expect("the source is live") / rate;
            let (gap, spent) = replay_matches_oracle(&profile, target, now_s);
            now_s += gap;
            gaps += 1;
            evals += spent;
            most = most.max(spent);
        }
        (f64::from(evals) / f64::from(gaps), most)
    }

    #[test]
    fn inversion_work_per_gap_is_gated() {
        // The bisection alone spends 60 evaluations per gap, plus at
        // least one for the doubling guard. The counts are exact, so
        // this gate holds on any host.
        for rate in [0.2, 1.0, 5.0] {
            let (mean, _) = work_per_gap(FAULTED_CROWD, rate);
            assert!(
                mean <= 20.0,
                "flash at {rate}/s: {mean:.2} evaluations per gap"
            );
            for amplitude in [0.7, 0.95] {
                let (mean, most) = work_per_gap(wave(240.0, amplitude, 0.0), rate);
                assert!(
                    most < 61,
                    "wave {amplitude} at {rate}/s: {most} evaluations in one gap (mean {mean:.2})"
                );
            }
        }
    }
}
