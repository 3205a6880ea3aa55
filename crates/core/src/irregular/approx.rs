//! Theorem 1: the constant-time normal approximation of Formula 3.
//!
//! §4.4 rewrites each exit term of Formula 3 as a hypergeometric-like
//! function `h(x, r, R, Q)` and approximates it by a normal-like density;
//! the exit sums become definite integrals evaluated with Simpson's rule
//! in O(1), independent of the block size. §4.5 identifies the cells where
//! the transformation degenerates (`(x + y₂)/(g₁ + g₂ − 3) ∈ {0, 1, >1}`,
//! always adjacent to a pin); the algorithm never evaluates them — pin
//! IR-grids are assigned probability 1 — and this module additionally
//! guards every sample point so stray evaluations contribute 0.

use crate::num::{erf_gauss_lut, normal_pdf, simpson};
use crate::routing::{NetType, RoutingRange};

/// Tuning of the Theorem 1 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// Minimum Simpson sub-intervals per integral (rounded up to even).
    /// The paper only requires a constant; the deviation is dominated by
    /// the normal approximation itself from 2 intervals on (see the
    /// ablation bench) because the integrator adaptively raises the count
    /// (up to 24) when the clipped integration window is wide relative to
    /// the exit distribution's effective width.
    pub simpson_intervals: usize,
    /// Integrate `[x₁ − ½, x₂ + ½]` instead of `[x₁, x₂]`, treating each
    /// discrete term as a unit-width bar. Without it a one-cell-wide
    /// block integrates over a zero-width interval and scores 0; the flag
    /// exists for the ablation bench.
    pub continuity_correction: bool,
}

impl Default for ApproxConfig {
    fn default() -> ApproxConfig {
        ApproxConfig {
            simpson_intervals: 2,
            continuity_correction: true,
        }
    }
}

/// The Theorem 1 approximation of the block-crossing probability for the
/// block `[x1..=x2] × [y1..=y2]` in range-local coordinates.
///
/// Callers are expected to have handled pin blocks (probability 1) and
/// corridors already, and to clip the block to the range — exactly what
/// [`IrregularGridModel`](crate::IrregularGridModel) does. Type II ranges
/// are evaluated by mirroring vertically onto type I, which is exact
/// (the route ensembles are mirror images).
///
/// # Panics
///
/// Panics if the block is inverted or outside the range.
#[must_use]
pub fn block_probability_approx(
    range: &RoutingRange,
    x1: i64,
    x2: i64,
    y1: i64,
    y2: i64,
    config: &ApproxConfig,
) -> f64 {
    assert!(
        x1 <= x2 && y1 <= y2,
        "inverted block [{x1},{x2}]x[{y1},{y2}]"
    );
    assert!(
        x1 >= 0 && y1 >= 0 && x2 < range.g1() && y2 < range.g2(),
        "block [{x1},{x2}]x[{y1},{y2}] outside {}x{} range",
        range.g1(),
        range.g2()
    );

    let (g1, g2) = (range.g1(), range.g2());
    // Mirror type II onto type I: y -> g2 - 1 - y.
    let (y1, y2) = match range.net_type() {
        NetType::TypeI => (y1, y2),
        NetType::TypeII => (g2 - 1 - y2, g2 - 1 - y1),
    };

    let correction = if config.continuity_correction {
        0.5
    } else {
        0.0
    };
    let mut p = 0.0;

    // Exits upward through the top row: zero when the block touches the
    // range's top boundary (no routes leave the range).
    if y2 < g2 - 1 {
        p += exit_integral(
            g1,
            g2,
            y2,
            x1 as f64 - correction,
            x2 as f64 + correction,
            config.simpson_intervals,
        );
    }
    // Exits rightward through the right column: zero on the right
    // boundary. The axes swap (Function (2) is Function (1) transposed).
    if x2 < g1 - 1 {
        p += exit_integral(
            g2,
            g1,
            x2,
            y1 as f64 - correction,
            y2 as f64 + correction,
            config.simpson_intervals,
        );
    }
    p.clamp(0.0, 1.0)
}

/// Integrates the §4.4 exit integrand over `[a, b]`, localizing the
/// integration to the integrand's support so wide blocks (e.g. a strip
/// spanning the whole range) don't undersample the narrow peak.
///
/// The integrand `f(x) = c·φ(x; μ(x), σ(x))` with affine `μ` peaks at the
/// stationary point `x* = (g1−1)·y2/(g2−2)` (where `x = μ(x)`) and decays
/// with *effective* width `σ_eff = σ(x*)·(g1+g2−3)/(g2−2)` (the exponent
/// sees `x − μ(x)`, which grows with slope `(g2−2)/(g1+g2−3)`). Clipping
/// to ±8·σ_eff and scaling the Simpson interval count to the clipped
/// width (capped at 24) keeps evaluation O(1) while resolving the peak.
fn exit_integral(g1: i64, g2: i64, y2: i64, a: f64, b: f64, base_intervals: usize) -> f64 {
    ExitProfile::new(g1, g2, y2).integral(a, b, base_intervals)
}

/// The per-`(g1, g2, y2)` setup of [`exit_integral`] — support clipping,
/// peak localization, and the effective width — hoisted out so the
/// engine can sweep one row (or column) of IR-grids with a single
/// setup. `integral` reproduces `exit_integral` bit for bit: the same
/// intermediate values are computed in the same order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitProfile {
    g1: i64,
    g2: i64,
    y2: i64,
    y2f: f64,
    r: f64,
    /// `(center - w, center + w)` when the peak is localizable.
    window: Option<(f64, f64)>,
    sigma_eff: f64,
    /// False when the integrand is identically zero (`r <= 0` or the
    /// variance denominator vanishes).
    live: bool,
}

impl ExitProfile {
    pub(crate) fn new(g1: i64, g2: i64, y2: i64) -> ExitProfile {
        let (g1f, g2f) = (g1 as f64, g2 as f64);
        let r = g1f + g2f - 3.0;
        let denom_var = g1f + g2f - 4.0;
        let y2f = y2 as f64;
        let mut profile = ExitProfile {
            g1,
            g2,
            y2,
            y2f,
            r,
            window: None,
            sigma_eff: f64::INFINITY,
            live: r > 0.0 && denom_var > 0.0,
        };
        if !profile.live {
            return profile;
        }
        let denom_peak = g2f - 2.0;
        if denom_peak > 0.0 {
            let center = (g1f - 1.0) * y2f / denom_peak;
            let q = (center + y2f) / r;
            if q > 0.0 && q < 1.0 {
                let var = (denom_peak / denom_var) * (g1f - 1.0) * q * (1.0 - q);
                if var > 0.0 {
                    profile.sigma_eff = var.sqrt() * r / denom_peak;
                    let w = 8.0 * profile.sigma_eff + 1.0;
                    profile.window = Some((center - w, center + w));
                }
            }
        }
        profile
    }

    pub(crate) fn integral(&self, a: f64, b: f64, base_intervals: usize) -> f64 {
        if !self.live {
            return 0.0;
        }
        // The integrand is zero outside 0 < q < 1, i.e. -y2 < x < r - y2.
        let mut lo = a.max(-self.y2f);
        let mut hi = b.min(self.r - self.y2f);
        if lo >= hi {
            return 0.0;
        }
        if let Some((window_lo, window_hi)) = self.window {
            lo = lo.max(window_lo);
            hi = hi.min(window_hi);
            if lo >= hi {
                return 0.0;
            }
        }
        let width = hi - lo;
        // Enough intervals to sample the peak at ~2 points per σ_eff,
        // capped to keep the evaluation constant-time.
        let resolution = if self.sigma_eff.is_finite() {
            (2.0 * width / self.sigma_eff).ceil() as usize
        } else {
            width.ceil() as usize
        };
        // The cap keeps evaluation O(1); an explicitly larger configured
        // base still wins so callers can buy accuracy.
        let intervals = resolution.clamp(2, 24).max(base_intervals);
        simpson(lo, hi, intervals, |x| {
            top_exit_integrand(self.g1, self.g2, self.y2, x)
        })
    }
}

/// How a given `(g1, g2, y2)` exit row is integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExitKind {
    /// The integrand is identically zero: every cell mass is 0.
    Zero,
    /// The closed form below does not apply (exit on an extreme unit
    /// row); callers integrate with [`ExitProfile`] instead.
    Quad,
    /// The closed-form antiderivative is valid.
    Closed,
}

/// A closed-form antiderivative of the §4.4 exit integrand, for O(1)
/// cell integrals without quadrature.
///
/// The integrand is `f(x) = C·φ(x; μ(x), σ(x))` with `C = (g₂−1)/(g₁+g₂−2)`,
/// `q(x) = (x+y₂)/r`, `r = g₁+g₂−3`, affine `μ = (g₁−1)q`, and
/// `σ²(x) = c·q(1−q)`, `c = (g₂−2)(g₁−1)/(g₁+g₂−4)`. Writing `a = g₂−2`
/// and `b = y₂`, the exponent partial-fractions **exactly**:
///
/// ```text
/// (aq−b)² / (2c·q(1−q)) = −a²/(2c) + β/q + δ/(1−q),
///     β = b²/(2c),  δ = (a−b)²/(2c)
/// ```
///
/// so `f ∝ e^{−h(q)}/√(q(1−q))` with convex `h(q) = β/q + δ/(1−q)`,
/// minimized at `q* = √β/(√β+√δ)`. The uniform substitution
///
/// ```text
/// s(q) = √M · (q − q*) / √(q(1−q)),
///     M = (δq* + β(1−q*)) / (q*(1−q*))
/// ```
///
/// satisfies `s² = h(q) − h(q*)` **exactly** (the numerator
/// `δq*q − β(1−q*)(1−q)` is linear in `q` and vanishes at `q*`, so there
/// is no cancellation), is monotone (h is convex), and drives `s → ∓∞`
/// at both support edges — uniformly valid where a pointwise z-score
/// parametrization degenerates for near-edge exits. In `s` the integral
/// becomes `K∫e^{−s²} g(s) ds` with the smooth rational weight
/// `g = 2q(1−q)/(√M(q + q* − 2q*q))`; projecting `g` onto Hermite
/// polynomials `H₀..H₃` by 7-point Gauss–Hermite quadrature gives the
/// elementary antiderivative
///
/// ```text
/// A(s) = K[ a₀·(√π/2)·erf(s) − (a₁ + 2a₂s)e^{−s²} + a₃(2 − 4s²)e^{−s²} ]
/// ```
///
/// Each evaluation costs one fused `erf`/`exp` pair and one square root;
/// the projection itself is 7 rational evaluations per row, amortized
/// over the row's cells. Worst deviation from a fine Simpson pass over
/// the same integrand is ~0.02 across all block shapes including
/// near-edge exits (see `cdf_tracks_simpson_integral`) — within the
/// ±0.05 the paper quotes for the normal approximation itself.
///
/// The value depends on nothing but `(g1, g2, y2)` and the evaluation
/// point — the property the delta evaluator needs to score brand-new cut
/// patterns in O(cells) with no caching, a fresh session reproducing a
/// warm session bit for bit by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitCdf {
    kind: ExitKind,
    y2f: f64,
    /// `1/r`, `r = g1+g2−3`.
    inv_r: f64,
    /// Peak location `q*` of the exponent in `q`.
    q_star: f64,
    /// `√M`: scale of the uniform substitution `s(q)`.
    sqrt_m: f64,
    /// `K·a₀·√π/2`: coefficient of the `erf` term; total mass is twice
    /// this.
    c_erf: f64,
    /// Folded `e^{−s²}` polynomial: `−(e0 + e1·s + e2·s²)·e^{−s²}`.
    e0: f64,
    e1: f64,
    e2: f64,
}

/// 7-point Gauss–Hermite nodes and weights (weight function `e^{−s²}`).
const GAUSS_HERMITE_7: [(f64, f64); 7] = [
    (-2.651_961_356_835_233, 9.717_812_450_995_192e-4),
    (-1.673_551_628_767_471, 5.451_558_281_912_703e-2),
    (-0.816_287_882_858_964_7, 0.425_607_252_610_127_8),
    (0.0, 0.810_264_617_556_807_3),
    (0.816_287_882_858_964_7, 0.425_607_252_610_127_8),
    (1.673_551_628_767_471, 5.451_558_281_912_703e-2),
    (2.651_961_356_835_233, 9.717_812_450_995_192e-4),
];

impl ExitCdf {
    pub(crate) fn new(g1: i64, g2: i64, y2: i64) -> ExitCdf {
        let (g1f, g2f) = (g1 as f64, g2 as f64);
        let r = g1f + g2f - 3.0;
        let denom_var = g1f + g2f - 4.0;
        let slope = g2f - 2.0;
        let y2f = y2 as f64;
        let dead = ExitCdf {
            kind: ExitKind::Zero,
            y2f,
            inv_r: 0.0,
            q_star: 0.0,
            sqrt_m: 0.0,
            c_erf: 0.0,
            e0: 0.0,
            e1: 0.0,
            e2: 0.0,
        };
        if !(r > 0.0 && denom_var > 0.0 && slope > 0.0 && g1f > 1.0) {
            // The integrand is identically zero (collapsed variance or
            // empty interior).
            return dead;
        }
        if !(y2f >= 1.0 && slope - y2f >= 1.0) {
            // Extreme exit rows: one of the partial-fraction exponents
            // vanishes, the peak sits on the support edge, and the
            // substitution degenerates. Keep the quadrature path.
            return ExitCdf {
                kind: ExitKind::Quad,
                ..dead
            };
        }
        let c = slope * (g1f - 1.0) / denom_var;
        let coefficient = (g2f - 1.0) / (g1f + g2f - 2.0);
        let beta = y2f * y2f / (2.0 * c);
        let delta = (slope - y2f) * (slope - y2f) / (2.0 * c);
        let q_star = beta.sqrt() / (beta.sqrt() + delta.sqrt());
        let h_star = beta / q_star + delta / (1.0 - q_star);
        let m = (delta * q_star + beta * (1.0 - q_star)) / (q_star * (1.0 - q_star));
        let sqrt_m = m.sqrt();
        // h(q*) ≥ a²/(2c) by construction, so the exponent is ≤ 0.
        let k = coefficient * r / (2.0 * std::f64::consts::PI * c).sqrt()
            * (slope * slope / (2.0 * c) - h_star).exp();
        let sqrt_pi = std::f64::consts::PI.sqrt();
        let mut mom = [0.0f64; 4];
        for &(s, w) in &GAUSS_HERMITE_7 {
            // Invert s(q): (M+s²)q² − (2Mq*+s²)q + Mq*² = 0, whose
            // discriminant is s²(s² + 4Mq*(1−q*)) exactly.
            let s2 = s * s;
            let root = s.abs() * (s2 + 4.0 * m * q_star * (1.0 - q_star)).sqrt();
            let num = 2.0 * m * q_star + s2 + if s >= 0.0 { root } else { -root };
            let q = num / (2.0 * (m + s2));
            let gv = 2.0 * q * (1.0 - q) / (sqrt_m * (q + q_star - 2.0 * q_star * q));
            mom[0] += w * gv;
            mom[1] += w * gv * (2.0 * s);
            mom[2] += w * gv * (4.0 * s2 - 2.0);
            mom[3] += w * gv * (8.0 * s2 * s - 12.0 * s);
        }
        // aₙ = ⟨g, Hₙ⟩ / (√π·2ⁿ·n!).
        let a0 = mom[0] / sqrt_pi;
        let a1 = mom[1] / (2.0 * sqrt_pi);
        let a2 = mom[2] / (8.0 * sqrt_pi);
        let a3 = mom[3] / (48.0 * sqrt_pi);
        ExitCdf {
            kind: ExitKind::Closed,
            y2f,
            inv_r: 1.0 / r,
            q_star,
            sqrt_m,
            c_erf: k * a0 * sqrt_pi / 2.0,
            // A(s) − A(−∞) folds to c_erf·(1+erf s) − (e0+e1·s+e2·s²)e^{−s²}.
            e0: k * (a1 - 2.0 * a3),
            e1: k * 2.0 * a2,
            e2: k * 4.0 * a3,
        }
    }

    pub(crate) fn kind(&self) -> ExitKind {
        self.kind
    }

    /// Total mass over the whole support.
    pub(crate) fn total(&self) -> f64 {
        2.0 * self.c_erf
    }

    /// The exit mass below `x` (valid only for `ExitKind::Closed`).
    pub(crate) fn below(&self, x: f64) -> f64 {
        let q = (x + self.y2f) * self.inv_r;
        if q <= 0.0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.total();
        }
        let s = self.sqrt_m * (q - self.q_star) / (q * (1.0 - q)).sqrt();
        let (erf_s, gauss) = erf_gauss_lut(s);
        self.c_erf * (1.0 + erf_s) - (self.e0 + (self.e1 + self.e2 * s) * s) * gauss
    }

    /// The exit mass over `[a, b]` — the closed-form counterpart of
    /// [`ExitProfile::integral`]. The `max` guards the small negative
    /// lobes of the truncated Hermite series in the far tails.
    pub(crate) fn mass(&self, a: f64, b: f64) -> f64 {
        (self.below(b) - self.below(a)).max(0.0)
    }
}

/// The §4.4 integrand for top-row exits of a type I net: the
/// normal-approximated `Function (1)` evaluated at continuous `x`.
///
/// Public (crate) so the Figure 8 bench can plot it pointwise against the
/// exact term.
pub(crate) fn top_exit_integrand(g1: i64, g2: i64, y2: i64, x: f64) -> f64 {
    let (g1f, g2f) = (g1 as f64, g2 as f64);
    let denom_q = g1f + g2f - 3.0;
    let denom_var = g1f + g2f - 4.0;
    if denom_q <= 0.0 || denom_var <= 0.0 {
        return 0.0;
    }
    let q = (x + y2 as f64) / denom_q;
    if q <= 0.0 || q >= 1.0 {
        // §4.5 degenerate cases: these sample points sit next to a pin,
        // whose IR-grid is scored 1 elsewhere.
        return 0.0;
    }
    let mu = (g1f - 1.0) * q;
    let var = ((g2f - 2.0) / denom_var) * (g1f - 1.0) * q * (1.0 - q);
    if var <= 0.0 {
        return 0.0;
    }
    let coefficient = (g2f - 1.0) / (g1f + g2f - 2.0);
    coefficient * normal_pdf(x, mu, var.sqrt())
}

/// The exact value of the paper's `Function (1)` at integer `x`:
/// `Ta(x, y₂) · Tb(x, y₂ + 1) / total` for a type I range. Used by the
/// Figure 8 reproduction to plot exact-vs-approximate curves.
///
/// # Panics
///
/// Panics if the range is not type I.
#[must_use]
pub fn function1_exact(
    range: &RoutingRange,
    lf: &crate::num::LnFactorials,
    x: i64,
    y2: i64,
) -> f64 {
    assert_eq!(
        range.net_type(),
        NetType::TypeI,
        "Function (1) is defined for type I ranges"
    );
    let t = range.ln_ta(lf, x, y2) + range.ln_tb(lf, x, y2 + 1) - range.ln_total_routes(lf);
    t.exp()
}

/// The Theorem 1 approximation of `Function (1)` at (continuous) `x` —
/// the curve the paper plots in figure 8(b)/(d).
#[must_use]
pub fn function1_approx(range: &RoutingRange, x: f64, y2: i64) -> f64 {
    assert_eq!(
        range.net_type(),
        NetType::TypeI,
        "Function (1) is defined for type I ranges"
    );
    top_exit_integrand(range.g1(), range.g2(), y2, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::exact::block_probability_exact;
    use crate::num::LnFactorials;

    #[test]
    fn paper_figure8_pointwise_accuracy() {
        // §4.5: a type I net divided into 31x21 grids; Function (1) for
        // x = 10..=20 at y2 = 15 — "the approximation is extremely
        // accurate" and "the deviation of approximation is generally less
        // than 0.05".
        let lf = LnFactorials::up_to(128);
        let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
        for x in 10..=20 {
            let exact = function1_exact(&range, &lf, x, 15);
            let approx = function1_approx(&range, x as f64, 15);
            assert!(
                (exact - approx).abs() < 0.05,
                "x = {x}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn error_cell_guarded() {
        // Figure 8(c)/(d): at grid (30, 19) the transformation degenerates
        // ((x + y2)/(g1 + g2 - 3) >= 1); the guarded integrand returns 0
        // instead of a bogus value.
        let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
        assert_eq!(function1_approx(&range, 30.0, 19.0 as i64), 0.0);
        // And the (0,0) degenerate end.
        assert_eq!(function1_approx(&range, 0.0, 0), 0.0);
    }

    #[test]
    fn block_approx_close_to_exact_interior() {
        let lf = LnFactorials::up_to(256);
        let config = ApproxConfig::default();
        let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
        // Interior blocks away from the pins.
        for &(x1, x2, y1, y2) in &[
            (10i64, 20i64, 12i64, 15i64),
            (5, 8, 5, 9),
            (22, 28, 3, 10),
            (3, 27, 2, 18),
            (15, 15, 10, 10),
        ] {
            let exact = block_probability_exact(&range, &lf, x1, x2, y1, y2);
            let approx = block_probability_approx(&range, x1, x2, y1, y2, &config);
            assert!(
                (exact - approx).abs() < 0.05,
                "block [{x1},{x2}]x[{y1},{y2}]: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn type_ii_mirror_matches_exact() {
        let lf = LnFactorials::up_to(256);
        let config = ApproxConfig::default();
        let range = RoutingRange::from_cells(0, 0, 25, 19, NetType::TypeII);
        for &(x1, x2, y1, y2) in &[(8i64, 14i64, 6i64, 10i64), (4, 9, 3, 15), (16, 22, 2, 8)] {
            let exact = block_probability_exact(&range, &lf, x1, x2, y1, y2);
            let approx = block_probability_approx(&range, x1, x2, y1, y2, &config);
            assert!(
                (exact - approx).abs() < 0.05,
                "block [{x1},{x2}]x[{y1},{y2}]: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn boundary_blocks_drop_vanishing_term() {
        let lf = LnFactorials::up_to(256);
        let config = ApproxConfig::default();
        let range = RoutingRange::from_cells(0, 0, 20, 16, NetType::TypeI);
        // Block touching the top boundary: only right exits remain.
        let exact = block_probability_exact(&range, &lf, 4, 9, 12, 15);
        let approx = block_probability_approx(&range, 4, 9, 12, 15, &config);
        assert!(
            (exact - approx).abs() < 0.05,
            "top-boundary block: exact {exact} vs approx {approx}"
        );
        // Block touching the right boundary: only top exits remain.
        let exact = block_probability_exact(&range, &lf, 15, 19, 4, 9);
        let approx = block_probability_approx(&range, 15, 19, 4, 9, &config);
        assert!(
            (exact - approx).abs() < 0.05,
            "right-boundary block: exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn full_strip_blocks_are_certain() {
        // A vertical strip spanning the range's full height is crossed by
        // every route: exact probability 1. The localized integration
        // must not undersample the narrow exit-distribution peak.
        let lf = LnFactorials::up_to(256);
        let config = ApproxConfig::default();
        for (g1, g2) in [(20i64, 16i64), (40, 8), (8, 40), (31, 21)] {
            let range = RoutingRange::from_cells(0, 0, g1, g2, NetType::TypeI);
            for x in [1, g1 / 2, g1 - 3] {
                let exact = block_probability_exact(&range, &lf, x, x, 0, g2 - 1);
                let approx = block_probability_approx(&range, x, x, 0, g2 - 1, &config);
                assert!(
                    (exact - 1.0).abs() < 1e-9,
                    "{g1}x{g2} strip x={x}: exact {exact}"
                );
                assert!(
                    (approx - 1.0).abs() < 0.05,
                    "{g1}x{g2} strip x={x}: approx {approx}"
                );
            }
            // Horizontal strip spanning the full width.
            for y in [1, g2 / 2, g2 - 3] {
                let approx = block_probability_approx(&range, 0, g1 - 1, y, y, &config);
                assert!(
                    (approx - 1.0).abs() < 0.05,
                    "{g1}x{g2} row strip y={y}: approx {approx}"
                );
            }
        }
    }

    #[test]
    fn probability_clamped_to_unit_interval() {
        let config = ApproxConfig::default();
        let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
        for x1 in (0..30).step_by(7) {
            for y1 in (0..20).step_by(5) {
                let p = block_probability_approx(
                    &range,
                    x1,
                    (x1 + 6).min(30),
                    y1,
                    (y1 + 4).min(20),
                    &config,
                );
                assert!((0.0..=1.0).contains(&p), "p = {p} at ({x1},{y1})");
            }
        }
    }

    #[test]
    fn without_continuity_correction_single_cell_vanishes() {
        let config = ApproxConfig {
            continuity_correction: false,
            ..ApproxConfig::default()
        };
        let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
        // Degenerate integration interval: the known weakness the flag
        // documents (and the ablation bench quantifies).
        assert_eq!(
            block_probability_approx(&range, 15, 15, 10, 10, &config),
            0.0
        );
    }

    #[test]
    fn cdf_tracks_simpson_integral() {
        // The closed-form ExitCdf against a fine Simpson pass over the
        // same integrand, across wide/tall/tiny block shapes and every
        // closed-form exit row. The truncated Hermite series costs ~0.02
        // absolute at worst — within the ±0.05 deviation the paper
        // quotes for the normal approximation itself.
        let mut worst = 0.0f64;
        for (g1, g2) in [
            (31i64, 21i64),
            (40, 8),
            (8, 40),
            (100, 60),
            (12, 12),
            (5, 5),
            (200, 5),
            (80, 6),
            (10, 5),
        ] {
            for y2 in 1..=(g2 - 2) {
                let profile = ExitProfile::new(g1, g2, y2);
                let cdf = ExitCdf::new(g1, g2, y2);
                if cdf.kind() != ExitKind::Closed {
                    // Extreme exit rows keep the quadrature path.
                    assert_eq!(cdf.kind(), ExitKind::Quad);
                    assert_eq!(y2, g2 - 2);
                    continue;
                }
                for x1 in 0..g1 {
                    for width in [0i64, 2, 7] {
                        let x2 = (x1 + width).min(g1 - 1);
                        let (a, b) = (x1 as f64 - 0.5, x2 as f64 + 0.5);
                        let quad = profile.integral(a, b, 512);
                        let closed = cdf.mass(a, b);
                        worst = worst.max((quad - closed).abs());
                    }
                }
            }
        }
        assert!(worst < 0.03, "worst |Simpson − closed form| = {worst}");
    }

    #[test]
    fn cdf_mass_nonnegative_and_saturates() {
        for (g1, g2, y2) in [(31i64, 21i64, 15i64), (40, 8, 3), (9, 30, 27), (5, 5, 1)] {
            let cdf = ExitCdf::new(g1, g2, y2);
            assert_eq!(cdf.kind(), ExitKind::Closed);
            let r = (g1 + g2 - 3) as f64;
            let y2f = y2 as f64;
            // Every subinterval mass is nonnegative and the prefix never
            // leaves [0, total] by more than the tail lobes of the
            // truncated Hermite series.
            let total = cdf.total();
            let mut x = -y2f - 1.0;
            while x <= r - y2f + 1.0 {
                let here = cdf.below(x);
                assert!(cdf.mass(x, x + 0.25) >= 0.0);
                assert!(
                    (-2e-3..=total + 2e-3).contains(&here),
                    "prefix {here} outside [0, {total}] at x = {x}"
                );
                x += 0.25;
            }
            // The prefix saturates at the support edges, and the total
            // matches a fine Simpson pass over the full support.
            assert_eq!(cdf.below(-y2f), 0.0);
            assert_eq!(cdf.below(r - y2f), total);
            let profile = ExitProfile::new(g1, g2, y2);
            let quad = profile.integral(-y2f, r - y2f, 2048);
            assert!(
                (total - quad).abs() < 5e-3,
                "total {total} vs Simpson {quad}"
            );
        }
    }

    #[test]
    fn more_simpson_intervals_do_not_hurt() {
        let lf = LnFactorials::up_to(256);
        let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
        let exact = block_probability_exact(&range, &lf, 8, 18, 5, 12);
        let coarse = block_probability_approx(
            &range,
            8,
            18,
            5,
            12,
            &ApproxConfig {
                simpson_intervals: 2,
                continuity_correction: true,
            },
        );
        let fine = block_probability_approx(
            &range,
            8,
            18,
            5,
            12,
            &ApproxConfig {
                simpson_intervals: 32,
                continuity_correction: true,
            },
        );
        assert!((fine - exact).abs() <= (coarse - exact).abs() + 1e-6);
    }
}
