//! # The mathematics of the congestion models
//!
//! This module contains no code — it is the workspace's annotated
//! derivation of the formulas implemented in [`crate::RoutingRange`],
//! [`crate::FixedGridModel`] and [`crate::irregular`], written for
//! readers who want to audit the implementation against the paper (Hsieh
//! & Hsieh, *A New Effective Congestion Model in Floorplan Design*, DATE
//! 2004).
//!
//! ## 1. The route ensemble (§2)
//!
//! A 2-pin net routes along a *shortest* Manhattan path inside the
//! bounding box of its pins (over-the-cell, multi-bend). On a grid where
//! the bounding box covers `g1 × g2` cells, every shortest path is a
//! monotone staircase taking `g1 - 1` horizontal and `g2 - 1` vertical
//! unit steps, so the ensemble has
//!
//! ```text
//! T = C(g1 + g2 - 2, g1 - 1)
//! ```
//!
//! members, each assumed equally likely. Pins lower-left/upper-right of
//! each other give a **type I** net; upper-left/lower-right give
//! **type II** (a vertical mirror image — the implementation evaluates
//! type II by mirroring, and the tests verify the symmetry).
//!
//! ## 2. Per-cell probabilities (Formula 1/2, [`RoutingRange::cell_probability`])
//!
//! The number of monotone prefixes from the first pin to cell `(x, y)`
//! (local coordinates, origin at the range's lower-left cell) is
//! `Ta(x, y) = C(x + y, y)` for type I, and the suffix count `Tb` is the
//! same binomial from the mirrored corner. Since prefix and suffix are
//! chosen independently,
//!
//! ```text
//! P(net crosses (x, y)) = Ta(x, y) · Tb(x, y) / T        (Formula 2)
//! ```
//!
//! Useful invariants (all property-tested):
//!
//! * `P = 1` at both pin cells and everywhere in a single-row/column
//!   corridor;
//! * every route crosses each anti-diagonal `x + y = d` exactly once, so
//!   per-diagonal probabilities sum to 1;
//! * summing over the whole range gives `g1 + g2 - 1`, the number of
//!   cells any route crosses.
//!
//! Binomials overflow `u64` beyond ~60-cell ranges, so production code
//! works in log space with a cached `ln(n!)` table
//! ([`crate::num::LnFactorials`]); an exact `u128` binomial is kept as
//! the test oracle.
//!
//! ## 3. Block-crossing probabilities (Formula 3, [`crate::irregular::block_probability_exact`])
//!
//! For a rectangular block `[x1..x2] × [y1..y2]` of cells, a monotone
//! route crosses the block iff it visits at least one block cell, and it
//! *leaves* the block exactly once — upward through the top row or
//! rightward through the right column (type I). Summing the exit events:
//!
//! ```text
//! P(cross) = [ Σₓ Ta(x, y2)·Tb(x, y2+1)  +  Σ_y Ta(x2, y)·Tb(x2+1, y) ] / T
//! ```
//!
//! Blocks containing a pin are crossed with probability 1 and never
//! evaluated (Algorithm step 3.1). The paper's figure 6 works this out
//! for a 6×6 range and block `{2..4}×{2..5}`; its term list totals
//! 245/252, but the formula — and exhaustive path counting — give
//! **246**/252 (one exit term is missing from the paper's list). The
//! test suite pins the brute-force value.
//!
//! ## 4. The Theorem 1 approximation ([`crate::irregular::block_probability_approx`])
//!
//! Each exit term, normalized by `T`, is a hypergeometric-like function
//! of the exit coordinate. Hypergeometric ≈ binomial ≈ normal, so §4.4
//! approximates the summand at continuous `x` by
//!
//! ```text
//! f(x) = (g2-1)/(g1+g2-2) · φ(x; μ(x), σ(x))
//! μ(x)  = (g1-1)·q,   q = (x + y2)/(g1 + g2 - 3)
//! σ²(x) = (g2-2)/(g1+g2-4) · (g1-1) · q(1-q)
//! ```
//!
//! and replaces the sum by a definite integral evaluated with Simpson's
//! rule — a constant amount of work per block regardless of its size.
//! Two implementation details matter (both ablated in the bench suite):
//!
//! * **continuity correction**: the sum over integers `x1..x2`
//!   corresponds to the integral over `[x1-½, x2+½]`; taking the paper's
//!   literal bounds makes one-cell-wide blocks integrate to zero;
//! * **peak localization**: `μ(x)` is affine in `x`, so the integrand is
//!   a near-Gaussian bump centered on the stationary point
//!   `x* = (g1-1)·y2/(g2-2)` with effective width
//!   `σ_eff = σ(x*)·(g1+g2-3)/(g2-2)`. Clipping the integration window
//!   to `±8·σ_eff` and scaling the Simpson interval count to the clipped
//!   width keeps wide blocks (full-height strips) accurate while staying
//!   O(1).
//!
//! §4.5's degenerate points (`q ∉ (0, 1)`, the four cells adjacent to
//! the pins) are guarded to zero; the Irregular-Grid construction
//! guarantees they share an IR-grid with their pin (scored 1) because
//! cutting lines closer than twice the pitch are merged.
//!
//! ## 5. The Irregular-Grid (§4.2, [`crate::IrregularGridModel`])
//!
//! Each routing range contributes its four boundary lines as cutting
//! lines; together with the chip boundary they partition the chip into
//! IR-grids. After merging close lines (step 2), every net's snapped
//! range is a whole number of IR-grids, each scored with one Theorem 1
//! evaluation. Since IR-grids differ in area, the per-grid total
//! `F(I) = Σᵢ Pᵢ(I)` is normalized to a *density* per unit cell, and the
//! floorplan score is the area-weighted mean density of the top 10 %
//! most congested area (Algorithm step 5).
//!
//! ## 6. Baselines
//!
//! * [`crate::FixedGridModel`] (§3, after Sham & Young): Formula 2 on a
//!   uniform grid; the 10 µm configuration is the paper's judging model.
//! * [`crate::LzShapeModel`] (Lou et al.): same idea but the ensemble is
//!   restricted to 1-bend (L) and 2-bend (Z) routes — `g1 + g2 - 2`
//!   routes hugging the range boundary.
//!
//! [`RoutingRange::cell_probability`]: crate::RoutingRange::cell_probability

// This module is documentation-only.
