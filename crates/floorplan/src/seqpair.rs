//! Sequence-pair floorplans (Murata et al., ICCAD 1995).
//!
//! A sequence pair `(Γ⁺, Γ⁻)` — two permutations of the modules —
//! encodes *non-slicing* floorplans: module `a` is left of `b` when `a`
//! precedes `b` in both sequences, and above `b` when `a` precedes `b`
//! in `Γ⁺` but follows it in `Γ⁻`. Every pair of modules is related one
//! way or the other, so longest-path evaluation yields an overlap-free
//! compacted placement.
//!
//! The paper's floorplanner is slicing (Polish expressions); sequence
//! pairs are included because the congestion models are
//! representation-agnostic and non-slicing floorplans are the harder,
//! more general case a production library must serve. The
//! representation-comparison ablation quantifies the difference.

use irgrid_geom::{Point, Rect, Um};
use irgrid_netlist::{Circuit, ModuleId};
use rand::Rng;
use serde::{DeError, Deserialize, Deserializer, Serialize};

use crate::{FloorplanRepr, Placement};

/// A sequence-pair encoding plus per-module orientations.
///
/// # Examples
///
/// ```
/// use irgrid_floorplan::{FloorplanRepr, SequencePair};
/// use irgrid_geom::Um;
/// use irgrid_netlist::{Circuit, Module};
///
/// let circuit = Circuit::new(
///     "sp",
///     vec![
///         Module::new("a", Um(30), Um(10))?,
///         Module::new("b", Um(10), Um(40))?,
///     ],
///     vec![],
/// )?;
/// let sp = SequencePair::initial(2);
/// let placement = sp.place(&circuit);
/// assert!(placement.check_consistency().is_none());
/// # Ok::<(), irgrid_netlist::BuildCircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct SequencePair {
    /// Γ⁺ as module ids.
    pos: Vec<ModuleId>,
    /// Γ⁻ as module ids.
    neg: Vec<ModuleId>,
    /// Whether each module is rotated 90°.
    rotated: Vec<bool>,
}

/// The serialized shape of [`SequencePair`], read by the derive. It
/// keeps the name so messages name `SequencePair`.
mod wire {
    use irgrid_netlist::ModuleId;

    #[derive(serde::Deserialize)]
    pub(super) struct SequencePair {
        pub(super) pos: Vec<ModuleId>,
        pub(super) neg: Vec<ModuleId>,
        pub(super) rotated: Vec<bool>,
    }
}

/// Reads the derived `{"pos", "neg", "rotated"}` shape and refuses a
/// pair that fails [`SequencePair::is_valid`], so a corrupt checkpoint
/// fails to parse instead of resuming a malformed floorplan.
impl Deserialize for SequencePair {
    fn deserialize(src: &mut dyn Deserializer) -> Result<SequencePair, DeError> {
        let wire::SequencePair { pos, neg, rotated } = wire::SequencePair::deserialize(src)?;
        let pair = SequencePair { pos, neg, rotated };
        pair.is_valid().then_some(pair).ok_or_else(|| {
            DeError::new("SequencePair: sequences are not permutations of one module set")
        })
    }
}

impl SequencePair {
    /// The identity pair: all modules in one row, unrotated.
    ///
    /// # Panics
    ///
    /// Panics if `module_count` is zero.
    #[must_use]
    pub fn new_identity(module_count: usize) -> SequencePair {
        assert!(module_count > 0, "need at least one module");
        let ids: Vec<ModuleId> = (0..module_count).map(|i| ModuleId(i as u32)).collect();
        SequencePair {
            pos: ids.clone(),
            neg: ids,
            rotated: vec![false; module_count],
        }
    }

    /// Γ⁺.
    #[must_use]
    pub fn positive(&self) -> &[ModuleId] {
        &self.pos
    }

    /// Γ⁻.
    #[must_use]
    pub fn negative(&self) -> &[ModuleId] {
        &self.neg
    }

    /// Whether module `id` is rotated.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_rotated(&self, id: ModuleId) -> bool {
        self.rotated[id.index()]
    }

    /// Checks that both sequences are permutations of the same module
    /// set.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let n = self.pos.len();
        if self.neg.len() != n || self.rotated.len() != n || n == 0 {
            return false;
        }
        let mut seen_pos = vec![false; n];
        let mut seen_neg = vec![false; n];
        for i in 0..n {
            let (p, q) = (self.pos[i].index(), self.neg[i].index());
            if p >= n || q >= n || seen_pos[p] || seen_neg[q] {
                return false;
            }
            seen_pos[p] = true;
            seen_neg[q] = true;
        }
        true
    }

    /// The three classic moves: swap a random adjacent pair in Γ⁺ only;
    /// swap a random pair in both sequences; toggle one module's
    /// rotation.
    fn apply_random_move<R: Rng>(&mut self, rng: &mut R) {
        let n = self.pos.len();
        if n == 1 {
            self.rotated[0] ^= true;
            return;
        }
        match rng.gen_range(0..3) {
            0 => {
                let i = rng.gen_range(0..n - 1);
                self.pos.swap(i, i + 1);
            }
            1 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let (ma, mb) = (self.pos[a], self.pos[b]);
                self.pos.swap(a, b);
                // irgrid-lint: allow(P1): pos and neg are permutations of the same module set
                let ia = self.neg.iter().position(|&m| m == ma).expect("permutation");
                // irgrid-lint: allow(P1): pos and neg are permutations of the same module set
                let ib = self.neg.iter().position(|&m| m == mb).expect("permutation");
                self.neg.swap(ia, ib);
            }
            _ => {
                let i = rng.gen_range(0..n);
                self.rotated[i] ^= true;
            }
        }
        debug_assert!(self.is_valid());
    }

    /// Evaluates the pair into module rectangles via longest paths.
    fn evaluate(&self, circuit: &Circuit) -> Placement {
        assert_eq!(
            self.pos.len(),
            circuit.modules().len(),
            "sequence pair and circuit disagree on module count"
        );
        let n = self.pos.len();
        // Module dims under the chosen orientations.
        let dims: Vec<(Um, Um)> = (0..n)
            .map(|i| {
                let m = circuit.module(ModuleId(i as u32));
                if self.rotated[i] {
                    (m.height(), m.width())
                } else {
                    (m.width(), m.height())
                }
            })
            .collect();
        // Position of each module in each sequence.
        let mut pos_index = vec![0usize; n];
        let mut neg_index = vec![0usize; n];
        for (i, &m) in self.pos.iter().enumerate() {
            pos_index[m.index()] = i;
        }
        for (i, &m) in self.neg.iter().enumerate() {
            neg_index[m.index()] = i;
        }

        // a left-of b  <=> a before b in both sequences.
        // a above b    <=> a before b in Γ+ and after b in Γ-,
        //                  i.e. b below a; equivalently b left-of/below
        //                  relations partition all pairs.
        //
        // x: longest path over left-of, processed in Γ+ order (a
        // left-of b implies a earlier in Γ+).
        let mut x = vec![Um::ZERO; n];
        for (i, &mb) in self.pos.iter().enumerate() {
            let b = mb.index();
            for &ma in &self.pos[..i] {
                let a = ma.index();
                if neg_index[a] < neg_index[b] {
                    x[b] = x[b].max(x[a] + dims[a].0);
                }
            }
        }
        // y: a above b => y[a] >= y[b] + h[b]. Process Γ+ in reverse so
        // b (later in Γ+) is finished before a.
        let mut y = vec![Um::ZERO; n];
        for (i, &ma) in self.pos.iter().enumerate().rev() {
            let a = ma.index();
            for &mb in &self.pos[i + 1..] {
                let b = mb.index();
                if neg_index[a] > neg_index[b] {
                    y[a] = y[a].max(y[b] + dims[b].1);
                }
            }
        }

        let rects: Vec<Rect> = (0..n)
            .map(|i| Rect::from_origin_size(Point::new(x[i], y[i]), dims[i].0, dims[i].1))
            .collect();
        // irgrid-lint: allow(P1): the constructor rejects empty module lists
        let chip_w = rects.iter().map(|r| r.ur().x).max().expect("non-empty");
        // irgrid-lint: allow(P1): the constructor rejects empty module lists
        let chip_h = rects.iter().map(|r| r.ur().y).max().expect("non-empty");
        let chip = Rect::from_origin_size(Point::ORIGIN, chip_w, chip_h);
        Placement::from_parts(rects, self.rotated.clone(), chip)
    }
}

impl FloorplanRepr for SequencePair {
    fn initial(module_count: usize) -> SequencePair {
        SequencePair::new_identity(module_count)
    }

    fn perturb<R: Rng>(&mut self, rng: &mut R) {
        self.apply_random_move(rng);
    }

    fn place(&self, circuit: &Circuit) -> Placement {
        self.evaluate(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_netlist::Module;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn circuit(dims: &[(i64, i64)]) -> Circuit {
        let modules = dims
            .iter()
            .enumerate()
            .map(|(i, &(w, h))| Module::new(format!("m{i}"), Um(w), Um(h)).expect("valid"))
            .collect();
        Circuit::new("sp", modules, vec![]).expect("valid circuit")
    }

    #[test]
    fn identity_pair_is_one_row() {
        let c = circuit(&[(10, 20), (30, 10), (5, 5)]);
        let p = SequencePair::new_identity(3).place(&c);
        assert!(p.check_consistency().is_none());
        assert_eq!(p.chip().width(), Um(45), "widths add in a row");
        assert_eq!(p.chip().height(), Um(20), "height is the max");
        assert_eq!(p.module_rect(ModuleId(1)).ll().x, Um(10));
    }

    #[test]
    fn reversed_negative_stacks_vertically() {
        // Γ+ = (0, 1), Γ- = (1, 0): 0 precedes 1 in Γ+ and follows in
        // Γ-... 0 before 1 in pos, 0 after 1 in neg -> 0 above 1.
        let c = circuit(&[(10, 20), (30, 10)]);
        let sp = SequencePair {
            pos: vec![ModuleId(0), ModuleId(1)],
            neg: vec![ModuleId(1), ModuleId(0)],
            rotated: vec![false, false],
        };
        assert!(sp.is_valid());
        let p = sp.place(&c);
        assert!(p.check_consistency().is_none());
        assert_eq!(p.chip().width(), Um(30));
        assert_eq!(p.chip().height(), Um(30), "heights add in a stack");
        // Module 0 sits above module 1.
        assert_eq!(p.module_rect(ModuleId(0)).ll().y, Um(10));
        assert_eq!(p.module_rect(ModuleId(1)).ll().y, Um(0));
    }

    #[test]
    fn all_random_pairs_pack_without_overlap() {
        let c = circuit(&[(10, 30), (25, 15), (40, 5), (12, 12), (7, 21), (18, 9)]);
        let mut sp = SequencePair::new_identity(6);
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for step in 0..300 {
            FloorplanRepr::perturb(&mut sp, &mut rng);
            assert!(sp.is_valid(), "step {step}");
            let p = sp.place(&c);
            assert!(
                p.check_consistency().is_none(),
                "step {step}: {:?}",
                p.check_consistency()
            );
            assert!(p.area() >= c.total_module_area());
        }
    }

    #[test]
    fn rotation_tracks_into_placement() {
        let c = circuit(&[(10, 20)]);
        let mut sp = SequencePair::new_identity(1);
        sp.rotated[0] = true;
        let p = sp.place(&c);
        assert!(p.is_rotated(ModuleId(0)));
        assert_eq!(p.module_rect(ModuleId(0)).width(), Um(20));
    }

    #[test]
    fn sequence_pairs_reach_non_slicing_floorplans() {
        // The classic pinwheel is non-slicing; verify a sequence pair
        // produces a compacted placement a slicing tree cannot: five
        // modules in a pinwheel around a center. We only check that some
        // perturbed pair beats the best *row/column* arrangement, which
        // suffices to show the representation explores 2-D packings.
        let c = circuit(&[(20, 10), (10, 20), (20, 10), (10, 20), (10, 10)]);
        let mut sp = SequencePair::new_identity(5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut best = sp.place(&c).area();
        for _ in 0..2000 {
            FloorplanRepr::perturb(&mut sp, &mut rng);
            best = best.min(sp.place(&c).area());
        }
        // Total module area is 900; a perfect pinwheel packs 30x30 = 900.
        assert!(
            best.0 <= 1100,
            "best area {best} too far from the pinwheel optimum"
        );
    }

    #[test]
    fn is_valid_rejects_corrupt_pairs() {
        let sp = SequencePair::new_identity(3);
        assert_eq!(SequencePair::from_value(&sp.to_value()), Ok(sp.clone()));
        let mut corrupt = [sp.clone(), sp.clone(), sp];
        corrupt[0].neg[0] = ModuleId(9);
        corrupt[1].pos[0] = corrupt[1].pos[1];
        corrupt[2].rotated.pop();
        for sp in corrupt {
            assert!(!sp.is_valid());
            assert!(SequencePair::from_value(&sp.to_value()).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "disagree on module count")]
    fn place_rejects_mismatch() {
        let c = circuit(&[(10, 10)]);
        let _ = SequencePair::new_identity(2).place(&c);
    }
}
