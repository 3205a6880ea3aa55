//! Normalized Polish expressions (Wong–Liu, DAC 1986).

use std::fmt;

use irgrid_netlist::ModuleId;
use rand::Rng;
use serde::{DeError, Deserialize, Deserializer, Serialize};

/// A slicing cut direction.
///
/// The conventions used throughout this crate:
///
/// * `V` (vertical cut) places the second operand **to the right of** the
///   first: widths add, heights take the max.
/// * `H` (horizontal cut) places the second operand **on top of** the
///   first: heights add, widths take the max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cut {
    /// Horizontal cut: `a b H` stacks `b` above `a`.
    H,
    /// Vertical cut: `a b V` puts `b` to the right of `a`.
    V,
}

impl Cut {
    /// The other direction.
    #[must_use]
    pub fn complement(self) -> Cut {
        match self {
            Cut::H => Cut::V,
            Cut::V => Cut::H,
        }
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cut::H => "H",
            Cut::V => "V",
        })
    }
}

/// One element of a Polish expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Element {
    /// A module reference.
    Operand(ModuleId),
    /// A slicing operator.
    Operator(Cut),
}

/// One of the three Wong–Liu perturbation moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// M1: swap two adjacent operands (ignoring operators between them).
    SwapOperands,
    /// M2: complement a maximal chain of operators.
    ComplementChain,
    /// M3: swap an adjacent operand/operator pair.
    SwapOperandOperator,
}

/// A normalized Polish expression describing a slicing floorplan.
///
/// Invariants (checked in debug builds after every mutation):
///
/// * exactly `n` operands referencing each module once, `n - 1` operators;
/// * **balloting**: every prefix contains more operands than operators;
/// * **normalized**: no two consecutive operators are equal, so each
///   slicing structure has a unique representation.
///
/// # Examples
///
/// ```
/// use irgrid_floorplan::{Cut, Element, PolishExpr};
/// use irgrid_netlist::ModuleId;
///
/// let expr = PolishExpr::initial(3);
/// assert_eq!(expr.elements().len(), 5); // 3 operands + 2 operators
/// assert!(expr.is_valid());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct PolishExpr {
    elements: Vec<Element>,
}

/// The serialized shape of [`PolishExpr`], read by the derive. It keeps
/// the name so messages name `PolishExpr`.
mod wire {
    use super::Element;

    #[derive(serde::Deserialize)]
    pub(super) struct PolishExpr {
        pub(super) elements: Vec<Element>,
    }
}

/// Reads the derived `{"elements": [...]}` shape and refuses any element
/// sequence that [`PolishExpr::from_elements`] refuses, so a corrupt
/// checkpoint fails to parse instead of resuming a malformed tree.
impl Deserialize for PolishExpr {
    fn deserialize(src: &mut dyn Deserializer) -> Result<PolishExpr, DeError> {
        let wire::PolishExpr { elements } = wire::PolishExpr::deserialize(src)?;
        PolishExpr::from_elements(elements)
            .ok_or_else(|| DeError::new("PolishExpr: not a normalized Polish expression"))
    }
}

impl PolishExpr {
    /// The canonical initial expression `m0 m1 V m2 H m3 V …` — a spiral
    /// of alternating cuts, which packs less degenerately than a single
    /// long row and is always normalized.
    ///
    /// # Panics
    ///
    /// Panics if `module_count` is zero.
    #[must_use]
    pub fn initial(module_count: usize) -> PolishExpr {
        assert!(module_count > 0, "need at least one module");
        let mut elements = Vec::with_capacity(2 * module_count - 1);
        elements.push(Element::Operand(ModuleId(0)));
        let mut cut = Cut::V;
        for i in 1..module_count {
            elements.push(Element::Operand(ModuleId(i as u32)));
            elements.push(Element::Operator(cut));
            cut = cut.complement();
        }
        let expr = PolishExpr { elements };
        debug_assert!(expr.is_valid());
        expr
    }

    /// Builds an expression from raw elements, validating it.
    ///
    /// Returns `None` if the element sequence is not a valid normalized
    /// Polish expression over modules `0..n`.
    #[must_use]
    pub fn from_elements(elements: Vec<Element>) -> Option<PolishExpr> {
        let expr = PolishExpr { elements };
        expr.is_valid().then_some(expr)
    }

    /// The element sequence in postfix order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of operands (modules).
    #[must_use]
    pub fn operand_count(&self) -> usize {
        self.elements.len().div_ceil(2)
    }

    /// Checks all structural invariants: operand/operator counts, each
    /// module appearing exactly once, balloting, and normalization.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        if self.elements.is_empty() || self.elements.len() % 2 == 0 {
            return false;
        }
        let n = self.operand_count();
        let mut seen = vec![false; n];
        let mut operands = 0usize;
        let mut operators = 0usize;
        let mut prev_op: Option<Cut> = None;
        for e in &self.elements {
            match *e {
                Element::Operand(id) => {
                    if id.index() >= n || seen[id.index()] {
                        return false;
                    }
                    seen[id.index()] = true;
                    operands += 1;
                    prev_op = None;
                }
                Element::Operator(cut) => {
                    operators += 1;
                    // Balloting: prefix operands must exceed prefix operators.
                    if operands <= operators {
                        return false;
                    }
                    // Normalization: no two consecutive equal operators.
                    if prev_op == Some(cut) {
                        return false;
                    }
                    prev_op = Some(cut);
                }
            }
        }
        operands == n && operators == n - 1
    }

    /// Applies a random perturbation of the given kind, returning the kind
    /// actually applied (M3 can fail when no legal swap exists; the caller
    /// sees `None` and may retry with another move).
    ///
    /// The expression is left unchanged when `None` is returned.
    pub fn perturb<R: Rng>(&mut self, kind: Move, rng: &mut R) -> Option<Move> {
        let applied = match kind {
            Move::SwapOperands => self.move_swap_operands(rng),
            Move::ComplementChain => self.move_complement_chain(rng),
            Move::SwapOperandOperator => self.move_swap_operand_operator(rng),
        };
        debug_assert!(self.is_valid(), "move {kind:?} broke the expression");
        applied.then_some(kind)
    }

    /// Applies a uniformly random move kind (retrying with other kinds if
    /// the first choice has no legal application).
    pub fn perturb_random<R: Rng>(&mut self, rng: &mut R) -> Move {
        // M1 always succeeds for n >= 2; guard the n == 1 corner.
        loop {
            let kind = match rng.gen_range(0..3) {
                0 => Move::SwapOperands,
                1 => Move::ComplementChain,
                _ => Move::SwapOperandOperator,
            };
            if let Some(applied) = self.perturb(kind, rng) {
                return applied;
            }
        }
    }

    /// M1: swap two adjacent operands.
    fn move_swap_operands<R: Rng>(&mut self, rng: &mut R) -> bool {
        let operand_positions: Vec<usize> = self
            .elements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, Element::Operand(_)).then_some(i))
            .collect();
        if operand_positions.len() < 2 {
            return false;
        }
        let k = rng.gen_range(0..operand_positions.len() - 1);
        self.elements
            .swap(operand_positions[k], operand_positions[k + 1]);
        true
    }

    /// M2: complement every operator in a random maximal chain.
    fn move_complement_chain<R: Rng>(&mut self, rng: &mut R) -> bool {
        // Collect maximal runs of consecutive operators.
        let mut chains: Vec<(usize, usize)> = Vec::new();
        let mut start: Option<usize> = None;
        for (i, e) in self.elements.iter().enumerate() {
            match e {
                Element::Operator(_) => {
                    if start.is_none() {
                        start = Some(i);
                    }
                }
                Element::Operand(_) => {
                    if let Some(s) = start.take() {
                        chains.push((s, i));
                    }
                }
            }
        }
        if let Some(s) = start {
            chains.push((s, self.elements.len()));
        }
        if chains.is_empty() {
            return false;
        }
        let (s, e) = chains[rng.gen_range(0..chains.len())];
        for el in &mut self.elements[s..e] {
            if let Element::Operator(cut) = el {
                *cut = cut.complement();
            }
        }
        true
    }

    /// M3: swap a random adjacent operand/operator pair, keeping the
    /// expression normalized and ballot-valid.
    fn move_swap_operand_operator<R: Rng>(&mut self, rng: &mut R) -> bool {
        let candidates = self.swap_operand_operator_candidates();
        if candidates.is_empty() {
            return false;
        }
        let i = candidates[rng.gen_range(0..candidates.len())];
        self.elements.swap(i, i + 1);
        true
    }

    /// Candidate positions `i` where `elements[i]`, `elements[i+1]` are
    /// an operand/operator pair (either order) and swapping them keeps
    /// the expression valid.
    ///
    /// Validity is decided locally in O(1) per pair: a swap moves one
    /// operator across exactly one prefix boundary (so balloting can
    /// only change there) and can only create an equal-operator
    /// adjacency against `elements[i-1]` or `elements[i+2]`. Everything
    /// else — totals, parity, module uniqueness, every other prefix — is
    /// untouched. The old clone-and-revalidate probe made M3 `O(n²)` and
    /// unusable past ~10k modules; the candidate set (and therefore the
    /// RNG stream and every downstream result) is identical, which
    /// `swap_candidates_match_brute_force` pins against the oracle.
    fn swap_operand_operator_candidates(&self) -> Vec<usize> {
        let n = self.elements.len();
        let mut candidates: Vec<usize> = Vec::new();
        // Counts over elements[..=i], maintained incrementally.
        let mut operands = 0usize;
        let mut operators = 0usize;
        for i in 0..n - 1 {
            match self.elements[i] {
                Element::Operand(_) => operands += 1,
                Element::Operator(_) => operators += 1,
            }
            let ok = match (self.elements[i], self.elements[i + 1]) {
                (Element::Operand(_), Element::Operator(cut)) => {
                    // The operator moves left to position i: its prefix
                    // loses the operand it hopped over, so the balloting
                    // margin shrinks by two; the new left neighbour must
                    // not be an equal operator.
                    operands - 1 > operators + 1
                        && (i == 0 || self.elements[i - 1] != Element::Operator(cut))
                }
                (Element::Operator(cut), Element::Operand(_)) => {
                    // The operator moves right: its prefix gains an
                    // operand, so balloting only improves; only the new
                    // right neighbour can break normalization.
                    i + 2 >= n || self.elements[i + 2] != Element::Operator(cut)
                }
                _ => false,
            };
            if ok {
                candidates.push(i);
            }
        }
        candidates
    }

    /// Whether swapping positions `i` and `i + 1` keeps the expression
    /// valid, by brute force: clone, swap, full re-validation. Kept as
    /// the reference oracle for the O(1) local checks above.
    #[cfg(test)]
    fn swap_is_valid(&self, i: usize) -> bool {
        let mut probe = self.clone();
        probe.elements.swap(i, i + 1);
        probe.is_valid()
    }
}

/// `Display` writes the conventional postfix string, e.g. `01V2H`.
impl fmt::Display for PolishExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.elements {
            match e {
                Element::Operand(id) => write!(f, "{}", id.0)?,
                Element::Operator(cut) => write!(f, "{cut}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn swap_candidates_match_brute_force() {
        // The O(1) local validity checks must admit exactly the swaps the
        // clone-and-revalidate oracle admits — same candidate list, same
        // order — on every expression a random walk can reach.
        let mut rng = ChaCha8Rng::seed_from_u64(0x5aa9);
        for &n in &[2usize, 3, 5, 8, 13, 30, 49] {
            let mut expr = PolishExpr::initial(n);
            for step in 0..200 {
                let brute: Vec<usize> = (0..expr.elements.len() - 1)
                    .filter(|&i| {
                        matches!(
                            (&expr.elements[i], &expr.elements[i + 1]),
                            (Element::Operand(_), Element::Operator(_))
                                | (Element::Operator(_), Element::Operand(_))
                        ) && expr.swap_is_valid(i)
                    })
                    .collect();
                assert_eq!(
                    expr.swap_operand_operator_candidates(),
                    brute,
                    "n = {n}, step = {step}, expr = {expr}"
                );
                expr.perturb_random(&mut rng);
            }
        }
    }

    #[test]
    fn initial_is_valid_for_all_sizes() {
        for n in 1..60 {
            let e = PolishExpr::initial(n);
            assert!(e.is_valid(), "n = {n}");
            assert_eq!(e.operand_count(), n);
        }
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn initial_rejects_zero() {
        let _ = PolishExpr::initial(0);
    }

    #[test]
    fn from_elements_validates() {
        use Cut::*;
        use Element::*;
        // Deserializing the same elements must agree with `from_elements`.
        let parse = |elements: Vec<Element>| {
            let expr = PolishExpr {
                elements: elements.clone(),
            };
            let direct = PolishExpr::from_elements(elements);
            assert_eq!(PolishExpr::from_value(&expr.to_value()).ok(), direct);
            direct
        };
        // "0 1 V" is valid.
        assert!(parse(vec![
            Operand(ModuleId(0)),
            Operand(ModuleId(1)),
            Operator(V)
        ])
        .is_some());
        // "0 V 1" violates balloting.
        assert!(parse(vec![
            Operand(ModuleId(0)),
            Operator(V),
            Operand(ModuleId(1))
        ])
        .is_none());
        // "0 1 V 2 V" — wait, consecutive operators must differ only when
        // adjacent; V at positions 2 and 4 are separated by an operand, fine.
        assert!(parse(vec![
            Operand(ModuleId(0)),
            Operand(ModuleId(1)),
            Operator(V),
            Operand(ModuleId(2)),
            Operator(V)
        ])
        .is_some());
        // "0 1 2 V V" has two adjacent V operators: not normalized.
        assert!(parse(vec![
            Operand(ModuleId(0)),
            Operand(ModuleId(1)),
            Operand(ModuleId(2)),
            Operator(V),
            Operator(V)
        ])
        .is_none());
        // Duplicate module.
        assert!(parse(vec![
            Operand(ModuleId(0)),
            Operand(ModuleId(0)),
            Operator(V)
        ])
        .is_none());
    }

    #[test]
    fn moves_preserve_validity() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [2usize, 3, 5, 10, 33, 49] {
            let mut e = PolishExpr::initial(n);
            for _ in 0..500 {
                e.perturb_random(&mut rng);
                assert!(e.is_valid(), "n = {n}, expr = {e}");
            }
        }
    }

    #[test]
    fn m1_swaps_adjacent_operands() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut e = PolishExpr::initial(4);
        let before: Vec<Element> = e.elements().to_vec();
        assert_eq!(
            e.perturb(Move::SwapOperands, &mut rng),
            Some(Move::SwapOperands)
        );
        let after = e.elements();
        let diffs = (0..before.len()).filter(|&i| before[i] != after[i]).count();
        assert_eq!(diffs, 2, "exactly two positions change");
    }

    #[test]
    fn m2_complements_whole_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut e = PolishExpr::initial(2); // "0 1 V"
        assert_eq!(
            e.perturb(Move::ComplementChain, &mut rng),
            Some(Move::ComplementChain)
        );
        assert_eq!(e.elements()[2], Element::Operator(Cut::H));
    }

    #[test]
    fn m3_none_when_no_legal_swap() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // "0 1 V": swapping either pair breaks balloting or structure.
        let mut e = PolishExpr::initial(2);
        assert_eq!(e.perturb(Move::SwapOperandOperator, &mut rng), None);
        assert!(e.is_valid());
    }

    #[test]
    fn m3_applies_on_larger_expressions() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut e = PolishExpr::initial(5);
        let mut applied = false;
        for _ in 0..50 {
            if e.perturb(Move::SwapOperandOperator, &mut rng).is_some() {
                applied = true;
            }
        }
        assert!(applied, "M3 should be applicable on a 5-module expression");
    }

    #[test]
    fn display_postfix() {
        assert_eq!(PolishExpr::initial(3).to_string(), "01V2H");
    }

    #[test]
    fn perturbation_reaches_many_distinct_expressions() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut e = PolishExpr::initial(6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            e.perturb_random(&mut rng);
            seen.insert(e.to_string());
        }
        assert!(
            seen.len() > 50,
            "only {} distinct expressions reached",
            seen.len()
        );
    }
}
