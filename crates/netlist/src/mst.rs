//! Minimum-spanning-tree decomposition of multi-pin nets.
//!
//! The paper (§5) decomposes every multi-pin net into 2-pin nets by a
//! minimum spanning tree over the pin positions before congestion
//! estimation and wirelength computation. Distances are Manhattan, matching
//! the routing model.
//!
//! # Examples
//!
//! ```
//! use irgrid_geom::{Point, Um};
//! use irgrid_netlist::mst::manhattan_mst;
//!
//! let pins = [
//!     Point::new(Um(0), Um(0)),
//!     Point::new(Um(10), Um(0)),
//!     Point::new(Um(10), Um(10)),
//! ];
//! let edges = manhattan_mst(&pins);
//! assert_eq!(edges.len(), 2);
//! let total: i64 = edges
//!     .iter()
//!     .map(|&(a, b)| pins[a].manhattan_distance(pins[b]).0)
//!     .sum();
//! assert_eq!(total, 20);
//! ```

use irgrid_geom::{Point, Um};

/// Reusable buffers for [`manhattan_mst_with`]: Prim's tree marks and
/// each vertex's distance to the tree and the tree vertex realizing it.
/// One scratch serves any number of pin sets in turn.
#[derive(Debug, Clone, Default)]
pub struct MstScratch {
    in_tree: Vec<bool>,
    best_dist: Vec<Um>,
    best_from: Vec<usize>,
}

/// Prim's algorithm over `pins` under the Manhattan metric, reporting
/// each tree edge to `edge(a, b)` with `a < b`, in the order Prim adds
/// them; `scratch`'s buffers are reused, so a warm scratch allocates
/// nothing. For `n` pins there are `n - 1` edges, none when `n < 2`.
/// `O(n²)`, which is optimal for the dense implicit graph of a net's
/// pins (net degrees are small).
///
/// Coincident pins are handled: a zero-length edge connects them.
pub fn manhattan_mst_with(
    pins: &[Point],
    scratch: &mut MstScratch,
    mut edge: impl FnMut(usize, usize),
) {
    let n = pins.len();
    if n < 2 {
        return;
    }
    let MstScratch {
        in_tree,
        best_dist,
        best_from,
    } = scratch;
    in_tree.clear();
    in_tree.resize(n, false);
    best_dist.clear();
    best_dist.resize(n, Um::MAX);
    best_from.clear();
    best_from.resize(n, 0);

    in_tree[0] = true;
    for v in 1..n {
        best_dist[v] = pins[0].manhattan_distance(pins[v]);
    }

    for _ in 1..n {
        let mut next = usize::MAX;
        let mut next_dist = Um::MAX;
        for v in 0..n {
            if !in_tree[v] && best_dist[v] < next_dist {
                next = v;
                next_dist = best_dist[v];
            }
        }
        debug_assert_ne!(next, usize::MAX, "graph is complete, a vertex must remain");
        in_tree[next] = true;
        let from = best_from[next];
        edge(from.min(next), from.max(next));
        for v in 0..n {
            if !in_tree[v] {
                let d = pins[next].manhattan_distance(pins[v]);
                if d < best_dist[v] {
                    best_dist[v] = d;
                    best_from[v] = next;
                }
            }
        }
    }
}

/// Computes a minimum spanning tree over `pins` under the Manhattan metric.
///
/// Returns the tree edges as index pairs into `pins` (each pair ordered
/// `(smaller, larger)`); for `n` pins the result has `n - 1` edges, or is
/// empty when `n < 2`. The allocating form of [`manhattan_mst_with`].
#[must_use]
pub fn manhattan_mst(pins: &[Point]) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(pins.len().saturating_sub(1));
    manhattan_mst_with(pins, &mut MstScratch::default(), |a, b| {
        edges.push((a, b));
    });
    edges
}

/// Decomposes a pin set into the 2-pin point segments of its Manhattan MST.
///
/// This is the form consumed by the congestion models: each segment's
/// bounding box is one routing range.
#[must_use]
pub fn decompose(pins: &[Point]) -> Vec<(Point, Point)> {
    let mut segments = Vec::with_capacity(pins.len().saturating_sub(1));
    manhattan_mst_with(pins, &mut MstScratch::default(), |a, b| {
        segments.push((pins[a], pins[b]));
    });
    segments
}

/// Total Manhattan length of the MST over `pins`.
///
/// The paper's "wire length" objective is the sum of this quantity over all
/// nets.
#[must_use]
pub fn mst_length(pins: &[Point]) -> Um {
    let mut total = Um::ZERO;
    manhattan_mst_with(pins, &mut MstScratch::default(), |a, b| {
        total += pins[a].manhattan_distance(pins[b]);
    });
    total
}

/// Decomposes a pin set into a *star*: the pin nearest the centroid is
/// the hub, every other pin connects to it directly.
///
/// The star is the other classic multi-pin decomposition (cheaper to
/// compute, longer wire); exposed so the ablation benches can quantify
/// how the decomposition choice feeds into congestion estimates. The
/// MST never exceeds the star in total length — the star is itself a
/// spanning tree.
#[must_use]
pub fn star_decompose(pins: &[Point]) -> Vec<(Point, Point)> {
    if pins.len() < 2 {
        return Vec::new();
    }
    let n = pins.len() as i64;
    let sum = pins.iter().fold(Point::ORIGIN, |acc, &p| acc + p);
    let centroid = Point::new(Um(sum.x.0 / n), Um(sum.y.0 / n));
    let hub = pins
        .iter()
        .enumerate()
        .min_by_key(|(i, p)| (p.manhattan_distance(centroid), *i))
        .map(|(i, _)| i)
        // irgrid-lint: allow(P1): the early return above handles pin lists shorter than two
        .expect("non-empty pin list");
    pins.iter()
        .enumerate()
        .filter(|&(i, _)| i != hub)
        .map(|(_, &p)| (pins[hub], p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    /// Kruskal with union-find: an independent MST implementation used as a
    /// cross-check oracle.
    fn kruskal_weight(pins: &[Point]) -> Um {
        let n = pins.len();
        if n < 2 {
            return Um::ZERO;
        }
        let mut edges: Vec<(Um, usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((pins[a].manhattan_distance(pins[b]), a, b));
            }
        }
        edges.sort();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        let mut total = Um::ZERO;
        let mut used = 0;
        for (w, a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
                total += w;
                used += 1;
                if used == n - 1 {
                    break;
                }
            }
        }
        total
    }

    #[test]
    fn empty_and_single_pin() {
        assert!(manhattan_mst(&[]).is_empty());
        assert!(manhattan_mst(&[pt(3, 3)]).is_empty());
        assert_eq!(mst_length(&[pt(3, 3)]), Um::ZERO);
    }

    #[test]
    fn two_pins_single_edge() {
        let pins = [pt(0, 0), pt(5, 7)];
        assert_eq!(manhattan_mst(&pins), vec![(0, 1)]);
        assert_eq!(mst_length(&pins), Um(12));
    }

    #[test]
    fn l_shape_prefers_short_edges() {
        // Star layouts: center connects to all leaves.
        let pins = [pt(0, 0), pt(100, 0), pt(0, 100), pt(-100, 0), pt(0, -100)];
        let edges = manhattan_mst(&pins);
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(a, b)| a == 0 || b == 0));
        assert_eq!(mst_length(&pins), Um(400));
    }

    #[test]
    fn coincident_pins_connect_with_zero_edge() {
        let pins = [pt(1, 1), pt(1, 1), pt(5, 5)];
        let edges = manhattan_mst(&pins);
        assert_eq!(edges.len(), 2);
        assert_eq!(mst_length(&pins), Um(8));
    }

    #[test]
    fn decompose_returns_point_pairs() {
        let pins = [pt(0, 0), pt(4, 0), pt(4, 3)];
        let segs = decompose(&pins);
        assert_eq!(segs.len(), 2);
        let total: i64 = segs.iter().map(|(a, b)| a.manhattan_distance(*b).0).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn matches_kruskal_on_grid_points() {
        // Deterministic pseudo-random layouts; Prim and Kruskal must agree
        // on total weight (the MST weight is unique even when the tree
        // is not).
        let mut state = 0x12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as i64
        };
        for n in 2..12 {
            let pins: Vec<Point> = (0..n).map(|_| pt(next(), next())).collect();
            assert_eq!(mst_length(&pins), kruskal_weight(&pins), "n = {n}");
        }
    }

    #[test]
    fn star_has_n_minus_one_edges_from_one_hub() {
        let pins = [pt(0, 0), pt(10, 0), pt(0, 10), pt(10, 10), pt(5, 5)];
        let star = star_decompose(&pins);
        assert_eq!(star.len(), 4);
        // The center pin is nearest the centroid -> it is the hub.
        assert!(star.iter().all(|&(hub, _)| hub == pt(5, 5)));
    }

    #[test]
    fn star_never_shorter_than_mst() {
        let mut state = 0xdeadu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 500) as i64
        };
        for n in 2..10 {
            let pins: Vec<Point> = (0..n).map(|_| pt(next(), next())).collect();
            let star_len: Um = star_decompose(&pins)
                .iter()
                .map(|(a, b)| a.manhattan_distance(*b))
                .sum();
            assert!(star_len >= mst_length(&pins), "n = {n}");
        }
    }

    #[test]
    fn star_trivial_inputs() {
        assert!(star_decompose(&[]).is_empty());
        assert!(star_decompose(&[pt(1, 1)]).is_empty());
        assert_eq!(star_decompose(&[pt(0, 0), pt(3, 4)]).len(), 1);
    }

    #[test]
    fn mst_is_spanning() {
        let pins: Vec<Point> = (0..9).map(|i| pt(i * 13 % 40, i * 29 % 40)).collect();
        let edges = manhattan_mst(&pins);
        assert_eq!(edges.len(), pins.len() - 1);
        // Union-find connectivity check.
        let mut parent: Vec<usize> = (0..pins.len()).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for (a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        for v in 1..pins.len() {
            assert_eq!(find(&mut parent, v), root, "vertex {v} disconnected");
        }
    }
}
