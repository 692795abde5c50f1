//! Landmark vectors: a node's RTTs to the landmark set.

use std::fmt;
use std::sync::Arc;

use tao_topology::{NodeIdx, RttOracle};
use tao_util::time::SimDuration;

/// A node's coordinates in the landmark space: its measured RTT to each
/// landmark, in landmark order.
///
/// # Example
///
/// ```
/// use tao_landmark::LandmarkVector;
///
/// let v = LandmarkVector::from_millis(&[30.0, 10.0, 20.0]);
/// assert_eq!(v.len(), 3);
/// // Landmark 1 is nearest, then 2, then 0.
/// assert_eq!(v.ordering(), vec![1, 2, 0]);
/// ```
///
/// The components are immutable and shared: a clone — one per map a node is
/// published into — copies two pointers, not the vector.
#[derive(Debug, Clone)]
pub struct LandmarkVector {
    rtts: Arc<[SimDuration]>,
    /// `rtts[i].as_millis_f64()`, converted once at construction, so
    /// ranking subtracts where it used to divide per candidate component.
    millis: Arc<[f64]>,
}

impl PartialEq for LandmarkVector {
    fn eq(&self, other: &Self) -> bool {
        self.rtts == other.rtts
    }
}

impl Eq for LandmarkVector {}

impl LandmarkVector {
    /// Creates a vector from raw RTTs.
    ///
    /// # Panics
    ///
    /// Panics if `rtts` is empty.
    pub fn new(rtts: Vec<SimDuration>) -> Self {
        Self::shared(rtts.into())
    }

    fn shared(rtts: Arc<[SimDuration]>) -> Self {
        assert!(
            !rtts.is_empty(),
            "a landmark vector needs at least one component"
        );
        let millis = rtts.iter().map(|r| r.as_millis_f64()).collect();
        LandmarkVector { rtts, millis }
    }

    /// Convenience constructor from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is empty.
    pub fn from_millis(millis: &[f64]) -> Self {
        Self::shared(
            millis
                .iter()
                .map(|&m| SimDuration::from_millis_f64(m))
                .collect(),
        )
    }

    /// Measures the vector for `node` against `landmarks`, charging one RTT
    /// probe per landmark through `oracle`.
    ///
    /// # Panics
    ///
    /// Panics if `landmarks` is empty.
    pub fn measure(node: NodeIdx, landmarks: &[NodeIdx], oracle: &RttOracle) -> Self {
        assert!(!landmarks.is_empty(), "need at least one landmark");
        Self::shared(landmarks.iter().map(|&l| oracle.measure(node, l)).collect())
    }

    /// Number of components (landmarks).
    pub fn len(&self) -> usize {
        self.rtts.len()
    }

    /// `true` if the vector has no components (never constructible).
    pub fn is_empty(&self) -> bool {
        self.rtts.is_empty()
    }

    /// The RTT to landmark `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rtt(&self, i: usize) -> SimDuration {
        self.rtts[i]
    }

    /// All components in landmark order.
    pub fn rtts(&self) -> &[SimDuration] {
        &self.rtts
    }

    /// The *landmark ordering*: landmark indices sorted by increasing RTT.
    ///
    /// This is the coarse proximity signature used by Topologically-Aware
    /// CAN — nodes with equal orderings are considered close.
    pub fn ordering(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.rtts.len()).collect();
        idx.sort_by_key(|&i| (self.rtts[i], i));
        idx
    }

    /// Euclidean distance to `other` in the landmark space, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn euclidean_ms(&self, other: &LandmarkVector) -> f64 {
        assert_eq!(
            self.millis.len(),
            other.millis.len(),
            "landmark vectors must have equal dimensionality"
        );
        // The per-component `as_millis_f64` formula on operands converted
        // once: same values, same summation order, same bits.
        self.millis
            .iter()
            .zip(other.millis.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Ranks `candidates` — each a `(vector, tie-break id, handle)` triple —
    /// by [`euclidean_ms`](Self::euclidean_ms) distance from `self` and
    /// leaves the `max` nearest in `ranked`, nearest first, as
    /// `(distance, id, handle)`. `ranked` is cleared first; callers on a
    /// request path keep it between calls so ranking allocates nothing.
    ///
    /// This is the one ranking rule behind every "closest in landmark
    /// space" query. Each distance is computed once; ties break by id, then
    /// by handle, so the order is total — pass each candidate's input
    /// position as the handle and the result is exactly what a stable sort
    /// by `(distance, id)` followed by `take(max)` returns, without sorting
    /// the candidates that do not make the cut.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's vector has a different length from `self`.
    pub fn nearest<'v, K: Ord, H: Ord>(
        &self,
        candidates: impl IntoIterator<Item = (&'v LandmarkVector, K, H)>,
        max: usize,
        ranked: &mut Vec<(f64, K, H)>,
    ) {
        ranked.clear();
        let rank =
            |(vector, id, handle): (&LandmarkVector, K, H)| (self.euclidean_ms(vector), id, handle);
        // tao-lint: allow(alloc-reachability, reason = "caller-held ranking buffer: grows to the largest candidate set seen, then is reused; tests/zero_alloc.rs asserts a warmed lookup never allocates")
        ranked.extend(candidates.into_iter().map(rank));
        // Distances are finite and never -0.0 (a square root of a sum of
        // squares over at least one component), so `total_cmp` is the
        // numeric order.
        let by_rank = |a: &(f64, K, H), b: &(f64, K, H)| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        };
        if max == 0 {
            ranked.clear();
        } else if ranked.len() > max {
            ranked.select_nth_unstable_by(max - 1, by_rank);
            ranked.truncate(max);
        }
        ranked.sort_unstable_by(by_rank);
    }

    /// Projects the vector onto a subset of components — the paper's
    /// *landmark vector index* optimisation (use only a few components to
    /// compute the landmark number; keep the full vector for final ranking).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any index is out of range.
    pub fn project(&self, components: &[usize]) -> LandmarkVector {
        assert!(
            !components.is_empty(),
            "projection needs at least one component"
        );
        Self::shared(components.iter().map(|&c| self.rtts[c]).collect())
    }

    /// The first `k` components (a common landmark-vector-index choice).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the vector length.
    pub fn prefix(&self, k: usize) -> LandmarkVector {
        assert!(k > 0 && k <= self.rtts.len(), "prefix length out of range");
        Self::shared(self.rtts[..k].into())
    }
}

impl fmt::Display for LandmarkVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, r) in self.rtts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_sorts_by_rtt_with_index_tiebreak() {
        let v = LandmarkVector::from_millis(&[5.0, 5.0, 1.0]);
        assert_eq!(v.ordering(), vec![2, 0, 1]);
    }

    #[test]
    fn euclidean_distance_matches_hand_computation() {
        let a = LandmarkVector::from_millis(&[0.0, 3.0]);
        let b = LandmarkVector::from_millis(&[4.0, 0.0]);
        assert!((a.euclidean_ms(&b) - 5.0).abs() < 1e-9);
        assert_eq!(a.euclidean_ms(&a), 0.0);
    }

    #[test]
    fn nearest_is_the_stable_sort_by_distance_then_id_cut_at_max() {
        use tao_util::check::for_all;
        use tao_util::check_eq;
        use tao_util::rand::Rng;

        // The distance as it was computed before vectors carried their
        // milliseconds: one `as_millis_f64` division per component, per pair.
        let formula = |a: &LandmarkVector, b: &LandmarkVector| {
            let squares = a.rtts().iter().zip(b.rtts()).map(|(x, y)| {
                let d = x.as_millis_f64() - y.as_millis_f64();
                d * d
            });
            squares.sum::<f64>().sqrt()
        };
        for_all("nearest_vs_stable_sort", 64, |rng| {
            let dims = rng.gen_range(1usize..=40);
            let draw = |rng: &mut tao_util::rand::rngs::StdRng| {
                // Few distinct values: equal distances and equal ids happen.
                // Thirds of a millisecond: the division is inexact.
                let rtts = (0..dims).map(|_| SimDuration::from_micros(rng.gen_range(0..3) * 333));
                LandmarkVector::new(rtts.collect())
            };
            let query = draw(rng);
            let mut pool: Vec<(LandmarkVector, u8)> = Vec::new();
            for _ in 0..rng.gen_range(0..30) {
                // A third of the pool shares its allocation with the query
                // or an earlier member.
                let vector = match rng.gen_range(0..3 * (pool.len() + 1)) {
                    0 => query.clone(),
                    i if i <= pool.len() => pool[i - 1].0.clone(),
                    _ => draw(rng),
                };
                pool.push((vector, rng.gen_range(0..4)));
            }
            let mut sorted: Vec<usize> = (0..pool.len()).collect();
            sorted.sort_by(|&a, &b| {
                let da = formula(&query, &pool[a].0);
                let db = formula(&query, &pool[b].0);
                da.partial_cmp(&db).unwrap().then(pool[a].1.cmp(&pool[b].1))
            });
            let mut ranked = vec![(0.0, 0, 99)]; // stale content must not survive
            for max in [0, 1, 3, pool.len(), usize::MAX] {
                let candidates = pool.iter().enumerate().map(|(i, (v, id))| (v, *id, i));
                query.nearest(candidates, max, &mut ranked);
                let got: Vec<usize> = ranked.iter().map(|&(_, _, i)| i).collect();
                let want: Vec<usize> = sorted.iter().copied().take(max).collect();
                check_eq!(got, want, "max {max}");
                for &(d, id, i) in &ranked {
                    let want = formula(&query, &pool[i].0);
                    check_eq!(
                        (d.to_bits(), id),
                        (want.to_bits(), pool[i].1),
                        "{d} vs {want}"
                    );
                    check_eq!(query.euclidean_ms(&pool[i].0).to_bits(), want.to_bits());
                }
            }
        });
    }

    #[test]
    fn projection_and_prefix_select_components() {
        let v = LandmarkVector::from_millis(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.project(&[3, 0]).rtts()[0], SimDuration::from_millis(4));
        assert_eq!(v.prefix(2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn distance_requires_equal_lengths() {
        let a = LandmarkVector::from_millis(&[1.0]);
        let b = LandmarkVector::from_millis(&[1.0, 2.0]);
        let _ = a.euclidean_ms(&b);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_vector_panics() {
        let _ = LandmarkVector::new(Vec::new());
    }

    #[test]
    fn display_lists_components() {
        let v = LandmarkVector::from_millis(&[1.5]);
        assert_eq!(v.to_string(), "<1.500ms>");
    }

    #[test]
    fn measure_charges_one_probe_per_landmark() {
        use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            3,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let landmarks = [NodeIdx(1), NodeIdx(2), NodeIdx(3)];
        let v = LandmarkVector::measure(NodeIdx(0), &landmarks, &oracle);
        assert_eq!(v.len(), 3);
        assert_eq!(oracle.measurements(), 3);
    }
}
