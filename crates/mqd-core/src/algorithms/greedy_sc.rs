//! Algorithm GreedySC (Section 4.2): MQDP as greedy set cover.
//!
//! The universe is the set of `(post, label)` occurrences; picking post `k`
//! covers the occurrences `⟨P_i, a⟩` with `a ∈ label(P_k)` and
//! `|t_k - t_i| <= lambda_a(P_k)`. Greedy repeatedly picks the post covering
//! the most uncovered occurrences, giving the `ln(|P||L|)` bound of the
//! paper.
//!
//! Three interchangeable implementations:
//!
//! * [`solve_greedy_sc`] — *implicit lazy greedy* (default). Sets are never
//!   materialized; a post's current gain is computed in `O(s log n)` with
//!   one [`PresenceFenwick`] per label, and selection uses the standard
//!   lazy-evaluation max-heap (gains are submodular, so a stale top entry
//!   that revalidates is safe to pick). This is what the experiment harness
//!   runs on day-scale data.
//! * [`solve_greedy_sc_scan_max`] — implicit gains, but each round linearly
//!   rescans all posts for the maximum, mirroring the implementation the
//!   paper describes in Section 7.3 ("we iterate all sets to find the set
//!   with maximum size"). Kept for the `ablation_greedy_heap` experiment.
//! * [`solve_greedy_sc_naive`] — literally materializes the sets `S_k` of
//!   Algorithm 2 and runs the generic greedy from `mqd-setcover`. Quadratic
//!   memory; used as a cross-check oracle in tests.
//!
//! All three produce the same cover under the shared tie-break (highest
//! gain, then smallest post index).
//!
//! The implicit variants share a coverage oracle: each `(post, label)`
//! pair's window `[lo, hi)` into `LP(a)` is computed once up front, indexed
//! by pair id — one two-pointer sweep per label for a fixed lambda, one
//! binary search per pair otherwise — so `gain` and `cover_by` never search
//! again. Before the first pick every occurrence is uncovered, so a post's
//! initial gain is just the sum of its window widths and the lazy heap is
//! built without a single Fenwick query. The selection loop is sequential:
//! each pick changes the gains of later picks, which is inherent to greedy
//! set cover.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::instance::Instance;
use crate::lambda::LambdaProvider;
use crate::post::LabelId;
use crate::solution::Solution;
use mqd_setcover::{greedy_cover, BitSet, Goal, PresenceFenwick};

/// Shared implicit-gain machinery: every pair's coverage window into
/// `LP(a)`, indexed by pair id, plus per-label Fenwick trees over `LP(a)`
/// positions, where "present" means the occurrence is still uncovered.
pub(crate) struct GainOracle<'a> {
    inst: &'a Instance,
    windows: Vec<(u32, u32)>,
    fenwicks: Vec<PresenceFenwick>,
    remaining: usize,
}

impl<'a> GainOracle<'a> {
    pub(crate) fn new<L: LambdaProvider + ?Sized>(inst: &'a Instance, lp: &L) -> Self {
        let windows = match lp.as_fixed() {
            Some(lam) => inst.fixed_pair_windows(lam),
            None => (0..inst.len() as u32)
                .flat_map(|k| {
                    let t = inst.value(k);
                    inst.labels(k).iter().map(move |&a| {
                        let lam = lp.lambda(inst, k, a);
                        if lam < 0 {
                            return (0, 0);
                        }
                        let w =
                            inst.posting_window(a, t.saturating_sub(lam), t.saturating_add(lam));
                        (w.start as u32, w.end as u32)
                    })
                })
                .collect(),
        };
        let fenwicks: Vec<PresenceFenwick> = (0..inst.num_labels())
            .map(|a| PresenceFenwick::all_present(inst.postings(LabelId(a as u16)).len()))
            .collect();
        GainOracle {
            inst,
            windows,
            fenwicks,
            remaining: inst.num_pairs(),
        }
    }

    /// Number of still-uncovered occurrences.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// `k`'s labels zipped with their coverage windows.
    fn pairs(&self, k: u32) -> impl Iterator<Item = (&LabelId, &(u32, u32))> {
        let r = self.inst.pair_range(k);
        self.inst
            .labels(k)
            .iter()
            .zip(&self.windows[r.start as usize..r.end as usize])
    }

    /// Current gain of picking `k`: uncovered occurrences inside `k`'s
    /// coverage window, summed over its labels.
    pub(crate) fn gain(&self, k: u32) -> u32 {
        self.pairs(k)
            .map(|(a, &(lo, hi))| self.fenwicks[a.index()].count_range(lo as usize, hi as usize))
            .sum()
    }

    /// Marks everything covered by picking `k`. Returns how many occurrences
    /// were newly covered.
    pub(crate) fn cover_by(&mut self, k: u32) -> u32 {
        let r = self.inst.pair_range(k);
        let windows = &self.windows[r.start as usize..r.end as usize];
        let mut newly = 0u32;
        for (a, &(lo, hi)) in self.inst.labels(k).iter().zip(windows) {
            let fenwick = &mut self.fenwicks[a.index()];
            for pos in lo..hi {
                if fenwick.clear(pos as usize) {
                    newly += 1;
                }
            }
        }
        self.remaining -= newly as usize;
        newly
    }

    /// Lazy-evaluation greedy from the current coverage: appends picks to
    /// `selected` until every occurrence is covered. While nothing is
    /// covered yet, each post's gain is the sum of its window widths.
    fn fill_lazily(&mut self, selected: &mut Vec<u32>) {
        let untouched = self.remaining == self.inst.num_pairs();
        let mut heap: BinaryHeap<(u32, Reverse<u32>)> = (0..self.inst.len() as u32)
            .map(|k| {
                let g = if untouched {
                    self.pairs(k).map(|(_, &(lo, hi))| hi - lo).sum()
                } else {
                    self.gain(k)
                };
                (g, Reverse(k))
            })
            .collect();
        while self.remaining > 0 {
            let Some((stale, Reverse(k))) = heap.pop() else {
                break;
            };
            if stale == 0 {
                break;
            }
            let fresh = self.gain(k);
            if fresh < stale {
                if fresh > 0 {
                    heap.push((fresh, Reverse(k)));
                }
                continue;
            }
            selected.push(k);
            self.cover_by(k);
        }
    }
}

/// GreedySC with implicit sets and lazy-evaluation selection (default).
pub fn solve_greedy_sc<L: LambdaProvider + ?Sized>(inst: &Instance, lp: &L) -> Solution {
    let mut selected = Vec::new();
    GainOracle::new(inst, lp).fill_lazily(&mut selected);
    Solution::new("GreedySC", selected)
}

/// Completes a partial selection into a full lambda-cover with minimum
/// additional greedy cost: the pinned posts are applied first, then the
/// lazy greedy fills the remaining uncovered occurrences. Useful when a
/// user pins posts they insist on seeing and the system fills the gaps.
/// Returns the combined solution (pins included).
///
/// ```
/// use mqd_core::{Instance, FixedLambda, coverage, algorithms::complete_cover};
/// let inst = Instance::from_values(
///     vec![(0, vec![0]), (10, vec![0]), (20, vec![0, 1]), (30, vec![1])], 2).unwrap();
/// let lam = FixedLambda(10);
/// // Pin the first post; the completion must still cover label 1.
/// let sol = complete_cover(&inst, &lam, &[0]);
/// assert!(sol.selected.contains(&0));
/// assert!(coverage::is_cover(&inst, &lam, &sol.selected));
/// ```
pub fn complete_cover<L: LambdaProvider + ?Sized>(
    inst: &Instance,
    lp: &L,
    pinned: &[u32],
) -> Solution {
    let mut oracle = GainOracle::new(inst, lp);
    let mut selected: Vec<u32> = Vec::new();
    for &p in pinned {
        assert!(
            (p as usize) < inst.len(),
            "pinned index {p} out of range ({} posts)",
            inst.len()
        );
        selected.push(p);
        oracle.cover_by(p);
    }
    oracle.fill_lazily(&mut selected);
    Solution::new("GreedySC+pins", selected)
}

/// GreedySC with implicit sets and the paper's scan-max selection
/// (Section 7.3). Same output as [`solve_greedy_sc`], slower rounds.
pub fn solve_greedy_sc_scan_max<L: LambdaProvider + ?Sized>(inst: &Instance, lp: &L) -> Solution {
    let mut oracle = GainOracle::new(inst, lp);
    let mut selected = Vec::new();
    while oracle.remaining() > 0 {
        let mut best_gain = 0u32;
        let mut best_k = u32::MAX;
        for k in 0..inst.len() as u32 {
            let g = oracle.gain(k);
            if g > best_gain {
                best_gain = g;
                best_k = k;
            }
        }
        if best_gain == 0 {
            break;
        }
        selected.push(best_k);
        oracle.cover_by(best_k);
    }
    Solution::new("GreedySC", selected)
}

/// GreedySC materializing the sets `S_k` exactly as Algorithm 2 builds them,
/// then running generic greedy set cover. Memory `O(sum_k |S_k|)` — use only
/// on small instances (tests, tiny slices).
pub fn solve_greedy_sc_naive<L: LambdaProvider + ?Sized>(inst: &Instance, lp: &L) -> Solution {
    let mut covered = BitSet::new(inst.num_pairs());
    let picked = greedy_cover(&naive_sets(inst, lp), &mut covered, Goal::CoverAll);
    Solution::new("GreedySC", picked.into_iter().map(|k| k as u32).collect())
}

/// The sets `S_k` of Algorithm 2: the pair ids post `k` covers, sorted.
fn naive_sets<L: LambdaProvider + ?Sized>(inst: &Instance, lp: &L) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = vec![Vec::new(); inst.len()];
    for (k, set) in sets.iter_mut().enumerate() {
        let k = k as u32;
        let t = inst.value(k);
        for &a in inst.labels(k) {
            let lam = lp.lambda(inst, k, a);
            if lam < 0 {
                continue;
            }
            for pos in inst.posting_window(a, t.saturating_sub(lam), t.saturating_add(lam)) {
                let p = inst.postings(a)[pos];
                set.push(inst.pair_id(p, a).expect("post taken from LP(a)"));
            }
        }
        set.sort_unstable();
        set.dedup();
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage;
    use crate::lambda::{FixedLambda, VariableLambda};

    fn figure2() -> Instance {
        Instance::from_values(
            vec![(0, vec![0]), (10, vec![0]), (20, vec![0, 1]), (30, vec![1])],
            2,
        )
        .unwrap()
    }

    #[test]
    fn figure2_greedy_finds_two_posts() {
        let inst = figure2();
        let f = FixedLambda(10);
        for sol in [
            solve_greedy_sc(&inst, &f),
            solve_greedy_sc_scan_max(&inst, &f),
            solve_greedy_sc_naive(&inst, &f),
        ] {
            assert!(coverage::is_cover(&inst, &f, &sol.selected));
            assert_eq!(sol.size(), 2, "greedy should match optimum here");
        }
    }

    /// `complete_cover` reference: the pins' sets pre-cover the naive
    /// universe, then the generic greedy fills the rest.
    fn naive_completion(inst: &Instance, lp: &dyn LambdaProvider, pins: &[u32]) -> Vec<u32> {
        let sets = naive_sets(inst, lp);
        let mut covered = BitSet::new(inst.num_pairs());
        for &p in pins {
            for &id in &sets[p as usize] {
                covered.set(id);
            }
        }
        let picked = greedy_cover(&sets, &mut covered, Goal::CoverAll);
        let all = pins
            .iter()
            .copied()
            .chain(picked.into_iter().map(|k| k as u32));
        Solution::new("naive+pins", all.collect()).selected
    }

    #[test]
    fn all_three_variants_agree_exactly() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..25 {
            let n = 20 + (next() % 30) as usize;
            let labels = 2 + (next() % 3) as usize;
            let items: Vec<(i64, Vec<u16>)> = (0..n)
                .map(|_| {
                    let t = (next() % 500) as i64;
                    let mut ls = vec![(next() % labels as u64) as u16];
                    if next() % 3 == 0 {
                        ls.push((next() % labels as u64) as u16);
                    }
                    (t, ls)
                })
                .collect();
            let inst = Instance::from_values(items, labels).unwrap();
            let lambda = (next() % 40) as i64;
            let pins: Vec<u32> = (0..n as u32).filter(|_| next() % 6 == 0).collect();
            let f = FixedLambda(lambda);
            let v = VariableLambda::compute(&inst, lambda);
            for (kind, lp) in [
                ("fixed", &f as &(dyn LambdaProvider + Sync)),
                ("variable", &v),
            ] {
                let a = solve_greedy_sc(&inst, lp);
                let b = solve_greedy_sc_scan_max(&inst, lp);
                let c = solve_greedy_sc_naive(&inst, lp);
                assert_eq!(
                    a.selected, b.selected,
                    "trial {trial} {kind}: lazy vs scan-max"
                );
                assert_eq!(
                    a.selected, c.selected,
                    "trial {trial} {kind}: lazy vs naive"
                );
                assert!(coverage::is_cover(&inst, lp, &a.selected));
                let pinned = complete_cover(&inst, lp, &pins);
                assert_eq!(
                    pinned.selected,
                    naive_completion(&inst, lp, &pins),
                    "trial {trial} {kind}: complete_cover vs naive, pins {pins:?}"
                );
                assert!(coverage::is_cover(&inst, lp, &pinned.selected));
            }
        }
    }

    #[test]
    fn greedy_prefers_high_overlap_posts() {
        // A post carrying both labels covers 5 occurrences; greedy must pick
        // it first and finish with a single post.
        let inst = Instance::from_values(
            vec![
                (0, vec![0]),
                (1, vec![1]),
                (2, vec![0, 1]),
                (3, vec![0]),
                (4, vec![1]),
            ],
            2,
        )
        .unwrap();
        let f = FixedLambda(2);
        let sol = solve_greedy_sc(&inst, &f);
        assert_eq!(sol.selected, vec![2]);
    }

    #[test]
    fn variable_lambda_cover_valid() {
        let mut items: Vec<(i64, Vec<u16>)> = (0..60).map(|t| (t * 5, vec![0])).collect();
        items.extend((0..10).map(|t| (t * 40, vec![1])));
        let inst = Instance::from_values(items, 2).unwrap();
        let v = VariableLambda::compute(&inst, 50);
        let sol = solve_greedy_sc(&inst, &v);
        assert!(coverage::is_cover(&inst, &v, &sol.selected));
    }

    #[test]
    fn complete_cover_respects_pins_and_covers() {
        let inst = figure2();
        let f = FixedLambda(10);
        // Pinning a suboptimal post still yields a valid cover containing it.
        let sol = complete_cover(&inst, &f, &[0]);
        assert!(sol.selected.contains(&0));
        assert!(coverage::is_cover(&inst, &f, &sol.selected));
        // Pinning an already-optimal pair adds nothing.
        let sol = complete_cover(&inst, &f, &[1, 3]);
        assert_eq!(sol.selected, vec![1, 3]);
        // No pins == plain greedy.
        assert_eq!(
            complete_cover(&inst, &f, &[]).selected,
            solve_greedy_sc(&inst, &f).selected
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn complete_cover_rejects_bad_pins() {
        let inst = figure2();
        complete_cover(&inst, &FixedLambda(1), &[99]);
    }

    #[test]
    fn empty_instance_yields_empty_solution() {
        let inst = Instance::from_values(Vec::<(i64, Vec<u16>)>::new(), 1).unwrap();
        let f = FixedLambda(1);
        assert_eq!(solve_greedy_sc(&inst, &f).size(), 0);
        assert_eq!(solve_greedy_sc_scan_max(&inst, &f).size(), 0);
        assert_eq!(solve_greedy_sc_naive(&inst, &f).size(), 0);
    }

    #[test]
    fn lambda_zero_selects_representatives_per_timestamp() {
        let inst =
            Instance::from_values(vec![(5, vec![0]), (5, vec![0]), (7, vec![0])], 1).unwrap();
        let f = FixedLambda(0);
        let sol = solve_greedy_sc(&inst, &f);
        assert!(coverage::is_cover(&inst, &f, &sol.selected));
        assert_eq!(sol.size(), 2); // one per distinct timestamp
    }
}
