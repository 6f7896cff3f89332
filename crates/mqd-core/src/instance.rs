//! Problem instances: a sorted collection of posts plus per-label postings.
//!
//! An [`Instance`] is the `<P, lambda>` input of the paper with the `P` part
//! preprocessed the way every algorithm of Sections 4–5 expects it:
//!
//! * posts are sorted by diversity-dimension value (ties broken by id),
//! * for every label `a` the list `LP(a)` of matching post indices is
//!   materialized in sorted order, together with an aligned array of those
//!   posts' values, so window searches binary-search contiguous `i64`s,
//! * every `(post, label)` occurrence is assigned a dense *pair id* so the
//!   set-cover based algorithms can track coverage in flat bitmaps.

use crate::error::MqdError;
use crate::post::{LabelId, Post, PostId};

/// A preprocessed MQDP instance. Post indices (`u32`) returned by algorithms
/// always refer to the sorted order exposed by [`Instance::posts`].
#[derive(Clone, Debug)]
pub struct Instance {
    posts: Vec<Post>,
    postings: Vec<Vec<u32>>,
    posting_values: Vec<Vec<i64>>,
    pair_offsets: Vec<u32>,
    num_pairs: usize,
    max_labels_per_post: usize,
}

impl Instance {
    /// Builds an instance from raw posts. Posts are sorted by value; each
    /// post's labels must be `< num_labels`. Posts with an empty label set
    /// are dropped (they match no query, so MQDP never needs to cover them).
    pub fn from_posts(mut posts: Vec<Post>, num_labels: usize) -> Result<Self, MqdError> {
        for p in &posts {
            for &l in p.labels() {
                if l.index() >= num_labels {
                    return Err(MqdError::LabelOutOfRange {
                        label: l.0,
                        num_labels,
                    });
                }
            }
        }
        posts.retain(|p| !p.labels().is_empty());
        posts.sort_by_key(|p| (p.value(), p.id()));

        let mut postings = vec![Vec::new(); num_labels];
        let mut posting_values = vec![Vec::new(); num_labels];
        let mut pair_offsets = Vec::with_capacity(posts.len() + 1);
        let mut num_pairs = 0u32;
        let mut max_labels = 0usize;
        for (i, p) in posts.iter().enumerate() {
            pair_offsets.push(num_pairs);
            max_labels = max_labels.max(p.labels().len());
            for &l in p.labels() {
                postings[l.index()].push(i as u32);
                posting_values[l.index()].push(p.value());
            }
            num_pairs += p.labels().len() as u32;
        }
        pair_offsets.push(num_pairs);

        Ok(Instance {
            posts,
            postings,
            posting_values,
            pair_offsets,
            num_pairs: num_pairs as usize,
            max_labels_per_post: max_labels,
        })
    }

    /// Convenience constructor from `(value, labels)` tuples; ids are assigned
    /// from the input order.
    ///
    /// ```
    /// use mqd_core::Instance;
    /// let inst = Instance::from_values(
    ///     vec![(0, vec![0]), (10, vec![0, 1])], 2).unwrap();
    /// assert_eq!(inst.len(), 2);
    /// assert_eq!(inst.num_labels(), 2);
    /// assert_eq!(inst.overlap_rate(), 1.5);
    /// ```
    pub fn from_values(
        items: impl IntoIterator<Item = (i64, Vec<u16>)>,
        num_labels: usize,
    ) -> Result<Self, MqdError> {
        let posts = items
            .into_iter()
            .enumerate()
            .map(|(i, (v, ls))| {
                Post::new(PostId(i as u64), v, ls.into_iter().map(LabelId).collect())
            })
            .collect();
        Self::from_posts(posts, num_labels)
    }

    /// Number of posts `|P|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// Whether the instance has no posts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// Number of labels `|L|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.postings.len()
    }

    /// All posts, sorted by diversity-dimension value.
    #[inline]
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// The post at sorted index `i`.
    #[inline]
    pub fn post(&self, i: u32) -> &Post {
        &self.posts[i as usize]
    }

    /// The dimension value of the post at sorted index `i`.
    #[inline]
    pub fn value(&self, i: u32) -> i64 {
        self.posts[i as usize].value()
    }

    /// The label set of the post at sorted index `i`.
    #[inline]
    pub fn labels(&self, i: u32) -> &[LabelId] {
        self.posts[i as usize].labels()
    }

    /// `LP(a)`: sorted indices of the posts matching label `a`.
    #[inline]
    pub fn postings(&self, a: LabelId) -> &[u32] {
        &self.postings[a.index()]
    }

    /// The values of the posts in `LP(a)`, aligned with
    /// [`postings`](Self::postings): `posting_values(a)[j] ==
    /// value(postings(a)[j])`.
    #[inline]
    pub fn posting_values(&self, a: LabelId) -> &[i64] {
        &self.posting_values[a.index()]
    }

    /// Total number of `(post, label)` occurrences — the universe size of the
    /// set-cover reformulation in Section 4.2.
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Maximum number of labels on any single post — the `s` in the Scan
    /// approximation bound `|S_scan| <= s * |S_opt|`.
    #[inline]
    pub fn max_labels_per_post(&self) -> usize {
        self.max_labels_per_post
    }

    /// Average number of labels per post — the paper's *post overlap rate*
    /// (Section 7.2). Returns 0 for an empty instance.
    pub fn overlap_rate(&self) -> f64 {
        if self.posts.is_empty() {
            0.0
        } else {
            self.num_pairs as f64 / self.posts.len() as f64
        }
    }

    /// Dense id of the `(post, label)` pair, or `None` if the post does not
    /// match the label. Pair ids are contiguous in `0..num_pairs()`.
    #[inline]
    pub fn pair_id(&self, post: u32, a: LabelId) -> Option<u32> {
        let labels = self.posts[post as usize].labels();
        labels
            .binary_search(&a)
            .ok()
            .map(|slot| self.pair_offsets[post as usize] + slot as u32)
    }

    /// The pair-id range `[start, end)` of all label occurrences of `post`.
    #[inline]
    pub fn pair_range(&self, post: u32) -> std::ops::Range<u32> {
        self.pair_offsets[post as usize]..self.pair_offsets[post as usize + 1]
    }

    /// Indices `[lo, hi)` into `posts()` whose values lie in
    /// `[min_value, max_value]` (inclusive on both ends).
    pub fn window(&self, min_value: i64, max_value: i64) -> std::ops::Range<usize> {
        let lo = self.posts.partition_point(|p| p.value() < min_value);
        let hi = self.posts.partition_point(|p| p.value() <= max_value);
        lo..hi
    }

    /// Indices `[lo, hi)` into `postings(a)` whose post values lie in
    /// `[min_value, max_value]` (inclusive on both ends).
    pub fn posting_window(
        &self,
        a: LabelId,
        min_value: i64,
        max_value: i64,
    ) -> std::ops::Range<usize> {
        let vals = &self.posting_values[a.index()];
        let lo = vals.partition_point(|&v| v < min_value);
        let hi = vals.partition_point(|&v| v <= max_value);
        lo..hi
    }

    /// The window `[lo, hi)` into `postings(a)` that a uniform `lambda` gives
    /// every `(post, label)` pair, indexed by pair id: for a post with value
    /// `t` it equals `posting_window(a, t - lambda, t + lambda)` (saturating).
    /// Along `LP(a)` both window ends only move right, so one two-pointer
    /// sweep per label computes every window in `O(num_pairs)`. A negative
    /// `lambda` covers nothing and yields empty windows.
    pub fn fixed_pair_windows(&self, lambda: i64) -> Vec<(u32, u32)> {
        if lambda < 0 {
            return vec![(0, 0); self.num_pairs];
        }
        let mut lo = vec![0usize; self.num_labels()];
        let mut hi = vec![0usize; self.num_labels()];
        let mut windows = Vec::with_capacity(self.num_pairs);
        for p in &self.posts {
            let t = p.value();
            let (from, to) = (t.saturating_sub(lambda), t.saturating_add(lambda));
            for &a in p.labels() {
                let (vals, lo, hi) = (
                    &self.posting_values[a.index()],
                    &mut lo[a.index()],
                    &mut hi[a.index()],
                );
                // The post itself sits in LP(a) with from <= t <= to, so `lo`
                // stops at or before it and `hi` moves past it.
                while vals[*lo] < from {
                    *lo += 1;
                }
                while *hi < vals.len() && vals[*hi] <= to {
                    *hi += 1;
                }
                windows.push((*lo as u32, *hi as u32));
            }
        }
        windows
    }

    /// Restricts the instance to posts whose value lies in
    /// `[min_value, max_value]`, keeping the same label space. Used to carve
    /// the 10-minute evaluation slices of Section 7.2 out of a full day.
    pub fn slice(&self, min_value: i64, max_value: i64) -> Instance {
        let r = self.window(min_value, max_value);
        let posts = self.posts[r].to_vec();
        Instance::from_posts(posts, self.num_labels()).expect("slice of a valid instance is valid")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn inst() -> Instance {
        // values deliberately unsorted on input
        Instance::from_values(
            vec![
                (30, vec![0, 1]),
                (10, vec![0]),
                (20, vec![1]),
                (40, vec![2, 0]),
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn posts_sorted_by_value() {
        let i = inst();
        let values: Vec<i64> = i.posts().iter().map(|p| p.value()).collect();
        assert_eq!(values, vec![10, 20, 30, 40]);
    }

    #[test]
    fn postings_reference_sorted_indices() {
        let i = inst();
        assert_eq!(i.postings(LabelId(0)), &[0, 2, 3]);
        assert_eq!(i.postings(LabelId(1)), &[1, 2]);
        assert_eq!(i.postings(LabelId(2)), &[3]);
    }

    #[test]
    fn label_out_of_range_rejected() {
        let err = Instance::from_values(vec![(0, vec![5])], 3).unwrap_err();
        assert_eq!(
            err,
            MqdError::LabelOutOfRange {
                label: 5,
                num_labels: 3
            }
        );
    }

    #[test]
    fn unlabeled_posts_dropped() {
        let i = Instance::from_values(vec![(0, vec![]), (1, vec![0])], 1).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.value(0), 1);
    }

    #[test]
    fn pair_ids_dense_and_correct() {
        let i = inst();
        assert_eq!(i.num_pairs(), 6);
        let mut seen = vec![false; i.num_pairs()];
        for p in 0..i.len() as u32 {
            for &a in i.labels(p) {
                let id = i.pair_id(p, a).unwrap();
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(i.pair_id(1, LabelId(0)), None); // post at value 20 lacks L0
    }

    #[test]
    fn windows_inclusive() {
        let i = inst();
        assert_eq!(i.window(10, 30), 0..3);
        assert_eq!(i.window(11, 29), 1..2);
        assert_eq!(i.window(41, 50), 4..4);
        assert_eq!(i.posting_window(LabelId(0), 10, 30), 0..2);
        assert_eq!(i.posting_window(LabelId(0), 35, 100), 2..3);
    }

    /// A seeded instance whose values cluster (so windows overlap) and
    /// include the `i64` extremes (so window bounds saturate).
    pub(crate) fn random_instance(seed: u64) -> Instance {
        use mqd_rng::{RngExt, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = rng.random_range(1..5usize);
        let n = rng.random_range(0..60usize);
        let items: Vec<(i64, Vec<u16>)> = (0..n)
            .map(|_| {
                let v = match rng.random_range(0..10u32) {
                    0 => i64::MIN + rng.random_range(0..3i64),
                    1 => i64::MAX - rng.random_range(0..3i64),
                    _ => rng.random_range(-200..200i64),
                };
                let k = rng.random_range(1..=labels);
                (
                    v,
                    (0..k).map(|_| rng.random_range(0..labels as u16)).collect(),
                )
            })
            .collect();
        Instance::from_values(items, labels).unwrap()
    }

    fn assert_posting_values_aligned(i: &Instance) {
        for a in 0..i.num_labels() as u16 {
            let a = LabelId(a);
            assert_eq!(i.posting_values(a).len(), i.postings(a).len());
            for (j, &p) in i.postings(a).iter().enumerate() {
                assert_eq!(i.posting_values(a)[j], i.value(p), "label {a:?} slot {j}");
            }
        }
    }

    #[test]
    fn posting_values_align_with_postings() {
        for seed in 0..40 {
            let i = random_instance(seed);
            assert_posting_values_aligned(&i);
            assert_posting_values_aligned(&i.slice(-100, i64::MAX));
            assert_posting_values_aligned(&i.slice(i64::MIN, 50));
        }
        assert_posting_values_aligned(&inst().slice(15, 35));
    }

    #[test]
    fn fixed_pair_windows_match_posting_window() {
        for seed in 0..40 {
            let i = random_instance(seed);
            for lambda in [-1, 0, 1, 7, 150, i64::MAX / 2, i64::MAX] {
                let windows = i.fixed_pair_windows(lambda);
                assert_eq!(windows.len(), i.num_pairs());
                for p in 0..i.len() as u32 {
                    let t = i.value(p);
                    for &a in i.labels(p) {
                        let id = i.pair_id(p, a).unwrap() as usize;
                        let (lo, hi) = windows[id];
                        if lambda < 0 {
                            assert_eq!(lo, hi, "seed {seed}: negative lambda covers nothing");
                            continue;
                        }
                        let w =
                            i.posting_window(a, t.saturating_sub(lambda), t.saturating_add(lambda));
                        assert_eq!(
                            (lo as usize, hi as usize),
                            (w.start, w.end),
                            "seed {seed} lambda {lambda} post {p} label {a:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_rate_and_s() {
        let i = inst();
        assert!((i.overlap_rate() - 1.5).abs() < 1e-12);
        assert_eq!(i.max_labels_per_post(), 2);
    }

    #[test]
    fn slice_preserves_label_space() {
        let i = inst();
        let s = i.slice(15, 35);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_labels(), 3);
        assert_eq!(s.value(0), 20);
    }
}
