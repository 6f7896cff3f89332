//! The four workloads: a seeded corpus, the spec populations, and the
//! open-loop plans, all pure functions of `(workload, seed, seconds)`.
//!
//! Every workload preloads the same kind of corpus (12 labels, about 26k
//! posts from `generate_labeled_posts`) and differs in what the timed
//! window sends:
//!
//! * `hot-read` — 256 full-range specs under Zipf 1.1 popularity, warmed
//!   so each has been solved once, plus 5 % tail-appended 16-row
//!   `INGESTB` batches. The working set fits the 1024-entry cover cache,
//!   so the hit and render path dominates and solving runs only in the
//!   background refresher.
//! * `cold-solve` — read-only; every query is a fresh spec over a random
//!   bounded window, so the cache only misses and `Store::slice` plus the
//!   solvers do the work. The warm-up fills the cache with 1024 other
//!   fresh specs, so every timed miss also evicts.
//! * `ingest-durable` — a `--data-dir` node with fsync on; half the ops
//!   are single-row `INGEST`s landing in the footprints of 16 hot specs
//!   (8 repairable full-range fixed-λ Scan, 8 that go stale, over the
//!   newest 5 minutes onwards), the other half query that set.
//! * `routed-read` — the `hot-read` spec population, read-only, through a
//!   2-shard `mqdiv route`: relay, `COVER` union and `SLICE` re-solve,
//!   none of which the router caches.

use std::collections::HashSet;

use mqd_core::record::Record;
use mqd_datagen::tweets::{generate_labeled_posts, LabeledStreamConfig, MINUTE_MS};
use mqd_datagen::ZipfSampler;
use mqd_load::{Action, Op, Plan};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqd_store::{Algorithm, QuerySpec};

/// Label universe of the corpus.
pub const NUM_LABELS: u16 = 12;
/// Corpus span; at 62 posts per label per minute and overlap 1.15 this is
/// about 26k rows.
const PRELOAD_MINUTES: i64 = 40;
/// λ menu in the corpus's millisecond value units.
const LAMBDAS: &[i64] = &[15_000, 30_000, 60_000, 120_000];
/// Hot spec population of `hot-read` and `routed-read`.
const HOT_SPECS: usize = 256;
/// Zipf exponent of hot-spec popularity.
const ZIPF_EXPONENT: f64 = 1.1;
/// Share of `hot-read` ops that are ingest batches, and their size. A
/// batch is a burst on one label, so it dirties the stale-prone specs of
/// that label only and the refresher keeps up with the ingest instead of
/// running flat out (its CPU would then follow the host's free CPU, not the
/// work).
const HOT_INGEST_SHARE: f64 = 0.05;
const HOT_BATCH_ROWS: usize = 16;
/// `ingest-durable`: hot spec set size (half repairable) and ingest share.
const DURABLE_SPECS: usize = 16;
const DURABLE_INGEST_SHARE: f64 = 0.5;
/// `ingest-durable`: window of the non-repairable specs, back from the end
/// of the preload.
const DURABLE_TAIL_MS: i64 = 5 * MINUTE_MS;
/// `ingest-durable`: rows between the end of the preload and the next
/// sealed window.
const SEAL_LEAD_ROWS: usize = 256;
/// `cold-solve` warm-up: distinct specs that fill the 1024-entry cover
/// cache, so every timed miss also evicts.
const COLD_WARM_SPECS: usize = 1024;
/// `cold-solve` window widths, in value units (ms).
const COLD_WINDOW_MS: (i64, i64) = (2 * MINUTE_MS, 12 * MINUTE_MS);

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotRead,
    ColdSolve,
    IngestDurable,
    RoutedRead,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::ColdSolve,
        Workload::IngestDurable,
        Workload::RoutedRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdSolve => "cold-solve",
            Workload::IngestDurable => "ingest-durable",
            Workload::RoutedRead => "routed-read",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered rate in ops/s, chosen from the calibration sweep recorded in
    /// `livebench/README.md`.
    pub fn rate(self) -> f64 {
        match self {
            Workload::HotRead => 200.0,
            Workload::ColdSolve => 600.0,
            Workload::IngestDurable => 300.0,
            Workload::RoutedRead => 100.0,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::IngestDurable
    }

    pub fn routed(self) -> bool {
        self == Workload::RoutedRead
    }
}

/// Everything one run sends, derived from the seed.
pub struct Inputs {
    /// Rows loaded before the timed window (`INGESTB` batches).
    pub preload: Vec<Record>,
    /// Specs queried once during set-up, so each has been solved.
    pub warm: Vec<QuerySpec>,
    /// The timed open-loop schedule (one lane).
    pub plan: Plan,
    /// Every row the plan ingests, in plan order: generation
    /// `preload.len() + k` is the preload plus the first `k` of these.
    pub ingest_rows: Vec<Record>,
}

/// Builds a workload's inputs. The corpus depends on the seed only, so
/// every workload of one seed shares it (`ingest-durable` loads a prefix).
pub fn build(w: Workload, seed: u64, seconds: u64, rate: f64) -> Inputs {
    let mut preload = corpus(seed);
    if w.durable() {
        // End the preload just short of a WAL window boundary, so the timed
        // window seals a block.
        let window = mqd_store::SEGMENT_TARGET_ROWS;
        preload.truncate((preload.len() / window * window).saturating_sub(SEAL_LEAD_ROWS));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15 ^ w as u64);
    let mut tail = TailGen::after(&preload);
    let duration_us = seconds * 1_000_000;
    let times = arrivals(&mut rng, rate, duration_us);
    let (warm, ops, ingest_rows) = match w {
        Workload::HotRead | Workload::RoutedRead => {
            let specs = hot_specs(&mut rng);
            let zipf = ZipfSampler::new(specs.len(), ZIPF_EXPONENT);
            let ingest_share = if w == Workload::HotRead {
                HOT_INGEST_SHARE
            } else {
                0.0
            };
            let mut rows = Vec::new();
            // Bursts visit the labels in turn, so every seed dirties the
            // same mix of specs.
            let first_topic = rng.random_range(0..NUM_LABELS);
            let mut bursts = 0u16;
            let ops = times
                .iter()
                .map(|&at_us| {
                    let action = if rng.random::<f64>() < ingest_share {
                        let topic = [(first_topic + bursts) % NUM_LABELS];
                        bursts = (bursts + 1) % NUM_LABELS;
                        let batch: Vec<Record> = (0..HOT_BATCH_ROWS)
                            .map(|_| tail.next(&mut rng, &topic))
                            .collect();
                        rows.extend(batch.iter().cloned());
                        Action::IngestBatch(batch)
                    } else {
                        Action::Query(specs[zipf.sample(&mut rng)].clone())
                    };
                    op(at_us, action)
                })
                .collect();
            (specs, ops, rows)
        }
        Workload::ColdSolve => {
            let lo = preload.first().map_or(0, |r| r.value);
            let hi = preload.last().map_or(0, |r| r.value);
            let mut seen = HashSet::new();
            let mut fresh = |i: usize| loop {
                let mut spec = stratified_spec(&mut rng, i);
                let width = rng.random_range(COLD_WINDOW_MS.0..=COLD_WINDOW_MS.1);
                spec.from = rng.random_range(lo..=(hi - width).max(lo));
                spec.to = spec.from + width;
                if seen.insert(spec.clone()) {
                    break spec;
                }
            };
            let warm: Vec<QuerySpec> = (0..COLD_WARM_SPECS).map(&mut fresh).collect();
            let ops = times
                .iter()
                .enumerate()
                .map(|(i, &at_us)| op(at_us, Action::Query(fresh(i))))
                .collect();
            (warm, ops, Vec::new())
        }
        Workload::IngestDurable => {
            let tail_from = preload.last().map_or(0, |r| r.value) - DURABLE_TAIL_MS;
            let specs = durable_specs(&mut rng, tail_from);
            let mut pool: Vec<u16> = specs.iter().flat_map(|s| s.labels.clone()).collect();
            pool.sort_unstable();
            pool.dedup();
            let mut rows = Vec::new();
            let ops = times
                .iter()
                .map(|&at_us| {
                    let action = if rng.random::<f64>() < DURABLE_INGEST_SHARE {
                        let row = tail.next(&mut rng, &pool);
                        rows.push(row.clone());
                        Action::Ingest(row)
                    } else {
                        Action::Query(specs[rng.random_range(0..specs.len())].clone())
                    };
                    op(at_us, action)
                })
                .collect();
            (specs, ops, rows)
        }
    };
    let plan = Plan {
        scenario: w.name().to_string(),
        seed,
        duration_us,
        offered_rate: rate,
        lanes: 1,
        ops,
        slow_conns: Vec::new(),
    };
    Inputs {
        preload,
        warm,
        plan,
        ingest_rows,
    }
}

fn op(at_us: u64, action: Action) -> Op {
    Op {
        at_us,
        lane: 0,
        action,
    }
}

/// The preloaded corpus: the paper-calibrated labeled stream (62 posts per
/// label per minute, overlap 1.15) over 12 equally popular labels.
pub fn corpus(seed: u64) -> Vec<Record> {
    let posts = generate_labeled_posts(&LabeledStreamConfig {
        num_labels: NUM_LABELS as usize,
        per_label_per_minute: 62.0,
        overlap: 1.15,
        start_ms: 0,
        duration_ms: PRELOAD_MINUTES * MINUTE_MS,
        label_skew: 0.0,
        diurnal_amplitude: 0.0,
        seed,
    });
    posts
        .iter()
        .map(|p| Record {
            id: p.id().0,
            value: p.value(),
            labels: p.labels().iter().map(|l| l.0).collect(),
        })
        .collect()
}

/// Jittered-uniform open-loop arrivals: gaps of `1e6/rate · (0.5 + u)` µs.
fn arrivals(rng: &mut StdRng, rate: f64, duration_us: u64) -> Vec<u64> {
    let mean_gap = 1e6 / rate;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += mean_gap * (0.5 + rng.random::<f64>());
        if t >= duration_us as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// The `i`-th spec of a stratified population. Label count, λ,
/// algorithm, the proportional flag and (for several labels) whether the
/// labels span both shards of a 2-shard cluster follow fixed patterns over
/// `i`, so every seed's population has the same make-up — 70 % Scan, 15 %
/// Scan+, 15 % GreedySC, 15 % proportional, 1–3 labels, λ from the menu,
/// half the multi-label specs across shards — and the seed picks only the
/// labels. Full range.
fn stratified_spec(rng: &mut StdRng, i: usize) -> QuerySpec {
    // One in six specs has a single label (12 choices), a third two and
    // half three, so no pattern cell runs out of distinct label sets.
    let k = [1, 2, 2, 3, 3, 3][i % 6];
    let algorithm = match i % 20 {
        0..=13 => Algorithm::Scan,
        14..=16 => Algorithm::ScanPlus,
        _ => Algorithm::GreedySc,
    };
    let cross_shard = k > 1 && (i / 24).is_multiple_of(2);
    let parity = rng.random_range(0..2u16);
    let mut labels: Vec<u16> = Vec::with_capacity(k);
    while labels.len() < k {
        let p = if cross_shard && labels.len() == 1 {
            1 - parity
        } else {
            parity
        };
        let l = 2 * rng.random_range(0..NUM_LABELS / 2) + p;
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    labels.sort_unstable();
    QuerySpec {
        labels,
        lambda: LAMBDAS[(i / 6) % LAMBDAS.len()],
        proportional: (i / 2) % 20 >= 17,
        algorithm,
        from: i64::MIN,
        to: i64::MAX,
    }
}

/// `n` distinct stratified specs; a collision redraws the labels.
fn population(rng: &mut StdRng, n: usize, shape: impl Fn(usize, &mut QuerySpec)) -> Vec<QuerySpec> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut draws = 0;
    while out.len() < n {
        draws += 1;
        assert!(
            draws < 100 * n,
            "spec population pattern ran out of label sets"
        );
        let mut spec = stratified_spec(rng, out.len());
        shape(out.len(), &mut spec);
        if seen.insert(spec.clone()) {
            out.push(spec);
        }
    }
    out
}

/// The hot population, most popular first.
fn hot_specs(rng: &mut StdRng) -> Vec<QuerySpec> {
    population(rng, HOT_SPECS, |_, _| {})
}

/// Alternately a repairable full-range fixed-λ Scan spec and a spec an
/// in-footprint append makes stale (Scan+, GreedySC, or proportional Scan)
/// over the newest `DURABLE_TAIL_MS` of the corpus onwards. The full-range
/// covers pin the GC floor; the tail windows keep each background re-solve
/// small, so the refresher keeps up with the ingest instead of running flat
/// out (its CPU would then follow the host's free CPU, not the work).
fn durable_specs(rng: &mut StdRng, tail_from: i64) -> Vec<QuerySpec> {
    population(rng, DURABLE_SPECS, |i, spec| {
        (spec.algorithm, spec.proportional) = match (i % 2, (i / 2) % 3) {
            (0, _) => (Algorithm::Scan, false),
            (_, 0) => (Algorithm::ScanPlus, false),
            (_, 1) => (Algorithm::GreedySc, false),
            _ => (Algorithm::Scan, true),
        };
        if i % 2 == 1 {
            spec.from = tail_from;
        }
    })
}

/// Tail-appended rows: ids and values continue after the corpus, so the
/// plan can run against a preloaded (non-empty) server.
struct TailGen {
    next_id: u64,
    value: i64,
}

impl TailGen {
    fn after(preload: &[Record]) -> TailGen {
        TailGen {
            next_id: preload.iter().map(|r| r.id + 1).max().unwrap_or(0),
            value: preload.last().map_or(0, |r| r.value),
        }
    }

    /// One row, 1–2 labels drawn from `pool`.
    fn next(&mut self, rng: &mut StdRng, pool: &[u16]) -> Record {
        self.value += rng.random_range(1..=200i64);
        let pick = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())];
        let mut labels = vec![pick(rng)];
        if rng.random::<f64>() < 0.15 {
            let extra = pick(rng);
            if !labels.contains(&extra) {
                labels.push(extra);
            }
        }
        labels.sort_unstable();
        let row = Record {
            id: self.next_id,
            value: self.value,
            labels,
        };
        self.next_id += 1;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = build(w, 5, 2, w.rate());
            let b = build(w, 5, 2, w.rate());
            assert_eq!(a.plan.digest(), b.plan.digest(), "{}", w.name());
            assert_eq!(a.preload, b.preload);
            assert_ne!(a.plan.digest(), build(w, 6, 2, w.rate()).plan.digest());
        }
    }

    #[test]
    fn populations_have_the_same_make_up_for_every_seed() {
        let shape = |specs: &[QuerySpec]| -> Vec<(usize, i64, Algorithm, bool, bool)> {
            specs
                .iter()
                .map(|s| {
                    let shards: HashSet<u16> = s.labels.iter().map(|l| l % 2).collect();
                    (
                        s.labels.len(),
                        s.lambda,
                        s.algorithm,
                        s.proportional,
                        shards.len() > 1,
                    )
                })
                .collect()
        };
        let base = build(Workload::HotRead, 0, 1, 100.0).warm;
        assert_eq!(base.len(), HOT_SPECS);
        let scans = base
            .iter()
            .filter(|s| s.algorithm == Algorithm::Scan)
            .count();
        assert!(
            (scans as f64 / HOT_SPECS as f64 - 0.70).abs() < 0.02,
            "{scans} Scan specs"
        );
        for seed in 1..40 {
            let specs = build(Workload::HotRead, seed, 1, 100.0).warm;
            assert_eq!(shape(&specs), shape(&base));
            let durable = build(Workload::IngestDurable, seed, 1, 100.0).warm;
            assert_eq!(
                durable.iter().filter(|s| mqd_store::repairable(s)).count(),
                DURABLE_SPECS / 2
            );
        }
    }

    #[test]
    fn plan_rows_append_after_the_preload() {
        for w in [Workload::HotRead, Workload::IngestDurable] {
            let inputs = build(w, 9, 2, w.rate());
            let mut store = mqd_store::Store::new();
            store.append_batch(inputs.preload.iter().cloned()).unwrap();
            store
                .append_batch(inputs.ingest_rows.iter().cloned())
                .unwrap();
            let mut ids: Vec<u64> = inputs
                .preload
                .iter()
                .chain(&inputs.ingest_rows)
                .map(|r| r.id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), inputs.preload.len() + inputs.ingest_rows.len());
        }
        let durable = build(Workload::IngestDurable, 9, 2, 300.0);
        assert_eq!(
            durable.preload.len() % mqd_store::SEGMENT_TARGET_ROWS,
            mqd_store::SEGMENT_TARGET_ROWS - SEAL_LEAD_ROWS
        );
    }
}
