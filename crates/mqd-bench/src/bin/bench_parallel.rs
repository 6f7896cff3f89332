//! Parallel-scaling sweep for the zero-dependency execution layer.
//!
//! Measures wall time and post throughput at 1/2/4/8 worker threads for:
//!
//! * the parallel cover verifier (`violations`),
//! * the batch multi-user digest solver,
//! * the sharded streaming engine (StreamScan+ and StreamGreedySC+, one
//!   shard per configured thread).
//!
//! Every parallel run is asserted **byte-identical** to its 1-thread
//! baseline before its timing is recorded — a wrong answer fast is not a
//! result. GreedySC is recorded once, sequentially, as the single-thread
//! reference cost of the same slice (its solver has no threaded path).
//! Writes `BENCH_parallel.json` at the working directory root (repo root
//! when run via `cargo run`), stamped with the host's CPU count, the git
//! revision and the build profile: thread counts beyond the hardware
//! parallelism cannot speed up CPU-bound work, and readers need that
//! context to interpret the sweep.

use std::fmt::Write as _;

use mqd_bench::{measure, must, BenchArgs, Measured, CALIBRATED_PER_LABEL_PER_MIN};
use mqd_core::algorithms::solve_greedy_sc;
use mqd_core::{coverage, FixedLambda};
use mqd_rng::{RngExt, SeedableRng, StdRng};
use mqd_stream::{
    run_sharded_reference, run_sharded_stream, solve_batch_users_threads, BatchUser,
    ShardEngineKind,
};

const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

struct Row {
    task: &'static str,
    m: Measured,
    identical: bool,
}

fn main() {
    let args = BenchArgs::parse();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let lambda_ms = 5_000i64;
    let tau_ms = 4_000i64;
    // Fig-06-scale slice at the calibrated Twitter rate: |L|=3, 10 minutes.
    let inst = mqd_bench::ten_minute_instance(3, CALIBRATED_PER_LABEL_PER_MIN, 1.2, args.seed);
    let f = FixedLambda(lambda_ms);
    println!(
        "bench_parallel: {} posts, |L|={}, lambda={}ms, tau={}ms, host cpus={}",
        inst.len(),
        inst.num_labels(),
        lambda_ms,
        tau_ms,
        cpus
    );

    let mut rows: Vec<Row> = Vec::new();

    // --- GreedySC (sequential reference) ---------------------------------
    let (greedy, m) = measure(1, inst.len(), || solve_greedy_sc(&inst, &f));
    assert!(coverage::is_cover(&inst, &f, &greedy.selected));
    rows.push(Row {
        task: "greedy_sc",
        m,
        identical: true,
    });

    // --- Parallel verifier ------------------------------------------------
    let sparse: Vec<u32> = (0..inst.len() as u32).step_by(7).collect();
    let viol_base = coverage::violations_threads(1, &inst, &f, &sparse);
    for &t in THREAD_SWEEP {
        let (v, m) = measure(t, inst.len(), || {
            coverage::violations_threads(t, &inst, &f, &sparse)
        });
        let identical = v == viol_base;
        assert!(identical, "violations diverged at {t} threads");
        rows.push(Row {
            task: "violations",
            m,
            identical,
        });
    }

    // --- Batch multi-user digests ----------------------------------------
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xBA7C4);
    let num_users = if args.quick { 16 } else { 64 };
    let users: Vec<BatchUser> = (0..num_users)
        .map(|_| {
            let k = rng.random_range(1..=3usize);
            BatchUser {
                labels: (0..k)
                    .map(|_| rng.random_range(0..inst.num_labels() as u16))
                    .collect(),
                lambda: rng.random_range(1_000..10_000i64),
            }
        })
        .collect();
    let batch_base = solve_batch_users_threads(1, &inst, &users);
    for &t in THREAD_SWEEP {
        let (digests, m) = measure(t, inst.len() * users.len(), || {
            solve_batch_users_threads(t, &inst, &users)
        });
        let identical = digests == batch_base;
        assert!(identical, "batch multiuser diverged at {t} threads");
        rows.push(Row {
            task: "batch_multiuser",
            m,
            identical,
        });
    }

    // --- Sharded streaming (one shard per thread) ------------------------
    for (task, kind) in [
        ("sharded_stream_scan_plus", ShardEngineKind::ScanPlus),
        ("sharded_stream_greedy_plus", ShardEngineKind::GreedyPlus),
    ] {
        for &t in THREAD_SWEEP {
            let reference = run_sharded_reference(&inst, lambda_ms, tau_ms, t, kind);
            let (res, m) = measure(t, inst.len(), || {
                run_sharded_stream(&inst, lambda_ms, tau_ms, t, kind)
            });
            let identical =
                res.selected == reference.selected && res.emissions == reference.emissions;
            assert!(identical, "{task} diverged at {t} shards");
            assert!(res.max_delay <= tau_ms, "{task} broke tau at {t} shards");
            assert!(coverage::is_cover(&inst, &f, &res.selected));
            rows.push(Row { task, m, identical });
        }
    }

    // --- Report -----------------------------------------------------------
    println!(
        "{:<28} {:>7} {:>12} {:>14}",
        "task", "threads", "wall_ms", "posts/sec"
    );
    for r in &rows {
        println!(
            "{:<28} {:>7} {:>12.3} {:>14.0}",
            r.task,
            r.m.threads,
            r.m.wall_ms(),
            r.m.posts_per_sec()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"parallel_scaling\",");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"posts\": {},", inst.len());
    let _ = writeln!(json, "  \"num_labels\": {},", inst.num_labels());
    let _ = writeln!(json, "  \"lambda_ms\": {lambda_ms},");
    let _ = writeln!(json, "  \"tau_ms\": {tau_ms},");
    let _ = writeln!(json, "  \"host_cpus\": {cpus},");
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(
        json,
        "  \"profile\": \"{}\",",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    let _ = writeln!(
        json,
        "  \"note\": \"all parallel runs asserted byte-identical to the 1-thread baseline; greedy_sc is a sequential reference; speedups beyond host_cpus threads are not physically possible\","
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"task\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \"posts_per_sec\": {:.1}, \"identical_to_sequential\": {}}}",
            r.task,
            r.m.threads,
            r.m.wall_ms(),
            r.m.posts_per_sec(),
            r.identical
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_parallel.json";
    must(std::fs::write(path, &json), "write BENCH_parallel.json");
    println!("wrote {path}");
}

/// The working directory's git revision (suffixed `-dirty` when the tree
/// has uncommitted changes), or `unknown` outside a work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
