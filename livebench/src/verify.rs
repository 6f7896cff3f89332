//! Answer verification against an offline rebuild.
//!
//! A served answer is exact at the generation stamped on it (stale answers
//! at their watermark). Generation `preload + k` is the preload plus the
//! plan's first `k` ingested rows, so the verifier rebuilds a plain
//! `mqd_store::Store` in generation order and byte-compares each sampled
//! payload with `run_query` at that generation.

use std::collections::HashSet;

use mqd_core::record::{format_tsv, Record};
use mqd_load::{Action, Plan};
use mqd_store::{run_query, QuerySpec, Store};

use crate::drive::{payload_hash, QueryObs};

/// Queries checked per run (all of them when the plan has fewer).
pub const SAMPLE: usize = 300;

/// The plan's query op indices to check: an evenly strided, seed-offset
/// subset, fixed before the run.
pub fn sample(plan: &Plan) -> HashSet<usize> {
    let queries: Vec<usize> = plan
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o.action, Action::Query(_)))
        .map(|(i, _)| i)
        .collect();
    let stride = queries.len().div_ceil(SAMPLE).max(1);
    let offset = (plan.seed as usize) % stride;
    queries.into_iter().skip(offset).step_by(stride).collect()
}

/// The canonical answer hash of `spec` on `store`.
pub fn answer_hash(store: &Store, spec: &QuerySpec) -> Result<u64, String> {
    let rows = run_query(store, spec).map_err(|e| e.to_string())?;
    let lines: Vec<String> = rows.iter().map(format_tsv).collect();
    Ok(payload_hash(lines.iter().map(|l| l.as_bytes())))
}

/// Outcome of checking the sampled answers.
pub struct Verdict {
    pub checked: u64,
    pub wrong: u64,
}

/// Checks every observed query whose op is in `chosen`. Router answers
/// carry no single generation; `routed_gen` gives the generation they must
/// match (the read-only preload).
pub fn check(
    plan: &Plan,
    preload: &[Record],
    ingest_rows: &[Record],
    observed: &[QueryObs],
    chosen: &HashSet<usize>,
    routed_gen: Option<u64>,
) -> Result<Verdict, String> {
    let mut todo: Vec<(u64, &QueryObs)> = observed
        .iter()
        .filter(|q| chosen.contains(&q.op))
        .map(|q| (q.generation.or(routed_gen).unwrap_or(u64::MAX), q))
        .collect();
    todo.sort_by_key(|(g, q)| (*g, q.op));
    let mut store = Store::new();
    store
        .append_batch(preload.iter().cloned())
        .map_err(|e| e.to_string())?;
    let mut next = ingest_rows.iter();
    let mut verdict = Verdict {
        checked: 0,
        wrong: 0,
    };
    for (generation, q) in todo {
        while store.generation() < generation {
            let Some(row) = next.next() else { break };
            store.append(row.clone()).map_err(|e| e.to_string())?;
        }
        let Some(Action::Query(spec)) = plan.ops.get(q.op).map(|o| &o.action) else {
            return Err(format!("op {} is not a query", q.op));
        };
        verdict.checked += 1;
        let ok = store.generation() == generation && answer_hash(&store, spec)? == q.hash;
        if !ok {
            if verdict.wrong < 3 {
                eprintln!(
                    "livebench: wrong answer for op {} ({}) at generation {generation}",
                    q.op,
                    mqd_server::format_query(spec)
                );
            }
            verdict.wrong += 1;
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Workload};

    /// Serves every sampled query of a hot-read plan from an offline
    /// replica, as a correct server would, stamped at the right generation.
    fn honest(inputs: &crate::workload::Inputs, chosen: &HashSet<usize>) -> Vec<QueryObs> {
        let mut store = Store::new();
        store.append_batch(inputs.preload.iter().cloned()).unwrap();
        let mut rows = inputs.ingest_rows.iter();
        let mut out = Vec::new();
        for (i, op) in inputs.plan.ops.iter().enumerate() {
            match &op.action {
                Action::Query(spec) if chosen.contains(&i) => out.push(QueryObs {
                    op: i,
                    latency_ns: 1,
                    hash: answer_hash(&store, spec).unwrap(),
                    generation: Some(store.generation()),
                    cached: false,
                    stale: false,
                }),
                Action::Query(_) => {}
                Action::Ingest(_) | Action::IngestBatch(_) | Action::Ping => {
                    let n = match &op.action {
                        Action::IngestBatch(b) => b.len(),
                        _ => 1,
                    };
                    for _ in 0..n {
                        store.append(rows.next().unwrap().clone()).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn honest_answers_pass_and_a_flipped_payload_byte_fails() {
        let inputs = build(Workload::HotRead, 7, 1, 400.0);
        let chosen = sample(&inputs.plan);
        let mut observed = honest(&inputs, &chosen);
        assert!(observed
            .iter()
            .any(|q| q.generation > Some(inputs.preload.len() as u64)));
        let ok = check(
            &inputs.plan,
            &inputs.preload,
            &inputs.ingest_rows,
            &observed,
            &chosen,
            None,
        )
        .unwrap();
        assert_eq!((ok.checked, ok.wrong), (observed.len() as u64, 0));

        // The same corruption the live self-test applies: one byte of the
        // first payload line.
        let Action::Query(spec) = &inputs.plan.ops[observed[0].op].action else {
            unreachable!()
        };
        let mut store = Store::new();
        store.append_batch(inputs.preload.iter().cloned()).unwrap();
        let mut lines: Vec<Vec<u8>> = run_query(&store, spec)
            .unwrap()
            .iter()
            .map(|r| format_tsv(r).into_bytes())
            .collect();
        lines[0][0] ^= 1;
        observed[0].hash = payload_hash(lines.iter().map(Vec::as_slice));
        let bad = check(
            &inputs.plan,
            &inputs.preload,
            &inputs.ingest_rows,
            &observed,
            &chosen,
            None,
        )
        .unwrap();
        assert_eq!(bad.wrong, 1);
    }

    #[test]
    fn a_wrong_generation_stamp_fails() {
        let inputs = build(Workload::HotRead, 3, 1, 400.0);
        let chosen = sample(&inputs.plan);
        let mut observed = honest(&inputs, &chosen);
        let last = observed.len() - 1;
        observed[last].generation =
            Some(inputs.preload.len() as u64 + inputs.ingest_rows.len() as u64 + 1);
        let v = check(
            &inputs.plan,
            &inputs.preload,
            &inputs.ingest_rows,
            &observed,
            &chosen,
            None,
        )
        .unwrap();
        assert_eq!(v.wrong, 1);
    }
}
