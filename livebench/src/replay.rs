//! The traced replay: the same plan, in one process, through each layer's
//! public functions, with a span around every call.
//!
//! The single node's request path (`answer_query`, `ingest_rows` and the
//! background `refresh_entry` in `mqd-server`) is private, so the replay
//! calls the public functions it is made of in the same order and under
//! the same locks: `parse_request`, `DurableStore` append/sync/GC,
//! `CoverCache` lookup/insert/apply_delta/install, `Store::slice`,
//! `solve_slice`, `repair_state`, `format_tsv` + `write_ok`. A refresher
//! thread drains the same bounded queue the server's does. For
//! `routed-read` the replay is the router's query path over a
//! `BackendPool` against the live backends: relay, `COVER` union with
//! `merge_rows`, or `SLICE` gather with `merge_rows` + `solve_merged`.
//!
//! Requests run at their plan deadlines. Half the requests are traced in
//! full and the rest record only their total, so one pass yields both the
//! per-layer spans and the tracing overhead. Spans stay in memory and are
//! written out as TSV when the replay ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use mqd_core::record::{decode_records, format_tsv, Record};
use mqd_load::pacer::pace;
use mqd_load::{Action, Plan};
use mqd_router::{merge_rows, solve_merged, BackendPool, Topology};
use mqd_server::format_query;
use mqd_server::protocol::{parse_request, write_ok, Request};
use mqd_store::{
    repair_state, repairable, solve_slice, validate_spec, CoverCache, Lookup, QuerySpec,
};
use mqd_wal::{DurableOptions, DurableStore};

use crate::drive::BenchClock;
use crate::report::{median, Metric};
use crate::workload::{Inputs, Workload};

/// The server's refresh queue bound.
const REFRESH_QUEUE: usize = 256;
/// Request ids: plan ops use their op index; set-up and refresh jobs are
/// numbered above these bases.
const SETUP_BASE: u64 = 1 << 40;
const REFRESH_BASE: u64 = 1 << 41;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
    /// The count recorded at this boundary: rows sliced, rows solved,
    /// bytes rendered, rows gathered, windows dropped; 1 on a fully
    /// traced root.
    count: u64,
}

/// One thread's span recorder.
struct Tracer<'c> {
    clock: &'c BenchClock,
    /// Whether child spans are recorded; roots always are.
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

type Id = Option<usize>;

impl<'c> Tracer<'c> {
    fn new(clock: &'c BenchClock) -> Self {
        Tracer {
            clock,
            on: true,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, req: u64) -> Id {
        if !self.on && !self.stack.is_empty() {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
            count: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    fn end(&mut self, id: Id, count: u64) {
        let Some(i) = id else { return };
        let now = self.clock.now_ns();
        if let Some(s) = self.spans.get_mut(i) {
            s.end_ns = now;
            s.count = count;
        }
        self.stack.pop();
    }

    fn rename(&mut self, id: Id, name: &'static str) {
        if let Some(s) = id.and_then(|i| self.spans.get_mut(i)) {
            s.name = name;
        }
    }
}

/// The single node's shared state, as in `mqd-server`.
struct Node {
    store: RwLock<DurableStore>,
    cache: Mutex<CoverCache>,
    refresh_tx: SyncSender<QuerySpec>,
}

fn poisoned<T>(_: T) -> String {
    "a replay lock was poisoned".to_string()
}

fn solve_name(spec: &QuerySpec) -> &'static str {
    use mqd_store::Algorithm::*;
    match (spec.proportional, spec.algorithm) {
        (true, _) => "solve.prop",
        (false, Scan) => "solve.scan",
        (false, ScanPlus) => "solve.scanplus",
        (false, GreedySc) => "solve.greedysc",
        (false, Opt) => "solve.opt",
    }
}

fn render(tr: &mut Tracer, req: u64, json: &str, payload: &[String]) -> Result<(), String> {
    let s = tr.begin("server.render", req);
    let mut sink = Vec::new();
    write_ok(&mut sink, json, payload).map_err(|e| e.to_string())?;
    tr.end(s, sink.len() as u64);
    Ok(())
}

fn render_rows(
    tr: &mut Tracer,
    req: u64,
    spec: &QuerySpec,
    rows: &[Record],
    tail: &str,
) -> Result<(), String> {
    let s = tr.begin("server.render", req);
    let payload: Vec<String> = rows.iter().map(format_tsv).collect();
    let json = format!(
        r#"{{"algorithm":"{}","count":{},{tail}}}"#,
        spec.algorithm.as_str(),
        rows.len()
    );
    let mut sink = Vec::new();
    write_ok(&mut sink, &json, &payload).map_err(|e| e.to_string())?;
    tr.end(s, sink.len() as u64);
    Ok(())
}

fn parse_query(tr: &mut Tracer, req: u64, line: &str) -> Result<QuerySpec, String> {
    let s = tr.begin("server.parse", req);
    let parsed = parse_request(line);
    tr.end(s, 0);
    match parsed {
        Ok(Request::Query(spec)) => Ok(spec),
        other => Err(format!("replay parsed {line:?} as {other:?}")),
    }
}

/// `answer_query` + the `QUERY` arm of `execute`.
fn query(node: &Node, tr: &mut Tracer, req: u64, line: &str) -> Result<(), String> {
    let root = tr.begin("request", req);
    let spec = parse_query(tr, req, line)?;
    validate_spec(&spec).map_err(|e| e.to_string())?;
    let (generation, looked) = {
        let store = node.store.read().map_err(poisoned)?;
        let generation = store.generation();
        let mut cache = node.cache.lock().map_err(poisoned)?;
        let s = tr.begin("cache.lookup", req);
        let looked = cache.lookup(&spec, generation);
        tr.end(s, 0);
        (generation, looked)
    };
    let (rows, generation, cached, stale) = match looked {
        Lookup::Fresh(rows) => (rows, generation, true, false),
        Lookup::Stale {
            records,
            generation: watermark,
            enqueue_refresh,
        } => {
            if enqueue_refresh && node.refresh_tx.try_send(spec.clone()).is_err() {
                node.cache
                    .lock()
                    .map_err(poisoned)?
                    .refresh_not_queued(&spec);
            }
            (records, watermark, true, true)
        }
        Lookup::Miss => {
            let (snap, slice) = {
                let store = node.store.read().map_err(poisoned)?;
                let s = tr.begin("store.slice", req);
                let slice = store.store().slice(&spec.labels, spec.from, spec.to);
                tr.end(s, slice.instance.len() as u64);
                (store.generation(), slice)
            };
            let s = tr.begin(solve_name(&spec), req);
            let rows = solve_slice(&slice, &spec).map_err(|e| e.to_string())?;
            tr.end(s, rows.len() as u64);
            let s = tr.begin("query.repair_state", req);
            let repair = repair_state(&slice, &spec);
            tr.end(s, 0);
            let s = tr.begin("cache.insert", req);
            node.cache
                .lock()
                .map_err(poisoned)?
                .insert_fresh(&spec, rows.clone(), snap, repair);
            tr.end(s, 0);
            (rows, snap, false, false)
        }
    };
    let tail = format!(r#""cached":{cached},"stale":{stale},"generation":{generation}"#);
    render_rows(tr, req, &spec, &rows, &tail)?;
    tr.end(root, u64::from(tr.on));
    Ok(())
}

/// `ingest_rows` (and `ingest_batch`'s decode) + the ingest arms of `execute`.
fn ingest(node: &Node, tr: &mut Tracer, req: u64, action: &Action) -> Result<(), String> {
    let root = tr.begin("request", req);
    let wire = action.wire_bytes();
    let nl = wire.iter().position(|&b| b == b'\n').unwrap_or(wire.len());
    let line = String::from_utf8_lossy(&wire[..nl]).into_owned();
    let s = tr.begin("server.parse", req);
    let parsed = parse_request(&line);
    tr.end(s, 0);
    let rows = match parsed {
        Ok(Request::Ingest(row)) => vec![row],
        Ok(Request::IngestBatch { bytes }) => {
            let body = wire
                .get(nl + 1..nl + 1 + bytes)
                .ok_or("short INGESTB body")?;
            let s = tr.begin("record.decode", req);
            let rows = decode_records(body).map_err(|e| e.to_string())?;
            tr.end(s, rows.len() as u64);
            rows
        }
        other => return Err(format!("replay parsed {line:?} as {other:?}")),
    };
    let (generation, to_refresh) = {
        let mut store = node.store.write().map_err(poisoned)?;
        let durable = store.is_durable();
        for row in &rows {
            let sealed_before = store.durable_stats().segments_flushed;
            let s = tr.begin(
                if durable {
                    "wal.append"
                } else {
                    "store.append"
                },
                req,
            );
            store.append(row).map_err(|e| e.to_string())?;
            if store.durable_stats().segments_flushed > sealed_before {
                tr.rename(s, "wal.seal");
            }
            tr.end(s, 1);
        }
        let s = if durable {
            tr.begin("wal.fsync", req)
        } else {
            None
        };
        store.sync().map_err(|e| e.to_string())?;
        tr.end(s, 0);
        let generation = store.generation();
        let (to_refresh, floor) = {
            let mut cache = node.cache.lock().map_err(poisoned)?;
            let s = tr.begin("cache.apply_delta", req);
            let to_refresh = cache.apply_delta(&rows, generation);
            tr.end(s, to_refresh.len() as u64);
            let floor = cache
                .live_lease()
                .map_or(i64::MAX, |(from, lambda)| from.saturating_sub(lambda));
            (to_refresh, floor)
        };
        if store.wants_gc() {
            let s = tr.begin("wal.gc", req);
            let dropped = store.run_gc(floor).map_err(|e| e.to_string())?;
            tr.end(s, dropped);
        }
        (generation, to_refresh)
    };
    for spec in to_refresh {
        if node.refresh_tx.try_send(spec.clone()).is_err() {
            node.cache
                .lock()
                .map_err(poisoned)?
                .refresh_not_queued(&spec);
        }
    }
    let json = format!(r#"{{"ingested":{},"generation":{generation}}}"#, rows.len());
    render(tr, req, &json, &[])?;
    tr.end(root, u64::from(tr.on));
    Ok(())
}

/// `refresh_entry`: snapshot the slice, solve with no lock held, install.
fn refresh(node: &Node, tr: &mut Tracer, req: u64, spec: &QuerySpec) -> Result<(), String> {
    let root = tr.begin("refresh", req);
    let (generation, slice) = {
        let store = node.store.read().map_err(poisoned)?;
        let s = tr.begin("store.slice", req);
        let slice = store.store().slice(&spec.labels, spec.from, spec.to);
        tr.end(s, slice.instance.len() as u64);
        (store.generation(), slice)
    };
    let s = tr.begin(solve_name(spec), req);
    let rows = solve_slice(&slice, spec).map_err(|e| e.to_string())?;
    tr.end(s, rows.len() as u64);
    let s = tr.begin("query.repair_state", req);
    let repair = repair_state(&slice, spec);
    tr.end(s, 0);
    let s = tr.begin("cache.install", req);
    let mut cache = node.cache.lock().map_err(poisoned)?;
    let still_stale = cache.install_refreshed(spec, rows, generation, repair);
    if still_stale && node.refresh_tx.try_send(spec.clone()).is_err() {
        cache.refresh_not_queued(spec);
    }
    drop(cache);
    tr.end(s, 0);
    tr.end(root, 1);
    Ok(())
}

fn refresher<'c>(
    node: &Node,
    rx: Receiver<QuerySpec>,
    clock: &'c BenchClock,
    stop: &AtomicBool,
) -> Result<Tracer<'c>, String> {
    let mut tr = Tracer::new(clock);
    let mut k = 0;
    loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(spec) => {
                refresh(node, &mut tr, REFRESH_BASE + k, &spec)?;
                k += 1;
            }
            Err(RecvTimeoutError::Timeout) if stop.load(Ordering::SeqCst) => return Ok(tr),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Ok(tr),
        }
    }
}

/// Whether plan request `i` is traced in full: half of them, chosen by a
/// multiplicative hash so the choice does not follow the periodic patterns
/// the spec populations are built from.
fn traced(i: usize) -> bool {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0
}

/// Runs the plan's ops at their deadlines; `f(tracer, req, action)`.
/// Half the plan requests are traced in full.
fn paced<'c>(
    plan: &Plan,
    clock: &'c BenchClock,
    mut f: impl FnMut(&mut Tracer<'c>, u64, &Action) -> Result<(), String>,
) -> Result<(Tracer<'c>, u64), String> {
    let mut tr = Tracer::new(clock);
    let start_ns = clock.now_ns();
    let base_us = start_ns / 1000;
    let deadlines: Vec<u64> = plan.ops.iter().map(|o| base_us + o.at_us).collect();
    let mut failed = None;
    pace(clock, &deadlines, |i, _| {
        if failed.is_some() {
            return;
        }
        tr.on = traced(i);
        if let Some(op) = plan.ops.get(i) {
            if let Err(e) = f(&mut tr, i as u64, &op.action) {
                failed = Some(e);
            }
        }
    });
    tr.on = true;
    match failed {
        Some(e) => Err(e),
        None => Ok((tr, start_ns)),
    }
}

fn node_op(node: &Node, tr: &mut Tracer, req: u64, action: &Action) -> Result<(), String> {
    match action {
        Action::Query(spec) => query(node, tr, req, &format_query(spec)),
        _ => ingest(node, tr, req, action),
    }
}

/// Replays a single-node workload (memory-only or durable).
fn replay_node(
    w: Workload,
    inputs: &Inputs,
    dir: &Path,
    clock: &BenchClock,
) -> Result<(Vec<Span>, u64, Vec<Metric>), String> {
    let data = dir.join("replay-data");
    let _ = std::fs::remove_dir_all(&data);
    let opts = DurableOptions {
        retain: Some(crate::RETAIN_MS),
        ..DurableOptions::default()
    };
    let store = if w.durable() {
        DurableStore::open(&data, &opts).map_err(|e| e.to_string())?
    } else {
        DurableStore::memory()
    };
    let (tx, rx) = sync_channel::<QuerySpec>(REFRESH_QUEUE);
    let node = Node {
        store: RwLock::new(store),
        cache: Mutex::new(CoverCache::new()),
        refresh_tx: tx,
    };
    let stop = AtomicBool::new(false);
    let (main, refresh_tr, start_ns) = std::thread::scope(|s| {
        let bg = s.spawn(|| refresher(&node, rx, clock, &stop));
        let run = (|| {
            // Set-up, as in the live run: preload batches, then warm-up.
            let mut setup = Tracer::new(clock);
            let mut k = SETUP_BASE;
            if let (true, Some(spec)) = (w.durable(), inputs.warm.first()) {
                query(&node, &mut setup, k, &format_query(spec))?;
                k += 1;
            }
            for chunk in inputs.preload.chunks(crate::PRELOAD_BATCH) {
                ingest(&node, &mut setup, k, &Action::IngestBatch(chunk.to_vec()))?;
                k += 1;
            }
            for spec in &inputs.warm {
                query(&node, &mut setup, k, &format_query(spec))?;
                k += 1;
            }
            let (mut tr, start_ns) =
                paced(&inputs.plan, clock, |tr, req, a| node_op(&node, tr, req, a))?;
            let mut spans = setup.spans;
            offset_parents(&mut tr.spans, spans.len());
            spans.append(&mut tr.spans);
            Ok::<_, String>((spans, start_ns))
        })();
        stop.store(true, Ordering::SeqCst);
        let bg = bg
            .join()
            .map_err(|_| "refresher panicked".to_string())
            .and_then(|r| r);
        match (run, bg) {
            (Ok((spans, start)), Ok(rt)) => Ok((spans, rt.spans, start)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    })?;
    let mut spans = main;
    let mut rspans = refresh_tr;
    offset_parents(&mut rspans, spans.len());
    spans.append(&mut rspans);

    let mut extra = Vec::new();
    if w.durable() {
        let store = node.store.into_inner().map_err(poisoned)?;
        let rows = store.store_stats().rows;
        drop(store);
        extra.push(Metric::new(
            "wal.bytes_per_row",
            crate::procs::dir_bytes(&data) as f64 / rows.max(1) as f64,
            "bytes",
            rows,
        ));
        let t0 = Instant::now();
        let reopened = DurableStore::open(&data, &opts).map_err(|e| e.to_string())?;
        let recover_us = t0.elapsed().as_nanos() as f64 / 1000.0;
        if reopened.store_stats().rows != rows {
            return Err("replay store lost rows across reopen".into());
        }
        extra.push(Metric::new("wal.recover_us", recover_us, "us", rows));
    }
    let _ = std::fs::remove_dir_all(&data);
    Ok((spans, start_ns, extra))
}

/// Replays `routed-read` through the router's query path.
fn replay_routed(
    inputs: &Inputs,
    nodes: &[String],
    clock: &BenchClock,
) -> Result<(Vec<Span>, u64, Vec<Metric>), String> {
    let topo = Topology::new(nodes.to_vec(), nodes.len() as u32).map_err(|e| e.to_string())?;
    let mut pool = BackendPool::new(&topo);
    let (mut gathered, mut returned) = (0u64, 0u64);
    let (tr, start_ns) = paced(&inputs.plan, clock, |tr, req, action| {
        let Action::Query(spec) = action else {
            return Err("routed-read plans are read-only".into());
        };
        let root = tr.begin("request", req);
        let spec = parse_query(tr, req, &format_query(spec))?;
        let owning = topo.owning_shards(&spec.labels);
        let mut ask = |tr: &mut Tracer, shard: u32, line: &str| -> Result<Vec<String>, String> {
            let s = tr.begin("router.backend", req);
            let resp = pool.shard_request(shard, line).map_err(|e| e.to_string())?;
            tr.end(s, resp.lines.len() as u64);
            if resp.is_ok() {
                Ok(resp.lines)
            } else {
                Err(format!("backend answered {}", resp.status))
            }
        };
        let rows = if owning.len() <= 1 {
            ask(
                tr,
                owning.first().copied().unwrap_or(0),
                &format_query(&spec),
            )?
        } else {
            let mut parts = Vec::with_capacity(owning.len());
            for &shard in &owning {
                let line = if repairable(&spec) {
                    let owned: Vec<String> = spec
                        .labels
                        .iter()
                        .filter(|&&l| topo.owning_shards(&[l]) == [shard])
                        .map(|l| l.to_string())
                        .collect();
                    format!("{} COVER {}", format_query(&spec), owned.join(","))
                } else {
                    let l: Vec<String> = spec.labels.iter().map(|x| x.to_string()).collect();
                    let mut line = format!("SLICE {}", l.join(","));
                    if spec.from != i64::MIN {
                        line.push_str(&format!(" FROM {}", spec.from));
                    }
                    if spec.to != i64::MAX {
                        line.push_str(&format!(" TO {}", spec.to));
                    }
                    line
                };
                parts.push(ask(tr, shard, &line)?);
            }
            let s = tr.begin("router.merge", req);
            let merged = merge_rows(&parts).map_err(|e| e.to_string())?;
            tr.end(s, merged.len() as u64);
            let rows = if repairable(&spec) {
                merged
            } else {
                let s = tr.begin("router.resolve", req);
                let solved = solve_merged(&merged, &spec).map_err(|e| e.to_string())?;
                tr.end(s, solved.len() as u64);
                solved
            };
            gathered += parts.iter().map(|p| p.len() as u64).sum::<u64>();
            returned += rows.len() as u64;
            rows
        };
        let s = tr.begin("server.render", req);
        let json = format!(
            r#"{{"algorithm":"{}","count":{},"generations":[]}}"#,
            spec.algorithm.as_str(),
            rows.len()
        );
        let mut sink = Vec::new();
        write_ok(&mut sink, &json, &rows).map_err(|e| e.to_string())?;
        tr.end(s, sink.len() as u64);
        tr.end(root, u64::from(tr.on));
        Ok(())
    })?;
    let ratio = if returned == 0 {
        Metric::absent(
            "router.gather_rows_per_row_returned",
            "ratio",
            "no multi-shard query ran",
        )
    } else {
        Metric::new(
            "router.gather_rows_per_row_returned",
            gathered as f64 / returned as f64,
            "ratio",
            returned,
        )
    };
    Ok((tr.spans, start_ns, vec![ratio]))
}

fn offset_parents(spans: &mut [Span], by: usize) {
    for s in spans {
        s.parent = s.parent.map(|p| p + by);
    }
}

/// Replays the workload and returns the per-layer metrics. `live_p50_us`
/// is the untraced live run's query median, which the traced query
/// requests' self times are set against.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    dir: &Path,
    nodes: &[String],
    live_p50_us: f64,
    dump: &Path,
) -> Result<Vec<Metric>, String> {
    let clock = BenchClock::new();
    let (spans, start_ns, mut metrics) = if w.routed() {
        replay_routed(inputs, nodes, &clock)?
    } else {
        replay_node(w, inputs, dir, &clock)?
    };
    write_spans(&spans, dump)?;
    metrics.extend(summarize(w, &inputs.plan, &spans, start_ns, live_p50_us));
    Ok(metrics)
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = Vec::with_capacity(spans.len() * 48);
    let _ = writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tcount");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.name, s.start_ns, s.end_ns, s.count
        );
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Turns spans into per-layer metrics over the timed window: plan
/// requests, and refresh jobs that started after the plan did.
fn summarize(
    w: Workload,
    plan: &Plan,
    spans: &[Span],
    start_ns: u64,
    live_p50_us: f64,
) -> Vec<Metric> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    // Self time = duration minus the children's durations (children of one
    // span never overlap: each request runs on one thread).
    let mut self_ns: Vec<u64> = spans.iter().map(dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(dur(s));
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let in_window = |i: usize| {
        let r = &spans[root_of(i)];
        r.req < SETUP_BASE || (r.req >= REFRESH_BASE && r.start_ns >= start_ns)
    };
    let is_query = |req: u64| {
        matches!(
            plan.ops.get(req as usize).map(|o| &o.action),
            Some(Action::Query(_))
        )
    };
    let mut by_name: HashMap<&str, Vec<(usize, u64)>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_window(i) {
            by_name.entry(s.name).or_default().push((i, self_ns[i]));
        }
    }
    let us = |v: &[(usize, u64)]| {
        median(
            &v.iter()
                .map(|&(_, ns)| ns as f64 / 1000.0)
                .collect::<Vec<_>>(),
        )
    };
    let mut out = Vec::new();
    let med = |out: &mut Vec<Metric>,
               metric: &'static str,
               span: &str,
               filter: &dyn Fn(usize) -> bool,
               why: &'static str| {
        let v: Vec<(usize, u64)> = by_name.get(span).map_or(Vec::new(), |v| {
            v.iter().copied().filter(|&(i, _)| filter(i)).collect()
        });
        if v.is_empty() {
            out.push(Metric::absent(metric, "us", why));
        } else {
            out.push(Metric::new(metric, us(&v), "us", v.len() as u64));
        }
    };
    let any = |_: usize| true;
    let in_query = |i: usize| is_query(spans[root_of(i)].req);
    let in_refresh = |i: usize| spans[root_of(i)].req >= REFRESH_BASE;
    let routed = "routed-read: the cache and store run inside the backends";
    let no_router = "no router on this workload";
    let no_wal = "memory-only node: no WAL";
    // Why a node-side metric is absent: the node runs in the backends on
    // routed-read, else `why`.
    let node = |why: &'static str| if w.routed() { routed } else { why };
    let wal_why = node(no_wal);
    med(
        &mut out,
        "server.parse_us",
        "server.parse",
        &any,
        "no request parsed",
    );
    med(
        &mut out,
        "server.render_us",
        "server.render",
        &in_query,
        "no query rendered",
    );
    let bytes: Vec<f64> = by_name.get("server.render").map_or(Vec::new(), |v| {
        v.iter()
            .filter(|&&(i, _)| in_query(i))
            .map(|&(i, _)| spans[i].count as f64)
            .collect()
    });
    out.push(Metric::new(
        "server.response_bytes",
        median(&bytes),
        "bytes",
        bytes.len() as u64,
    ));
    med(
        &mut out,
        "cache.lookup_us",
        "cache.lookup",
        &any,
        node("no lookup"),
    );
    med(
        &mut out,
        "cache.insert_us",
        "cache.insert",
        &any,
        node("no cache miss in the timed window"),
    );
    med(
        &mut out,
        "cache.apply_delta_us",
        "cache.apply_delta",
        &any,
        node("read-only workload"),
    );
    med(
        &mut out,
        "store.slice_us",
        "store.slice",
        &any,
        node("no slice in the timed window"),
    );
    let sum_count = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|n| by_name.get(n))
            .flat_map(|v| v.iter().map(|&(i, _)| spans[i].count))
            .sum()
    };
    let solves = [
        "solve.scan",
        "solve.scanplus",
        "solve.greedysc",
        "solve.prop",
        "solve.opt",
    ];
    let (examined, answered) = (sum_count(&["store.slice"]), sum_count(&solves));
    if answered == 0 {
        out.push(Metric::absent(
            "store.rows_examined_per_row_returned",
            "ratio",
            node("no slice in the timed window"),
        ));
    } else {
        out.push(Metric::new(
            "store.rows_examined_per_row_returned",
            examined as f64 / answered as f64,
            "ratio",
            answered,
        ));
    }
    for (metric, span) in [
        ("solve.scan_us", "solve.scan"),
        ("solve.scanplus_us", "solve.scanplus"),
        ("solve.greedysc_us", "solve.greedysc"),
        ("solve.prop_us", "solve.prop"),
    ] {
        med(
            &mut out,
            metric,
            span,
            &any,
            node("no such solve in the timed window"),
        );
    }
    let refresh_solves: Vec<(usize, u64)> = solves
        .iter()
        .filter_map(|n| by_name.get(n))
        .flat_map(|v| v.iter().copied().filter(|&(i, _)| in_refresh(i)))
        .collect();
    if refresh_solves.is_empty() {
        out.push(Metric::absent(
            "refresh.solve_us",
            "us",
            node("no refresh in the timed window"),
        ));
    } else {
        out.push(Metric::new(
            "refresh.solve_us",
            us(&refresh_solves),
            "us",
            refresh_solves.len() as u64,
        ));
    }
    med(&mut out, "wal.append_us", "wal.append", &any, wal_why);
    med(&mut out, "wal.fsync_us", "wal.fsync", &any, wal_why);
    let seals = by_name.get("wal.seal").map_or(0, Vec::len) as u64;
    let gc_spans = by_name.get("wal.gc").map_or(0, Vec::len) as u64;
    if w.durable() {
        out.push(Metric::new("wal.seal_count", seals as f64, "count", seals));
        med(
            &mut out,
            "wal.seal_us",
            "wal.seal",
            &any,
            "no window sealed in the timed window",
        );
        med(&mut out, "wal.gc_us", "wal.gc", &any, "GC did not run");
        let dropped = sum_count(&["wal.gc"]);
        out.push(Metric::new(
            "wal.gc_segments",
            dropped as f64,
            "count",
            gc_spans,
        ));
    } else {
        out.push(Metric::absent("wal.seal_count", "count", wal_why));
        out.push(Metric::absent("wal.seal_us", "us", wal_why));
        out.push(Metric::absent("wal.gc_us", "us", wal_why));
        out.push(Metric::absent("wal.gc_segments", "count", wal_why));
        out.push(Metric::absent("wal.bytes_per_row", "bytes", wal_why));
        out.push(Metric::absent("wal.recover_us", "us", wal_why));
    }
    med(
        &mut out,
        "router.backend_rtt_us",
        "router.backend",
        &any,
        no_router,
    );
    // Fan-out skew: slowest minus fastest backend round trip per
    // multi-shard request.
    let mut per_req: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(i, ns) in by_name
        .get("router.backend")
        .map_or(&[][..], |v| v.as_slice())
    {
        per_req.entry(spans[i].req).or_default().push(ns);
    }
    let skews: Vec<f64> = per_req
        .values()
        .filter(|v| v.len() > 1)
        .map(|v| (v.iter().max().unwrap_or(&0) - v.iter().min().unwrap_or(&0)) as f64 / 1000.0)
        .collect();
    if skews.is_empty() {
        out.push(Metric::absent(
            "router.fanout_skew_us",
            "us",
            if w.routed() {
                "no multi-shard query"
            } else {
                no_router
            },
        ));
    } else {
        out.push(Metric::new(
            "router.fanout_skew_us",
            median(&skews),
            "us",
            skews.len() as u64,
        ));
    }
    med(&mut out, "router.merge_us", "router.merge", &any, no_router);
    med(
        &mut out,
        "router.resolve_us",
        "router.resolve",
        &any,
        no_router,
    );
    if !w.routed() {
        out.push(Metric::absent(
            "router.gather_rows_per_row_returned",
            "ratio",
            no_router,
        ));
    }
    // Plan batches when the plan has them, else the preload's batches.
    let decode: Vec<(usize, u64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "record.decode")
        .map(|(i, _)| (i, self_ns[i]))
        .collect();
    let plan_decode: Vec<(usize, u64)> = decode
        .iter()
        .copied()
        .filter(|&(i, _)| in_window(i))
        .collect();
    let decode = if plan_decode.is_empty() {
        decode
    } else {
        plan_decode
    };
    if decode.is_empty() {
        out.push(Metric::absent(
            "record.decode_us",
            "us",
            "preloaded through the live router",
        ));
    } else {
        out.push(Metric::new(
            "record.decode_us",
            us(&decode),
            "us",
            decode.len() as u64,
        ));
    }

    // Query requests: traced totals, untraced totals, and the per-layer
    // self times of the traced requests around the median.
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| {
            spans[i].parent.is_none()
                && spans[i].name == "request"
                && spans[i].req < SETUP_BASE
                && is_query(spans[i].req)
        })
        .collect();
    let totals = |traced: u64| -> Vec<f64> {
        roots
            .iter()
            .filter(|&&i| spans[i].count == traced)
            .map(|&i| dur(&spans[i]) as f64 / 1000.0)
            .collect()
    };
    let (on, off) = (totals(1), totals(0));
    let (on_p50, off_p50) = (median(&on), median(&off));
    out.push(Metric::new(
        "trace.overhead_us",
        on_p50 - off_p50,
        "us",
        (on.len() + off.len()) as u64,
    ));
    out.push(Metric::new(
        "trace.unattributed_us",
        live_p50_us - on_p50,
        "us",
        on.len() as u64,
    ));
    println!(
        "trace: {} spans; traced query requests p50 {on_p50:.1} us (n={}), untraced {off_p50:.1} us (n={}); tracing overhead {:.1} us ({:.1} %)",
        spans.len(),
        on.len(),
        off.len(),
        on_p50 - off_p50,
        100.0 * (on_p50 - off_p50) / off_p50.max(1e-9)
    );
    decompose(spans, &self_ns, &roots, on_p50, live_p50_us);
    out
}

/// Prints the mean self time per layer over the traced query requests
/// whose total lies in the 40–60 % band, so the layers plus
/// `trace.unattributed_us` add up to the live median.
fn decompose(spans: &[Span], self_ns: &[u64], roots: &[usize], on_p50: f64, live_p50_us: f64) {
    let mut traced: Vec<(u64, usize)> = roots
        .iter()
        .filter(|&&i| spans[i].count == 1)
        .map(|&i| (spans[i].end_ns - spans[i].start_ns, i))
        .collect();
    traced.sort_unstable();
    let (lo, hi) = (
        traced.len() * 2 / 5,
        (traced.len() * 3 / 5).max(traced.len() * 2 / 5 + 1),
    );
    let band: Vec<usize> = traced
        .iter()
        .take(hi.min(traced.len()))
        .skip(lo)
        .map(|&(_, i)| i)
        .collect();
    if band.is_empty() {
        return;
    }
    let mut members: HashMap<usize, usize> = HashMap::new();
    for (k, &i) in band.iter().enumerate() {
        members.insert(i, k);
    }
    let mut sums: Vec<(&str, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut r = i;
        while let Some(p) = spans[r].parent {
            r = p;
        }
        if !members.contains_key(&r) {
            continue;
        }
        let name = if s.parent.is_none() {
            "request (self)"
        } else {
            s.name
        };
        let v = self_ns[i] as f64 / 1000.0 / band.len() as f64;
        match sums.iter_mut().find(|(n, _)| *n == name) {
            Some(e) => e.1 += v,
            None => sums.push((name, v)),
        }
    }
    let total: f64 = sums.iter().map(|(_, v)| v).sum();
    println!("decomposition of the live query p50 ({live_p50_us:.1} us), mean self time over the {} traced requests around the replay median ({on_p50:.1} us):", band.len());
    for (name, v) in &sums {
        println!("  {name:<24} {v:>10.1} us");
    }
    println!("  {:<24} {:>10.1} us", "sum of self times", total);
    println!(
        "  {:<24} {:>10.1} us",
        "unattributed (wire, connection loop, queueing)",
        live_p50_us - on_p50
    );
}
