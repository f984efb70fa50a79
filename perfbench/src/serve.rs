//! The two serving workloads, `serve_small` and `serve_bulk`.
//!
//! Set-up builds every served synopsis through the ingest path
//! (`MetricPipeline` chunk fits merged into the `StoreMap`), copies them to
//! the served keys, computes each request's expected answer from the local
//! synopsis, binds `HistServer` with `ServerConfig::default()` and warms
//! up. The run then has an open-loop phase at a fixed rate on one
//! connection and a closed-loop saturation phase on two pipelined ones.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hist_core::Synopsis;
use hist_net::{encode_request, HistServer, Request, Response, ServerConfig};
use hist_pipeline::EventSource;
use hist_serve::StoreMap;

use crate::host;
use crate::ingest::{self, Ingester, Lane};
use crate::inputs::{self, key_name, Mix, ServeShape};
use crate::loadgen::{closed_loop, open_loop, ClosedLoopRecord, OpenLoopRecord, Schedule};
use crate::stats::median;
use crate::wire::{answer_bits, decode_answer, exchange, Args, Conn, Op};
use crate::{trace, Outcome, Run, Slice};

/// One serving workload's constants.
pub struct ServeWorkload {
    pub shape: ServeShape,
    /// Piece budget of each chunk fit.
    pub k: usize,
    /// Events per chunk fit (one epoch per chunk).
    pub chunk: usize,
    /// Events per `ingest` call while building.
    pub ingest_batch: usize,
    /// Offered rate of the open-loop phase, requests per second.
    pub open_rate: f64,
    /// Requests in flight per closed-loop connection.
    pub depth: usize,
}

/// Many keys, tiny frames: per-request overhead dominates.
pub const SERVE_SMALL: ServeWorkload = ServeWorkload {
    shape: ServeShape {
        pool: 64,
        n: 4096,
        keys: 100_000,
        requests: 1 << 15,
        mix: Mix::Small { batch: 16, zipf_s: 1.1 },
    },
    k: 8,
    chunk: 1024,
    ingest_batch: 512,
    open_rate: 2_000.0,
    depth: 16,
};

/// Four large synopses, batch-4096 frames: CRC, codec and kernel dominate.
pub const SERVE_BULK: ServeWorkload = ServeWorkload {
    shape: ServeShape {
        pool: 4,
        n: 1 << 20,
        keys: 0,
        requests: 48,
        mix: Mix::Bulk { batch: 4096 },
    },
    k: 64,
    chunk: 1 << 16,
    ingest_batch: 1 << 14,
    open_rate: 200.0,
    // Two batch-4096 frames each way stay within the loopback socket
    // buffers, so lock-step pipelining cannot deadlock.
    depth: 2,
};

/// Share of each cycle run open loop: the tail percentiles need the
/// samples at these low rates.
const OPEN_SHARE: f64 = 2.0 / 3.0;

/// Closed-loop connections: at most the host's two CPUs' worth.
const CLOSED_CONNECTIONS: usize = 2;

/// The expected answer to one request: its epoch and raw answer bits.
struct Expected {
    op: Op,
    epoch: u64,
    bits: Vec<u64>,
}

fn matches(expected: &Expected, response: &Response) -> bool {
    answer_bits(response).is_some_and(|(op, epoch, bits)| {
        op == expected.op && epoch == expected.epoch && bits == expected.bits
    })
}

/// A served set-up, ready for load.
struct Served {
    map: Arc<StoreMap>,
    server: HistServer,
    sources: Vec<EventSource>,
    requests: Vec<Request>,
    expected: Vec<Expected>,
    /// The build's per-lane rates and freshness median.
    build: Build,
}

/// What building the pool's fits through the ingest path measured.
#[derive(Default)]
struct Build {
    /// Each lane's events per second of `ingest` call time, per second of
    /// CPU time the host did not steal.
    lane_rates: Vec<f64>,
    /// Each build's median freshness.
    freshness_p50s_us: Vec<f64>,
}

impl Build {
    fn absorb(&mut self, other: Build) {
        self.lane_rates.extend(other.lane_rates);
        self.freshness_p50s_us.extend(other.freshness_p50s_us);
    }
}

/// Ingests every pool stream in full into `map`, one cumulative lane each.
fn build(w: &ServeWorkload, sources: &[EventSource], map: &Arc<StoreMap>) -> Result<Build, String> {
    let lanes = sources
        .iter()
        .map(|s| Lane::cumulative(s.clone(), w.k, w.chunk))
        .collect::<hist_core::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let mut ingester = Ingester::new(Arc::clone(map), lanes, w.ingest_batch, w.k);
    let started = Instant::now();
    ingester.run_to(w.shape.n).map_err(|e| e.to_string())?;
    let unstolen = host::unstolen(started, Instant::now());
    Ok(Build {
        lane_rates: ingester.lane_rates().into_iter().map(|r| r / unstolen).collect(),
        freshness_p50s_us: median(&ingester.freshness.iter().map(|f| f.1).collect::<Vec<_>>())
            .into_iter()
            .collect(),
    })
}

fn setup(w: &ServeWorkload, seed: u64) -> Result<Served, String> {
    let inputs = inputs::serve_inputs(seed, &w.shape).map_err(|e| e.to_string())?;
    let map = Arc::new(StoreMap::new());
    let build = build(w, &inputs.sources, &map)?;
    let pool: Vec<Arc<Synopsis>> = inputs
        .sources
        .iter()
        .map(|s| map.snapshot(s.name()).map(|snap| Arc::clone(snap.synopsis())))
        .collect::<Option<_>>()
        .ok_or("a pool lane published nothing")?;
    for (i, &p) in inputs.key_pool.iter().enumerate() {
        map.publish(&key_name(&w.shape, i), pool[p as usize].as_ref().clone())
            .map_err(|e| e.to_string())?;
    }
    let expected = inputs
        .requests
        .iter()
        .map(|request| {
            let (key, args) = Args::of(request).ok_or("generated an invalid request")?;
            let snapshot = map.snapshot(key).ok_or("request for an unserved key")?;
            let bits = args.run(snapshot.synopsis()).map_err(|e| e.to_string())?;
            Ok(Expected { op: args.op(), epoch: snapshot.epoch(), bits })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let server = HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let served =
        Served { map, server, sources: inputs.sources, requests: inputs.requests, expected, build };
    // Warm up (untraced): every request once (at most 2000), answers checked.
    let traced = trace::enabled();
    trace::set_enabled(false);
    let mut conn = Conn::connect(served.server.local_addr()).map_err(|e| e.to_string())?;
    for at in 0..served.requests.len().min(2000) {
        let answer = exchange(&mut conn, 0, &served.requests[at])
            .map_err(|e| format!("warm-up request {at} failed: {e}"))?;
        if !matches(&served.expected[at], &answer.response) {
            return Err(format!(
                "warm-up request {at} was answered wrongly: {:?}",
                answer.response
            ));
        }
    }
    trace::set_enabled(traced);
    Ok(served)
}

/// One open-loop slice on `conn`; requests are numbered from `*next_id`.
/// Returns the record and, while tracing, each request's bytes.
fn open_slice(
    served: &Served,
    conn: &mut Conn,
    rate: f64,
    seconds: f64,
    next_id: &mut u64,
) -> (OpenLoopRecord, Vec<f64>) {
    let mut bytes = Vec::new();
    let first = *next_id;
    let start = Instant::now() + Duration::from_millis(1);
    let deadline = start + Duration::from_secs_f64(seconds);
    let record = open_loop(Schedule::new(start, rate), deadline, |i| {
        let id = first + i;
        let at = id as usize % served.requests.len();
        let x = exchange(conn, id, &served.requests[at]).ok()?;
        if trace::enabled() {
            bytes.push(x.bytes() as f64);
            x.replay(id, &served.map);
        }
        matches(&served.expected[at], &x.response).then_some(x.done)
    });
    *next_id += record.latencies_us.len() as u64;
    (record, bytes)
}

/// One closed-loop slice on the pipelined connections; each connection
/// walks the request list from its own cursor.
fn closed_slice(
    w: &ServeWorkload,
    served: &Served,
    conns: &[Mutex<(Conn, usize)>],
    seconds: f64,
) -> ClosedLoopRecord {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let n = served.requests.len();
    closed_loop(conns.len(), deadline, |c| {
        let mut guard = conns[c].lock().expect("connection lock poisoned");
        let (conn, cursor) = &mut *guard;
        let mut frames = Vec::new();
        let batch: Vec<usize> = (0..w.depth)
            .map(|_| {
                let at = *cursor % n;
                *cursor += conns.len();
                frames.extend(encode_request(&served.requests[at]));
                at
            })
            .collect();
        if conn.send_all(&frames).is_err() {
            return (batch.len() as u64, batch.len() as u64);
        }
        let failed = batch
            .iter()
            .filter(|&&at| {
                let answer = conn.recv().ok().and_then(|m| decode_answer(&m).ok());
                !answer.is_some_and(|r| matches(&served.expected[at], &r))
            })
            .count();
        (batch.len() as u64, failed as u64)
    })
}

pub fn run(w: &ServeWorkload, run: &Run) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut measured = Build::default();
    let mut served = None;
    trace::set_enabled(run.trace);
    while !run.enough_setups(&setup_s) {
        drop(served.take());
        let started = Instant::now();
        let mut s = setup(w, run.seed)?;
        setup_s.push(host::unstolen_seconds(started));
        measured.absorb(std::mem::take(&mut s.build));
        served = Some(s);
    }
    trace::set_enabled(false);
    let served = served.expect("at least one set-up");

    let addr = served.server.local_addr();
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let conns = (0..CLOSED_CONNECTIONS)
        .map(|c| Conn::connect(addr).map(|conn| Mutex::new((conn, c))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut outcome = Outcome::default();
    let (mut untraced, mut traced) = (OpenLoopRecord::default(), OpenLoopRecord::default());
    let mut bytes = Vec::new();
    let mut windows = Vec::new();
    let mut next_id = 1;
    for (slice, seconds) in run.slices(OPEN_SHARE) {
        match slice {
            Slice::Open => untraced
                .absorb(open_slice(&served, &mut conn, w.open_rate, seconds, &mut next_id).0),
            Slice::Traced => {
                trace::set_enabled(true);
                let (record, b) =
                    open_slice(&served, &mut conn, w.open_rate, seconds, &mut next_id);
                trace::set_enabled(false);
                traced.absorb(record);
                bytes.extend(b);
            }
            Slice::Closed => {
                let record = closed_slice(w, &served, &conns, seconds);
                outcome.attempted += record.requests;
                outcome.failed += record.failed;
                windows.extend(record.windows);
                // The ingest figures, sampled across the run too: rebuild
                // the pool's fits from the same streams into a scratch map.
                let scratch = Arc::new(StoreMap::new());
                measured.absorb(build(w, &served.sources, &scratch)?);
            }
        }
    }
    outcome.count_open(&untraced);
    outcome.count_open(&traced);
    if run.trace {
        trace::set_enabled(true);
        let state = run.state_path();
        let saved = ingest::save(&served.map, &state);
        let _ = std::fs::remove_file(&state);
        trace::set_enabled(false);
        let state_bytes = saved.map_err(|e| e.to_string())?;
        outcome.traced(trace::take(), &untraced, traced, bytes, vec![state_bytes as f64]);
        return Ok(outcome);
    }
    let lane0 = served.map.snapshot(served.sources[0].name()).ok_or("pool lane 0 is not served")?;
    let ratio = ingest::served_error_ratio(lane0.synopsis(), &served.sources[0])
        .map_err(|e| e.to_string())?;
    outcome.end_to_end(
        &setup_s,
        &untraced,
        w.open_rate,
        &windows,
        &measured.lane_rates,
        &measured.freshness_p50s_us,
        ratio,
    );
    Ok(outcome)
}
