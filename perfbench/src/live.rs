//! The `ingest_serve` workload: one thread ingests four metric lanes into
//! the served `StoreMap` as fast as it can, saving the map every
//! [`SAVE_EVERY`] publishes, while one wire reader asks for p50/p99/p999
//! of the lane keys — first open-loop at a fixed rate, then closed-loop.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hist_core::Synopsis;
use hist_net::{encode_request, HistServer, Request, Response, ServerConfig};
use hist_serve::StoreMap;

use crate::host;
use crate::ingest::{self, Ingester, Lane};
use crate::inputs;
use crate::loadgen::{closed_loop, open_loop, ClosedLoopRecord, OpenLoopRecord, Schedule, WINDOW};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::wire::{decode_answer, exchange, Conn, Op};
use crate::{Outcome, Run, Slice};

const LANES: usize = 4;
const K: usize = 12;
const CHUNK: usize = 1024;
/// Events per `ingest` call: every fourth call completes a chunk.
const BATCH: usize = 256;
const BLOCK_LEN: usize = 1 << 16;
const WINDOW_BUCKETS: usize = 8;
const SAVE_EVERY: u64 = 512;
const READ_RATE: f64 = 1_000.0;
const READ_DEPTH: usize = 8;
const PS: [f64; 3] = [0.5, 0.99, 0.999];
/// Lane 0's served synopsis is compared with a direct fit when exactly
/// this many events have been ingested on it.
const ERROR_AT: usize = 1 << 16;
/// The merge bound the served error must keep: at most `C` times the
/// direct fit's error at the same piece count.
const MERGE_BOUND_C: f64 = 3.0;
/// Share of each cycle the reader runs open loop; the closed-loop reads
/// vary widely from window to window while ingest runs, so they get half.
const OPEN_SHARE: f64 = 0.5;

struct Live {
    ingester: Ingester,
    server: HistServer,
    keys: Vec<String>,
}

/// What the reader needs: where to connect, and the map and keys it reads
/// (the map only for the traced replays).
struct ReadSide {
    addr: SocketAddr,
    map: Arc<StoreMap>,
    keys: Vec<String>,
}

fn setup(seed: u64) -> Result<Live, String> {
    let sources = inputs::ingest_sources(seed, LANES, BLOCK_LEN).map_err(|e| e.to_string())?;
    let keys: Vec<String> = sources.iter().map(|s| s.name().to_string()).collect();
    let lanes = sources
        .into_iter()
        .enumerate()
        .map(|(i, source)| {
            if i + 1 < LANES {
                Lane::cumulative(source, K, CHUNK)
            } else {
                Lane::windowed(source, K, CHUNK, WINDOW_BUCKETS)
            }
        })
        .collect::<hist_core::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let map = Arc::new(StoreMap::new());
    let mut ingester = Ingester::new(Arc::clone(&map), lanes, BATCH, K);
    // Every key serves an epoch before the reader starts.
    ingester.run_to(CHUNK).map_err(|e| e.to_string())?;
    let server =
        HistServer::bind("127.0.0.1:0", map, ServerConfig::default()).map_err(|e| e.to_string())?;
    let side = ReadSide { addr: server.local_addr(), map: Arc::clone(&ingester.map), keys };
    // Warm up (untraced): 200 checked reads.
    let traced = trace::enabled();
    trace::set_enabled(false);
    let mut conn = Conn::connect(side.addr).map_err(|e| e.to_string())?;
    let mut reader = Reader::default();
    for i in 0..200 {
        if reader.ask(&mut conn, &side, 0, i).is_none() {
            return Err("warm-up read was answered wrongly".into());
        }
    }
    trace::set_enabled(traced);
    Ok(Live { ingester, server, keys: side.keys })
}

/// The reader's one request kind: p50, p99 and p999 of `key`.
fn read_request(key: &str) -> Request {
    Request::QuantileBatch { key: key.to_string(), ps: PS.to_vec() }
}

/// The reader's check state: answers must be monotone in p and each key's
/// epochs non-decreasing.
#[derive(Default)]
struct Reader {
    last_epoch: HashMap<String, u64>,
    bytes: Vec<f64>,
}

impl Reader {
    fn check(&mut self, key: &str, response: &Response) -> bool {
        let Response::QuantileBatch { epoch, indices } = response else { return false };
        let last = self.last_epoch.entry(key.to_string()).or_insert(0);
        let ok = *epoch >= (*last).max(1)
            && indices.len() == PS.len()
            && indices.windows(2).all(|w| w[0] <= w[1]);
        *last = (*last).max(*epoch);
        ok
    }

    /// One checked read of request `i`, traced as request `id`: when it
    /// completed, or `None` if it failed or was answered wrongly.
    fn ask(&mut self, conn: &mut Conn, side: &ReadSide, id: u64, i: u64) -> Option<Instant> {
        let key = &side.keys[i as usize % side.keys.len()];
        let request = read_request(key);
        let x = exchange(conn, id, &request).ok()?;
        if trace::enabled() {
            self.bytes.push(x.bytes() as f64);
            x.replay(id, &side.map);
            probe_other_kernels(&side.map, key, &x.response);
        }
        self.check(key, &x.response).then_some(x.done)
    }
}

/// The reader only asks quantiles; so every layer figure exists on this
/// workload too, time the cdf and mass kernels off the request path on the
/// same snapshot, at the answered indices.
fn probe_other_kernels(map: &StoreMap, key: &str, response: &Response) {
    let Response::QuantileBatch { indices, .. } = response else { return };
    let Some(snapshot) = map.snapshot(key) else { return };
    let synopsis: &Synopsis = snapshot.synopsis();
    let xs: Vec<usize> = indices.iter().map(|&i| (i as usize).min(synopsis.domain() - 1)).collect();
    let ranges: Vec<hist_core::Interval> =
        xs.iter().filter_map(|&x| hist_core::Interval::new(0, x).ok()).collect();
    {
        let _span = trace::span(Op::Cdf.kernel_span(), 0);
        drop(std::hint::black_box(synopsis.cdf_batch(&xs)));
    }
    let _span = trace::span(Op::Mass.kernel_span(), 0);
    drop(std::hint::black_box(synopsis.mass_batch(&ranges)));
}

/// Marks no open-loop window in [`ingest_loop`]'s window counter.
const NO_SLICE: usize = usize::MAX;

/// What the ingest thread reports.
struct Ingested {
    /// Events ingested during each untraced open-loop window.
    slice_events: Vec<u64>,
    /// Median freshness (µs) of the chunks completed during each of those
    /// windows; only the current window's samples are kept, so the
    /// benchmark's own memory does not grow with the ingest rate.
    freshness_p50s_us: Vec<f64>,
    /// Lane 0's served synopsis at [`ERROR_AT`] events.
    at_error_point: Option<Arc<Synopsis>>,
    state_bytes: Vec<f64>,
    spans: Vec<Span>,
}

/// Ingests until `stop`, saving the map every [`SAVE_EVERY`] publishes.
/// `open_slice` holds the index of the untraced open-loop window the
/// reader is in (or [`NO_SLICE`]); each step's events and freshness are
/// counted against it, so the ingest figures are taken while reads run at their
/// fixed rate.
fn ingest_loop(
    ing: &mut Ingester,
    run: &Run,
    stop: &AtomicBool,
    open_slice: &AtomicUsize,
) -> Result<Ingested, String> {
    let path = run.state_path();
    let lane0 = ing.lanes[0].source.name().to_string();
    let step_events = (ing.lanes.len() * BATCH) as u64;
    let mut slice_events: Vec<u64> = Vec::new();
    let mut freshness_p50s_us = Vec::new();
    let mut fresh_us: Vec<f64> = Vec::new();
    let mut current = NO_SLICE;
    let mut saved_at = ing.publishes;
    let mut state_bytes = Vec::new();
    let mut at_error_point = None;
    ing.freshness.clear();
    while !stop.load(Ordering::SeqCst) {
        ing.step().map_err(|e| e.to_string())?;
        if ing.lanes[0].pipeline.consumed() == ERROR_AT {
            at_error_point = ing.map.snapshot(&lane0).map(|s| Arc::clone(s.synopsis()));
        }
        if ing.publishes - saved_at >= SAVE_EVERY {
            saved_at = ing.publishes;
            let traced = trace::enabled();
            let bytes = ingest::save(&ing.map, &path).map_err(|e| e.to_string())?;
            if traced {
                state_bytes.push(bytes as f64);
            }
        }
        let slice = open_slice.load(Ordering::SeqCst);
        if slice != current {
            freshness_p50s_us.extend(median(&fresh_us));
            fresh_us.clear();
            current = slice;
        }
        if slice == NO_SLICE {
            ing.freshness.clear();
        } else {
            if slice >= slice_events.len() {
                slice_events.resize(slice + 1, 0);
            }
            slice_events[slice] += step_events;
            fresh_us.extend(ing.freshness.drain(..).map(|f| f.1));
        }
    }
    freshness_p50s_us.extend(median(&fresh_us));
    let _ = std::fs::remove_file(&path);
    Ok(Ingested {
        slice_events,
        freshness_p50s_us,
        at_error_point,
        state_bytes,
        spans: trace::take(),
    })
}

/// One open-loop reader slice on `conn`; requests are numbered from
/// `*next_id`. Returns the record and, while tracing, each request's bytes.
fn read_open(
    side: &ReadSide,
    conn: &mut Conn,
    reader: &mut Reader,
    seconds: f64,
    next_id: &mut u64,
) -> (OpenLoopRecord, Vec<f64>) {
    let first = *next_id;
    reader.bytes.clear();
    let start = Instant::now() + Duration::from_millis(1);
    let deadline = start + Duration::from_secs_f64(seconds);
    let record = open_loop(Schedule::new(start, READ_RATE), deadline, |i| {
        reader.ask(conn, side, first + i, first + i)
    });
    *next_id += record.latencies_us.len() as u64;
    (record, std::mem::take(&mut reader.bytes))
}

/// One closed-loop reader slice on one pipelined connection.
fn read_closed(
    side: &ReadSide,
    state: &Mutex<(Conn, Reader, u64)>,
    seconds: f64,
) -> ClosedLoopRecord {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    closed_loop(1, deadline, |_| {
        let mut guard = state.lock().expect("reader lock poisoned");
        let (conn, reader, next) = &mut *guard;
        let mut frames = Vec::new();
        let keys: Vec<&str> = (0..READ_DEPTH)
            .map(|_| {
                let key = &side.keys[*next as usize % side.keys.len()];
                *next += 1;
                frames.extend(encode_request(&read_request(key)));
                key.as_str()
            })
            .collect();
        if conn.send_all(&frames).is_err() {
            return (READ_DEPTH as u64, READ_DEPTH as u64);
        }
        let failed = keys
            .iter()
            .filter(|key| {
                let answer = conn.recv().ok().and_then(|m| decode_answer(&m).ok());
                !answer.is_some_and(|r| reader.check(key, &r))
            })
            .count();
        (READ_DEPTH as u64, failed as u64)
    })
}

/// The reader's side of a run, slice by slice.
#[derive(Default)]
struct Reads {
    untraced: OpenLoopRecord,
    traced: OpenLoopRecord,
    traced_bytes: Vec<f64>,
    closed_windows: Vec<f64>,
    closed_requests: u64,
    closed_failed: u64,
    /// When each untraced open-loop window began and ended.
    open_spans: Vec<(Instant, Instant)>,
}

fn read_slices(side: &ReadSide, run: &Run, open_slice: &AtomicUsize) -> Result<Reads, String> {
    let mut conn = Conn::connect(side.addr).map_err(|e| e.to_string())?;
    let mut reader = Reader::default();
    let closed =
        Mutex::new((Conn::connect(side.addr).map_err(|e| e.to_string())?, Reader::default(), 0u64));
    let mut reads = Reads::default();
    let mut next_id = 1;
    for (slice, seconds) in run.slices(OPEN_SHARE) {
        match slice {
            // Read in windows, so that the ingest figures come per window.
            Slice::Open => {
                let windows = (seconds / WINDOW.as_secs_f64()).round().max(1.0);
                for _ in 0..windows as usize {
                    let began = Instant::now();
                    open_slice.store(reads.open_spans.len(), Ordering::SeqCst);
                    let (record, _) =
                        read_open(side, &mut conn, &mut reader, seconds / windows, &mut next_id);
                    open_slice.store(NO_SLICE, Ordering::SeqCst);
                    reads.untraced.absorb(record);
                    reads.open_spans.push((began, Instant::now()));
                }
            }
            Slice::Traced => {
                trace::set_enabled(true);
                let (record, bytes) =
                    read_open(side, &mut conn, &mut reader, seconds, &mut next_id);
                trace::set_enabled(false);
                reads.traced.absorb(record);
                reads.traced_bytes.extend(bytes);
            }
            Slice::Closed => {
                let record = read_closed(side, &closed, seconds);
                reads.closed_windows.extend(record.windows);
                reads.closed_requests += record.requests;
                reads.closed_failed += record.failed;
            }
        }
    }
    Ok(reads)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    trace::set_enabled(run.trace);
    while !run.enough_setups(&setup_s) {
        drop(live.take());
        let started = Instant::now();
        live = Some(setup(run.seed)?);
        setup_s.push(host::unstolen_seconds(started));
    }
    trace::set_enabled(false);
    let Live { mut ingester, server, keys } = live.expect("at least one set-up");
    let side = ReadSide { addr: server.local_addr(), map: Arc::clone(&ingester.map), keys };
    let stop = AtomicBool::new(false);
    let open_slice = AtomicUsize::new(NO_SLICE);
    let (ingested, reads) = thread::scope(|scope| {
        let ingest = scope.spawn(|| ingest_loop(&mut ingester, run, &stop, &open_slice));
        let reads = read_slices(&side, run, &open_slice);
        stop.store(true, Ordering::SeqCst);
        (ingest.join().expect("ingest thread panicked"), reads)
    });
    drop(server);
    let (mut ingested, reads) = (ingested?, reads?);

    let mut outcome = Outcome::default();
    outcome.count_open(&reads.untraced);
    outcome.count_open(&reads.traced);
    if run.trace {
        let mut spans = trace::take();
        spans.append(&mut ingested.spans);
        outcome.traced(
            spans,
            &reads.untraced,
            reads.traced,
            reads.traced_bytes,
            ingested.state_bytes,
        );
        return Ok(outcome);
    }
    outcome.attempted += reads.closed_requests + 1;
    outcome.failed += reads.closed_failed;
    let ratio = match &ingested.at_error_point {
        Some(served) => ingest::served_error_ratio(served, &ingester.lanes[0].source)
            .map_err(|e| e.to_string())?,
        None => return Err(format!("lane 0 never reached {ERROR_AT} events")),
    };
    if ratio.is_nan() || ratio > MERGE_BOUND_C {
        eprintln!("served_error_ratio {ratio} breaks the C = {MERGE_BOUND_C} merge bound");
        outcome.failed += 1;
    }
    // One ingest rate per open-loop window, per second of unstolen CPU time.
    let events_per_s: Vec<f64> = reads
        .open_spans
        .iter()
        .zip(&ingested.slice_events)
        .map(|(&(began, ended), &events)| {
            events as f64 / (ended - began).as_secs_f64() / host::unstolen(began, ended)
        })
        .collect();
    outcome.end_to_end(
        &setup_s,
        &reads.untraced,
        READ_RATE,
        &reads.closed_windows,
        &events_per_s,
        &ingested.freshness_p50s_us,
        ratio,
    );
    Ok(outcome)
}
