//! Seeded loopback benchmark for the network serving layer, written as JSON
//! to `BENCH_net.json` at the workspace root (override with
//! `HIST_BENCH_NET_OUT`). Set `HIST_BENCH_NET_FAST=1` for a seconds-long
//! smoke run (CI) with shrunken request counts and connection fleets.
//!
//! Three sweeps share one seeded workload generator:
//!
//! * **Batch sweep** — one `HistServer` on an ephemeral loopback port serves
//!   an `n = 2^16` seeded step synopsis at the default key; one blocking
//!   `HistClient` issues quantile and mass batches of size 1, 64 and 4096.
//!   For each (op, batch size) the bin reports requests/s, queries/s and
//!   p50/p99 request latency — the round-trip cost of the wire (framing,
//!   CRC, syscalls) amortized over growing batches.
//! * **Keyed sweep** — store maps of 1, 1 000 and 100 000 keys, each key
//!   serving a small seeded synopsis; the client retargets a seeded random
//!   key before every request. The spread across key counts isolates the
//!   cost of the keyed lookup path (shard hash + HashMap probe + key section
//!   on the wire) from the query itself.
//! * **Connection sweep** — fleets of 1, 64 and 1024 concurrent pipelined
//!   connections against BOTH poller backends of the event loop (the
//!   platform's epoll and the forced portable poll(2) fallback). Every
//!   connection ships 32 batch-1 quantile requests per write and drains 32
//!   in-order responses, so the sweep measures aggregate request throughput
//!   when per-request syscalls are amortized away. Latency columns report
//!   amortized per-request time inside a pipelined wave.
//!
//! Every row names the poller backend it ran on: the batch and keyed sweeps
//! use the default (platform) backend.
//!
//! A correctness gate cross-checks every batch against the local synopsis
//! bit for bit before timing starts.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use approx_hist::net::{encode_request, read_message, Request, Response, DEFAULT_MAX_FRAME_BYTES};
use approx_hist::{
    Estimator, EstimatorBuilder, GreedyMerging, HistClient, HistServer, Interval, ServerConfig,
    Signal, StoreMap, Synopsis, DEFAULT_KEY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1 << 16;
const K: usize = 32;
const SEED: u64 = 2015;
const BATCH_SIZES: [usize; 3] = [1, 64, 4096];
const KEY_COUNTS: [usize; 3] = [1, 1_000, 100_000];
/// Batch size of every keyed-sweep request (small: the lookup is the point).
const KEYED_BATCH: usize = 16;
/// Connection-fleet sizes of the connection sweep.
const CONN_COUNTS: [usize; 3] = [1, 64, 1024];
/// Requests per write syscall in the connection sweep.
const PIPELINE_DEPTH: usize = 32;
/// Driver threads multiplexing the connection fleet.
const CONN_SWEEP_THREADS: usize = 8;
/// The poller backends the connection sweep compares, by row label and
/// `ServerConfig::force_poll_backend` value. The platform backend is epoll
/// on Linux.
const BACKENDS: [(&str, bool); 2] = [("epoll", false), ("poll", true)];

/// Smoke mode: shrink every sweep to seconds for CI.
fn fast_mode() -> bool {
    std::env::var("HIST_BENCH_NET_FAST").is_ok()
}

/// Requests per (op, batch size) measurement, scaled down for big batches.
fn requests_for(batch: usize) -> usize {
    let full = match batch {
        0..=1 => 2_000,
        2..=64 => 1_000,
        _ => 150,
    };
    if fast_mode() {
        (full / 10).max(30)
    } else {
        full
    }
}

/// Pipelined rounds per connection in the connection sweep: bigger fleets
/// carry proportionally fewer rounds so every leg moves a similar volume.
fn rounds_for(conns: usize) -> usize {
    if fast_mode() {
        if conns == 1 {
            100
        } else {
            20
        }
    } else {
        match conns {
            1 => 3_000,
            2..=64 => 150,
            _ => 32,
        }
    }
}

fn seeded_synopsis() -> Synopsis {
    let mut rng = StdRng::seed_from_u64(SEED);
    let values: Vec<f64> = (0..N)
        .map(|i| ((i / (N / 32)) % 4) as f64 * 3.0 + 1.0 + rng.gen_range(0.0..0.25))
        .collect();
    GreedyMerging::new(EstimatorBuilder::new(K))
        .fit(&Signal::from_dense(values).expect("finite signal"))
        .expect("valid fit")
}

/// A small per-key synopsis for the keyed sweep (cloned across keys: the
/// sweep measures the lookup path, not per-key fit variety).
fn keyed_synopsis() -> Synopsis {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5EED);
    let values: Vec<f64> =
        (0..1024).map(|i| ((i / 128) % 3) as f64 + 1.0 + rng.gen_range(0.0..0.5)).collect();
    GreedyMerging::new(EstimatorBuilder::new(8))
        .fit(&Signal::from_dense(values).expect("finite signal"))
        .expect("valid fit")
}

/// Latency percentiles over a sorted sample, by nearest-rank.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct Measurement {
    op: String,
    backend: &'static str,
    conns: usize,
    keys: usize,
    batch: usize,
    requests: usize,
    requests_per_s: f64,
    queries_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

fn measure(
    op: &str,
    keys: usize,
    batch: usize,
    requests: usize,
    mut round_trip: impl FnMut() -> usize,
) -> Measurement {
    // Warm-up: fill caches, establish the steady state.
    for _ in 0..requests / 10 + 1 {
        round_trip();
    }
    let mut latencies = Vec::with_capacity(requests);
    let started = Instant::now();
    let mut answered = 0usize;
    for _ in 0..requests {
        let t0 = Instant::now();
        answered += round_trip();
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(answered, requests * batch, "{op}/{batch}: short answers");
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let m = Measurement {
        op: op.to_string(),
        backend: BACKENDS[0].0,
        conns: 1,
        keys,
        batch,
        requests,
        requests_per_s: requests as f64 / elapsed,
        queries_per_s: (requests * batch) as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    };
    println!(
        "{op:>14} keys {keys:>6} batch {batch:>4}: {:>9.0} req/s {:>11.0} q/s | p50 {:>7.1}us p99 {:>7.1}us",
        m.requests_per_s, m.queries_per_s, m.p50_us, m.p99_us
    );
    m
}

/// The original single-store sweep: growing batches at the default key.
fn batch_sweep(results: &mut Vec<Measurement>) {
    let synopsis = seeded_synopsis();
    let map = Arc::new(StoreMap::with_initial(synopsis.clone()));
    let server = HistServer::bind("127.0.0.1:0", map, ServerConfig::default())
        .expect("ephemeral loopback bind");
    let mut client = HistClient::connect(server.local_addr()).expect("connect");
    println!(
        "serve_net: n = {N}, k = {K}, {} pieces, addr {}",
        synopsis.num_pieces(),
        server.local_addr()
    );

    // Seeded query workloads, one pool per batch size.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x0E7);
    for batch in BATCH_SIZES {
        let ps: Vec<f64> = (0..batch).map(|_| rng.gen_range(0.0..=1.0)).collect();
        let ranges: Vec<Interval> = (0..batch)
            .map(|_| {
                let mut ends = [rng.gen_range(0..N), rng.gen_range(0..N)];
                ends.sort_unstable();
                Interval::new(ends[0], ends[1]).expect("ordered ends")
            })
            .collect();

        // Correctness gate: the wire answers must equal the local ones bit
        // for bit before the timing means anything.
        let remote = client.quantile_batch(&ps).expect("quantile batch");
        assert_eq!(remote.value, synopsis.quantile_batch(&ps).expect("local"), "quantile gate");
        let remote = client.mass_batch(&ranges).expect("mass batch");
        let local = synopsis.mass_batch(&ranges).expect("local");
        assert_eq!(
            remote.value.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            local.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "mass gate"
        );

        let requests = requests_for(batch);
        results.push(measure("quantile", 1, batch, requests, || {
            client.quantile_batch(&ps).expect("quantile batch").value.len()
        }));
        results.push(measure("mass", 1, batch, requests, || {
            client.mass_batch(&ranges).expect("mass batch").value.len()
        }));
    }
}

/// The keyed sweep: fixed small batches against maps of growing key counts,
/// retargeting a seeded random key before every request.
fn keyed_sweep(results: &mut Vec<Measurement>) {
    let synopsis = keyed_synopsis();
    let ps: Vec<f64> = {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xF00D);
        (0..KEYED_BATCH).map(|_| rng.gen_range(0.0..=1.0)).collect()
    };
    let local = synopsis.quantile_batch(&ps).expect("local keyed quantiles");

    for keys in KEY_COUNTS {
        if fast_mode() && keys > 1_000 {
            continue;
        }
        // Populate in-process: the sweep measures serving, not ingest.
        let map = Arc::new(StoreMap::new());
        for i in 0..keys {
            map.publish(&format!("tenant/{i:06}"), synopsis.clone()).expect("publish");
        }
        let server = HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default())
            .expect("ephemeral loopback bind");
        let mut client = HistClient::connect(server.local_addr()).expect("connect");

        // Correctness gate on a sampled key.
        client.set_key(&format!("tenant/{:06}", keys / 2)).expect("valid key");
        assert_eq!(client.quantile_batch(&ps).expect("keyed gate").value, local, "keyed gate");

        let mut rng = StdRng::seed_from_u64(SEED ^ keys as u64);
        let requests = if fast_mode() { 100 } else { 1_000 };
        results.push(measure("keyed_quantile", keys, KEYED_BATCH, requests, || {
            let key = format!("tenant/{:06}", rng.gen_range(0..keys));
            client.set_key(&key).expect("valid key");
            client.quantile_batch(&ps).expect("keyed quantile batch").value.len()
        }));
    }
}

/// Connects with retries: a 1024-connection burst can overflow the accept
/// backlog, and the bench should ride out dropped SYNs instead of dying.
fn connect_retrying(addr: SocketAddr) -> TcpStream {
    let mut tries = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("socket read timeout");
                let _ = stream.set_nodelay(true);
                return stream;
            }
            Err(_) if tries < 50 => {
                tries += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("conn-sweep connect failed: {e}"),
        }
    }
}

/// The connection sweep: pipelined fleets of growing size against both
/// poller backends. Every connection writes `PIPELINE_DEPTH` identical batch-1
/// quantile requests in one syscall and drains the (fixed-size, in-order)
/// responses; driver threads multiplex the fleet in waves so up to
/// `conns * PIPELINE_DEPTH` requests are in flight at once.
fn conn_sweep(results: &mut Vec<Measurement>) {
    let synopsis = seeded_synopsis();
    let conn_counts: Vec<usize> = if fast_mode() { vec![1, 8] } else { CONN_COUNTS.to_vec() };

    let p = StdRng::seed_from_u64(SEED ^ 0xC0).gen_range(0.0..=1.0);
    let expected = synopsis.quantile(p).expect("local quantile") as u64;
    let request = encode_request(&Request::QuantileBatch { key: DEFAULT_KEY.into(), ps: vec![p] });
    let wire: Vec<u8> =
        std::iter::repeat_with(|| request.clone()).take(PIPELINE_DEPTH).flatten().collect();

    for (backend, force_poll_backend) in BACKENDS {
        for &conns in &conn_counts {
            let map = Arc::new(StoreMap::with_initial(synopsis.clone()));
            // A small batch-worker pool: on a 2-core box more workers just
            // thrash it.
            let config = ServerConfig {
                force_poll_backend,
                connection_threads: 2,
                ..ServerConfig::default()
            };
            let server =
                HistServer::bind("127.0.0.1:0", map, config).expect("ephemeral loopback bind");
            let addr = server.local_addr();

            // Correctness gate + frame-size probe: one fully decoded
            // pipelined round. Identical requests yield identical-length
            // responses, so the timed loop can drain by exact byte count.
            let mut response_len = 0usize;
            let mut probe = connect_retrying(addr);
            probe.write_all(&wire).expect("probe pipeline");
            for _ in 0..PIPELINE_DEPTH {
                let frame = read_message(&mut probe, DEFAULT_MAX_FRAME_BYTES)
                    .expect("probe read")
                    .expect("probe response");
                let mut message = (frame.len() as u32).to_le_bytes().to_vec();
                message.extend_from_slice(&frame);
                match approx_hist::net::decode_response(&message).expect("probe decode") {
                    Response::QuantileBatch { indices, .. } => {
                        assert_eq!(indices, vec![expected], "conn-sweep correctness gate")
                    }
                    other => panic!("conn-sweep gate: unexpected {other:?}"),
                }
                response_len = 4 + frame.len();
            }
            drop(probe);

            let threads = conns.min(CONN_SWEEP_THREADS);
            let rounds = rounds_for(conns);
            let barrier = Barrier::new(threads + 1);
            let total_requests = conns * rounds * PIPELINE_DEPTH;
            let mut latencies: Vec<f64> = Vec::with_capacity(threads * rounds);
            let mut elapsed = 0.0f64;

            std::thread::scope(|scope| {
                let barrier = &barrier;
                let wire = &wire;
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let my_conns = conns / threads + usize::from(t < conns % threads);
                            let mut sockets: Vec<TcpStream> =
                                (0..my_conns).map(|_| connect_retrying(addr)).collect();
                            let mut buf = vec![0u8; response_len * PIPELINE_DEPTH];
                            // Untimed warm-up waves: grow every buffer on
                            // both sides to its steady-state capacity before
                            // the clock starts.
                            for _ in 0..2 {
                                for socket in &mut sockets {
                                    socket.write_all(wire).expect("warmup write");
                                }
                                for socket in &mut sockets {
                                    socket.read_exact(&mut buf).expect("warmup drain");
                                }
                            }
                            barrier.wait();
                            // One wave per round: write every pipeline, then
                            // drain every connection in order. Latency is
                            // amortized per request inside the wave.
                            let mut wave_latencies = Vec::with_capacity(rounds);
                            for _ in 0..rounds {
                                let t0 = Instant::now();
                                for socket in &mut sockets {
                                    socket.write_all(wire).expect("pipeline write");
                                }
                                for socket in &mut sockets {
                                    socket.read_exact(&mut buf).expect("pipeline drain");
                                }
                                let per_request = t0.elapsed().as_secs_f64() * 1e6
                                    / (my_conns * PIPELINE_DEPTH) as f64;
                                wave_latencies.push(per_request);
                                // Cheap integrity check: the first frame in
                                // the wave still has the probed length.
                                let announced =
                                    u32::from_le_bytes(buf[0..4].try_into().expect("prefix"));
                                assert_eq!(announced as usize, response_len - 4, "frame drift");
                            }
                            wave_latencies
                        })
                    })
                    .collect();
                barrier.wait();
                let t0 = Instant::now();
                for handle in handles {
                    latencies.extend(handle.join().expect("driver thread"));
                }
                elapsed = t0.elapsed().as_secs_f64();
            });

            latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let m = Measurement {
                op: "pipelined_quantile".to_string(),
                backend,
                conns,
                keys: 1,
                batch: 1,
                requests: total_requests,
                requests_per_s: total_requests as f64 / elapsed,
                queries_per_s: total_requests as f64 / elapsed,
                p50_us: percentile(&latencies, 0.50),
                p99_us: percentile(&latencies, 0.99),
            };
            println!(
                "{:>14} {:>9} conns {:>5}: {:>9.0} req/s | amortized p50 {:>7.2}us p99 {:>7.2}us",
                m.op, m.backend, m.conns, m.requests_per_s, m.p50_us, m.p99_us
            );
            results.push(m);
        }
    }
}

fn main() {
    let mut results = Vec::new();
    batch_sweep(&mut results);
    keyed_sweep(&mut results);
    conn_sweep(&mut results);

    // The headline ratio: aggregate pipelined throughput at the largest
    // fleet over the classic one-connection synchronous baseline measured
    // in the same run, both on the platform backend.
    let baseline =
        results.iter().find(|m| m.op == "quantile" && m.batch == 1).map(|m| m.requests_per_s);
    let peak = results
        .iter()
        .filter(|m| m.op == "pipelined_quantile" && m.backend == BACKENDS[0].0)
        .max_by_key(|m| m.conns)
        .map(|m| (m.conns, m.requests_per_s));
    if let (Some(baseline), Some((conns, peak))) = (baseline, peak) {
        println!(
            "{conns}-conn aggregate vs 1-conn sync baseline: {:.1}x ({:.0} vs {:.0} req/s)",
            peak / baseline,
            peak,
            baseline
        );
    }

    let entries: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                r#"    {{
      "op": "{}",
      "backend": "{}",
      "conns": {},
      "keys": {},
      "batch": {},
      "requests": {},
      "requests_per_s": {:.1},
      "queries_per_s": {:.1},
      "p50_latency_us": {:.2},
      "p99_latency_us": {:.2}
    }}"#,
                m.op,
                m.backend,
                m.conns,
                m.keys,
                m.batch,
                m.requests,
                m.requests_per_s,
                m.queries_per_s,
                m.p50_us,
                m.p99_us
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "serve_net",
  "n": {N},
  "k": {K},
  "seed": {SEED},
  "transport": "tcp loopback, one event-loop server; batch/keyed sweeps: one synchronous connection on the platform poller backend (epoll); conn sweep: pipelined fleets on both poller backends (epoll, forced poll(2))",
  "batch_sizes": [1, 64, 4096],
  "key_counts": [1, 1000, 100000],
  "conn_counts": [1, 64, 1024],
  "pipeline_depth": {PIPELINE_DEPTH},
  "measurements": [
{}
  ]
}}
"#,
        entries.join(",\n")
    );

    let path = std::env::var("HIST_BENCH_NET_OUT").unwrap_or_else(|_| "BENCH_net.json".into());
    let mut file = std::fs::File::create(&path).expect("writable output path");
    file.write_all(json.as_bytes()).expect("write BENCH_net.json");
    println!("json written to {path}");
}
