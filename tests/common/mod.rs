//! Shared fixtures for the integration-test suite: the seeded fixture
//! signals every property sweep, golden test and merge/streaming bound runs
//! over, plus the estimator fleet configured the same way everywhere.
//!
//! Integration-test binaries pull this in with `mod common;`, so every test
//! file exercises the *same* signal family instead of re-rolling its own —
//! which is what makes the committed golden outputs and error-bound constants
//! meaningful across files.

// Each test binary compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use std::net::TcpStream;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use approx_hist::{Estimator, EstimatorBuilder, HistServer, ServerConfig, Signal, StoreMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One case of the net harness: which poller backend the server runs on
/// and what load sits on it while the scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerCase {
    /// The platform poller backend (epoll on Linux), default config.
    Evented,
    /// The portable poll(2) fallback (`force_poll_backend: true`).
    Poll,
    /// The platform backend with [`BLOCKING_CASE_WORKERS`] batch workers
    /// while [`BLOCKING_CASE_PEERS`] idle peers hold connections open and
    /// never write — the blocked-connection load under which a server that
    /// pins a worker per connection stops answering anyone else.
    Blocking,
}

/// Batch workers of the [`ServerCase::Blocking`] server.
pub const BLOCKING_CASE_WORKERS: usize = 2;
/// Silent peers parked on the [`ServerCase::Blocking`] server: more than
/// its workers.
pub const BLOCKING_CASE_PEERS: usize = 4;

/// The shared server config of the net suites: everything default except
/// what the case selects.
pub fn net_config(case: ServerCase) -> ServerConfig {
    match case {
        ServerCase::Evented => ServerConfig::default(),
        ServerCase::Poll => ServerConfig { force_poll_backend: true, ..ServerConfig::default() },
        ServerCase::Blocking => {
            ServerConfig { connection_threads: BLOCKING_CASE_WORKERS, ..ServerConfig::default() }
        }
    }
}

/// A server bound for one harness case, plus the idle peers that case
/// parks on it for the server's whole life. Derefs to the [`HistServer`].
pub struct CaseServer {
    server: HistServer,
    _idle_peers: Vec<TcpStream>,
}

impl Deref for CaseServer {
    type Target = HistServer;

    fn deref(&self) -> &HistServer {
        &self.server
    }
}

impl DerefMut for CaseServer {
    fn deref_mut(&mut self) -> &mut HistServer {
        &mut self.server
    }
}

/// Binds an ephemeral loopback server over `map` with `config` (normally
/// built from [`net_config`]) and opens the case's idle peers against it.
pub fn bind_server(map: Arc<StoreMap>, config: ServerConfig, case: ServerCase) -> CaseServer {
    let server = HistServer::bind("127.0.0.1:0", map, config).expect("ephemeral bind");
    let peers = if case == ServerCase::Blocking { BLOCKING_CASE_PEERS } else { 0 };
    let idle_peers = (0..peers)
        .map(|_| TcpStream::connect(server.local_addr()).expect("idle peer connects"))
        .collect();
    CaseServer { server, _idle_peers: idle_peers }
}

/// Binds an ephemeral loopback server over `map` for the given case.
pub fn spawn_server(map: Arc<StoreMap>, case: ServerCase) -> CaseServer {
    bind_server(map, net_config(case), case)
}

/// Expands `fn $name(case: ServerCase)` into `$name::evented`, `$name::poll`
/// and `$name::blocking` test cases (see [`ServerCase`]) — the harness every
/// net suite runs its whole body through.
#[macro_export]
macro_rules! for_each_server_mode {
    ($($name:ident),+ $(,)?) => {
        $(
            mod $name {
                #[test]
                fn evented() {
                    super::$name($crate::common::ServerCase::Evented);
                }
                #[test]
                fn poll() {
                    super::$name($crate::common::ServerCase::Poll);
                }
                #[test]
                fn blocking() {
                    super::$name($crate::common::ServerCase::Blocking);
                }
            }
        )+
    };
}

/// The shared piece budget of the fixture suite.
pub const FIXTURE_K: usize = 5;

/// Serializes the saturating stress harnesses inside one test binary: each
/// spawns a dozen busy threads, and running two at once on a small machine
/// starves the writers of their deadline-bound progress quotas. (Each test
/// binary compiles its own copy of this gate; binaries themselves already
/// run sequentially under `cargo test`.)
static STRESS_GATE: Mutex<()> = Mutex::new(());

/// Claims the stress gate, surviving a poisoning panic in an earlier holder.
pub fn stress_gate() -> MutexGuard<'static, ()> {
    STRESS_GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Deterministic noise values in `[-amplitude, amplitude]`, seeded.
pub fn seeded_noise(seed: u64, n: usize, amplitude: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-amplitude..=amplitude)).collect()
}

/// A plateaued step signal: `plateaus` levels over `n` values with
/// deterministic seeded jitter of the given amplitude.
pub fn noisy_steps(seed: u64, n: usize, plateaus: usize, amplitude: f64) -> Signal {
    let noise = seeded_noise(seed, n, amplitude);
    let width = n.div_ceil(plateaus).max(1);
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let level = match (i / width) % 4 {
                0 => 2.0,
                1 => 7.0,
                2 => 1.0,
                _ => 5.0,
            };
            level + noise[i]
        })
        .collect();
    Signal::from_dense(values).unwrap()
}

/// The named fixture suite: small, fully deterministic signals covering the
/// shapes the algorithms care about (steps, ramps, spikes, flats, noise).
pub fn fixture_signals() -> Vec<(&'static str, Signal)> {
    let ramp: Vec<f64> = (0..200).map(|i| 0.5 + i as f64 * 0.1).collect();
    let mut spike = vec![0.25; 128];
    spike[40] = 100.0;
    vec![
        ("steps", noisy_steps(2015, 256, 4, 0.0)),
        ("noisy-steps", noisy_steps(7, 400, 5, 0.05)),
        ("ramp", Signal::from_dense(ramp).unwrap()),
        ("spike", Signal::from_dense(spike).unwrap()),
        ("flat", Signal::from_dense(vec![3.0; 100]).unwrap()),
    ]
}

/// The builder the whole suite shares: fixture `k`, fixed seed, explicit
/// sample size so the sample learner stays fast and deterministic.
pub fn fixture_builder() -> EstimatorBuilder {
    EstimatorBuilder::new(FIXTURE_K).samples(60_000).seed(2015)
}

/// One instance of every estimator in the workspace, fixture-configured.
pub fn fixture_fleet() -> Vec<Box<dyn Estimator>> {
    approx_hist::all_estimators(fixture_builder())
}

/// Splits a signal's dense view into `parts` contiguous chunks (the last one
/// absorbs the remainder), for chunked-fitting and merge tests.
pub fn split_chunks(signal: &Signal, parts: usize) -> Vec<Signal> {
    let values = signal.dense_values();
    let chunk_len = values.len().div_ceil(parts).max(1);
    values.chunks(chunk_len).map(|c| Signal::from_slice(c).unwrap()).collect()
}
