//! End-to-end and per-layer benchmark of the serve and ingest path.
//!
//! ```text
//! perfbench --workload <serve_small|serve_bulk|ingest_serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! runs again with spans recorded around the calls into each layer and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the workloads and the metric → layer → workload map.

mod host;
mod ingest;
mod inputs;
mod layers;
mod live;
mod loadgen;
mod serve;
mod stats;
mod trace;
mod wire;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use layers::{Extras, Metrics, SumCheck};
use loadgen::OpenLoopRecord;
use stats::{best_quartile, chunked_percentile, median, window_percentiles};
use trace::Span;

/// A plain run sets up at least [`MIN_SETUPS`] times and until the
/// set-ups add up to [`SETUP_SECONDS`] (at most [`MAX_SETUPS`]); `setup_s`
/// is their median. A cheap set-up is dominated by thread start-up and
/// timer ticks, so it needs more repeats for a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 64;
const SETUP_SECONDS: f64 = 1.0;

/// Open-loop requests per chunk of a tail percentile: the fewest that
/// leave ten samples beyond p99.
const TAIL_CHUNK: usize = 1000;

/// Directory (relative to the working directory) for spans and state files.
const OUT_DIR: &str = ".bench_out";

/// One invocation's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one slice of a run's measured time does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Open loop at the workload's fixed rate, untraced.
    Open,
    /// Closed-loop saturation.
    Closed,
    /// Open loop at the same rate, with spans recorded.
    Traced,
}

/// Seconds of one cycle of slices.
const CYCLE_S: f64 = 3.0;

impl Run {
    /// Where this run saves the served map.
    pub fn state_path(&self) -> PathBuf {
        Path::new(OUT_DIR).join(format!("{}-{}.map", self.workload, std::process::id()))
    }

    /// Whether the set-ups timed so far are enough; a traced run sets up
    /// once.
    pub fn enough_setups(&self, setup_s: &[f64]) -> bool {
        let n = setup_s.len();
        if self.trace {
            return n >= 1;
        }
        n >= MAX_SETUPS || (n >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_SECONDS)
    }

    /// The measured time as alternating slices, so that every metric samples
    /// the whole run rather than one stretch of it (a shared host's speed
    /// can drift by several percent over seconds). A plain run cycles
    /// `open_share` of each cycle open loop and the rest closed loop; a
    /// traced run cycles untraced and traced open loop in halves.
    pub fn slices(&self, open_share: f64) -> Vec<(Slice, f64)> {
        let cycles = (self.seconds / CYCLE_S).round().max(1.0) as usize;
        let cycle = self.seconds / cycles as f64;
        let pair = if self.trace {
            [(Slice::Open, cycle / 2.0), (Slice::Traced, cycle / 2.0)]
        } else {
            [(Slice::Open, cycle * open_share), (Slice::Closed, cycle * (1.0 - open_share))]
        };
        (0..cycles).flat_map(|_| pair).collect()
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Metrics,
    /// Printed by name and unit, but not part of the result object.
    printed: Metrics,
    checks: Vec<SumCheck>,
    spans: Vec<Span>,
}

impl Outcome {
    pub fn count_open(&mut self, record: &OpenLoopRecord) {
        self.attempted += record.latencies_us.len() as u64;
        self.failed += record.failed;
    }

    /// Records the end-to-end metrics of a plain run. Every timed figure
    /// but `setup_s` comes from windows of the run: a rate is the median of
    /// its windows, and a latency the best quartile ([`best_quartile`]) of
    /// its window medians (open-loop requests in windows of
    /// [`loadgen::WINDOW`] at `open_rate`, freshness as the workload hands
    /// it in).
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        open: &OpenLoopRecord,
        open_rate: f64,
        requests_per_s: &[f64],
        events_per_s: &[f64],
        freshness_p50s_us: &[f64],
        served_error_ratio: f64,
    ) {
        let window = (open_rate * loadgen::WINDOW.as_secs_f64()).round() as usize;
        let latency = window_percentiles(&open.latencies_us, 0.5, window);
        let tail = |q| chunked_percentile(&open.latencies_us, q, TAIL_CHUNK).unwrap_or(f64::NAN);
        let best = |values: &[f64]| best_quartile(values).unwrap_or(f64::NAN);
        let m = &mut self.metrics;
        m.insert("setup_s".into(), (median(setup_s).unwrap_or(f64::NAN), "s"));
        m.insert("latency_p50_us".into(), (best(&latency), "us"));
        self.printed.insert("latency_p90_us".into(), (tail(0.9), "us"));
        self.printed.insert("latency_p99_us".into(), (tail(0.99), "us"));
        m.insert("requests_per_s".into(), (median(requests_per_s).unwrap_or(f64::NAN), "1/s"));
        m.insert("events_per_s".into(), (median(events_per_s).unwrap_or(f64::NAN), "1/s"));
        m.insert("freshness_p50_us".into(), (best(freshness_p50s_us), "us"));
        m.insert("served_error_ratio".into(), (served_error_ratio, "ratio"));
        m.insert("peak_rss_mb".into(), (peak_rss_mb(), "MiB"));
    }

    /// Records the per-layer metrics of a traced run.
    pub fn traced(
        &mut self,
        spans: Vec<Span>,
        untraced: &OpenLoopRecord,
        traced: OpenLoopRecord,
        bytes: Vec<f64>,
        state_bytes: Vec<f64>,
    ) {
        let p50 = |r: &OpenLoopRecord| median(&r.latencies_us).unwrap_or(f64::NAN);
        let extras = Extras {
            bytes,
            state_bytes,
            trace_overhead: p50(&traced) / p50(untraced),
            late_us: traced.late_us,
            backlog_max: traced.backlog_max,
        };
        (self.metrics, self.checks) = layers::analyse(&spans, &extras);
        self.spans = spans;
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU count, compiler and commit, for every result this run writes.
fn host_header() -> String {
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpus\": {cpus}, \"rustc\": {:?}, \"git_sha\": {:?}}}",
        output("rustc", &["--version"]),
        output("git", &["rev-parse", "HEAD"]),
    )
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?.clone();
    let seed = get("--seed")?.parse().map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Run { workload, seed, seconds, trace })
}

/// Writes the spans as CSV, after the host header.
fn write_spans(run: &Run, header: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.csv", run.workload, run.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "# host {header}")?;
    writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
    for s in spans {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(out, "{},{parent},{},{},{},{}", s.id, s.request, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let header = host_header();
    println!("# host {header}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let host = host::Host::start();
    let began = std::time::Instant::now();
    let outcome = match run.workload.as_str() {
        "serve_small" => serve::run(&serve::SERVE_SMALL, &run),
        "serve_bulk" => serve::run(&serve::SERVE_BULK, &run),
        "ingest_serve" => live::run(&run),
        other => Err(format!("unknown workload {other:?}")),
    };
    let unstolen = host::unstolen(began, std::time::Instant::now());
    drop(host);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _)) = outcome.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        eprintln!("perfbench: metric {name} has no finite value");
        return ExitCode::FAILURE;
    }

    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for (name, (value, unit)) in outcome.metrics.iter().chain(&outcome.printed) {
        println!("{name} = {value} {unit}");
    }
    println!("error_rate = {error_rate} fraction ({} of {})", outcome.failed, outcome.attempted);
    println!("# host CPU time not stolen by other machines: {unstolen:.4} of the run");
    for check in &outcome.checks {
        println!(
            "stage_sum {}: stages {:.2} us + residual {:.2} us vs round trip {:.2} us: ratio {:.3} {}",
            check.op.name(),
            check.stages_us - check.residual_us,
            check.residual_us,
            check.roundtrip_us,
            check.ratio(),
            if check.passes() { "PASS" } else { "FAIL" },
        );
    }
    if run.trace {
        match write_spans(&run, &header, &outcome.spans) {
            Ok(path) => println!("# {} spans written to {}", outcome.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
