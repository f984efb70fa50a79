//! Per-layer figures from a traced run: per-call medians of each span kind,
//! the server residual per request, and the stage-sum consistency check.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::stats::{median, nearest_rank, sorted};
use crate::trace::{self_times, Span};
use crate::wire::Op;

/// Metric name → (value, unit), in name order.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The server stages replayed per request; with the residual they make up
/// the round trip.
const SERVER_STAGES: [&str; 3] = ["net.server_decode", "serve.snapshot", "net.server_encode"];

/// Allowed distance of the stage-median sum from the round-trip median.
pub const SUM_TOLERANCE: f64 = 0.10;

/// Adds `name`, the median of `durations` divided by `scale`, and
/// `name.calls`, their count.
fn per_call(out: &mut Metrics, name: &str, unit: &'static str, scale: f64, durations: &[f64]) {
    let value = median(durations).map_or(f64::NAN, |m| m / scale);
    out.insert(name.to_string(), (value, unit));
    out.insert(format!("{name}.calls"), (durations.len() as f64, "count"));
}

/// The outcome of the stage-sum check on one op.
#[derive(Debug)]
pub struct SumCheck {
    pub op: Op,
    pub roundtrip_us: f64,
    pub stages_us: f64,
    pub residual_us: f64,
}

impl SumCheck {
    pub fn ratio(&self) -> f64 {
        self.stages_us / self.roundtrip_us
    }

    pub fn passes(&self) -> bool {
        (self.ratio() - 1.0).abs() <= SUM_TOLERANCE && self.residual_us >= 0.0
    }
}

/// One traced request: its op, round trip and replayed server stages
/// ([`SERVER_STAGES`] then the kernel), in microseconds.
#[derive(Default)]
struct Traced {
    op: Option<Op>,
    roundtrip_us: f64,
    stages_us: [f64; SERVER_STAGES.len() + 1],
}

impl Traced {
    /// The round trip's time outside the replayed stages: syscalls, the
    /// server's I/O loop, pool and executor hops.
    fn residual_us(&self) -> f64 {
        self.roundtrip_us - self.stages_us.iter().sum::<f64>()
    }
}

/// Everything a traced run recorded beside its spans.
pub struct Extras {
    /// Request plus response bytes, per traced request.
    pub bytes: Vec<f64>,
    /// Size of each saved state file.
    pub state_bytes: Vec<f64>,
    pub late_us: Vec<f64>,
    pub backlog_max: u64,
    /// Traced open-loop p50 over untraced open-loop p50.
    pub trace_overhead: f64,
}

/// Per-layer metrics plus one stage-sum check per op seen.
pub fn analyse(spans: &[Span], extras: &Extras) -> (Metrics, Vec<SumCheck>) {
    let selfs = self_times(spans);
    // Ingest calls that fitted a chunk: the ones that mint an epoch.
    let fitting: HashSet<u64> =
        spans.iter().filter(|s| s.name == "core.fit").filter_map(|s| s.parent).collect();
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut ingest, mut ingest_self) = (Vec::new(), Vec::new());
    let mut requests: HashMap<u64, Traced> = HashMap::new();
    for span in spans {
        let ns = span.duration_ns() as f64;
        by_name.entry(span.name).or_default().push(ns);
        if span.name == "pipeline.ingest" && fitting.contains(&span.id) {
            ingest.push(ns);
            ingest_self.push(selfs[&span.id] as f64);
        }
        if span.request == 0 {
            continue;
        }
        let entry = requests.entry(span.request).or_default();
        if span.name == "net.roundtrip" {
            entry.roundtrip_us = ns / 1e3;
        } else if let Some(at) = SERVER_STAGES.iter().position(|&s| s == span.name) {
            entry.stages_us[at] = ns / 1e3;
        } else if let Some(op) = Op::ALL.into_iter().find(|op| op.kernel_span() == span.name) {
            entry.op = Some(op);
            entry.stages_us[SERVER_STAGES.len()] = ns / 1e3;
        }
    }
    let durations = |name: &str| by_name.get(name).cloned().unwrap_or_default();

    let mut out = Metrics::new();
    for name in [
        "net.client_encode",
        "net.client_decode",
        "net.server_decode",
        "net.server_encode",
        "net.roundtrip",
        "persist.crc32",
    ] {
        per_call(&mut out, &format!("{name}_us"), "us", 1e3, &durations(name));
    }
    per_call(&mut out, "serve.snapshot_ns", "ns", 1.0, &durations("serve.snapshot"));
    for op in Op::ALL {
        per_call(
            &mut out,
            &format!("{}_us", op.kernel_span()),
            "us",
            1e3,
            &durations(op.kernel_span()),
        );
    }
    per_call(&mut out, "core.fit_us", "us", 1e3, &durations("core.fit"));
    per_call(&mut out, "core.merge_us", "us", 1e3, &durations("core.merge"));
    per_call(&mut out, "pipeline.ingest_us", "us", 1e3, &ingest);
    per_call(&mut out, "pipeline.ingest_nonfit_us", "us", 1e3, &ingest_self);
    per_call(&mut out, "persist.save_ms", "ms", 1e6, &durations("persist.save"));
    per_call(&mut out, "persist.state_bytes", "bytes", 1.0, &extras.state_bytes);
    per_call(&mut out, "net.bytes_per_request", "bytes", 1.0, &extras.bytes);

    let crc_ns: f64 = durations("persist.crc32").iter().sum();
    // Each request's two frames are checksummed twice each, envelope
    // (length prefix and CRC trailer: 8 bytes per frame) excluded.
    let crc_bytes: f64 = extras.bytes.iter().map(|b| 2.0 * (b - 16.0)).sum();
    out.insert("persist.crc32_mb_per_s".into(), (crc_bytes / crc_ns * 1e9 / 1e6, "MB/s"));

    // Only requests whose every stage was replayed (a known key and op).
    let complete: Vec<&Traced> = requests.values().filter(|r| r.op.is_some()).collect();
    let residuals: Vec<f64> = complete.iter().map(|r| r.residual_us()).collect();
    per_call(&mut out, "net.server_residual_us", "us", 1.0, &residuals);

    let checks: Vec<SumCheck> = Op::ALL
        .into_iter()
        .filter_map(|op| {
            let of_op: Vec<&&Traced> = complete.iter().filter(|r| r.op == Some(op)).collect();
            let column = |f: &dyn Fn(&Traced) -> f64| {
                median(&of_op.iter().map(|r| f(r)).collect::<Vec<_>>())
            };
            let residual_us = column(&Traced::residual_us)?;
            let stages: f64 = (0..=SERVER_STAGES.len())
                .map(|at| column(&|r: &Traced| r.stages_us[at]).unwrap_or(0.0))
                .sum();
            Some(SumCheck {
                op,
                roundtrip_us: column(&|r: &Traced| r.roundtrip_us)?,
                stages_us: stages + residual_us,
                residual_us,
            })
        })
        .collect();
    let late = sorted(extras.late_us.clone());
    out.insert("loadgen.late_p99_us".into(), (nearest_rank(&late, 0.99).unwrap_or(0.0), "us"));
    out.insert("loadgen.backlog_max".into(), (extras.backlog_max as f64, "count"));
    out.insert("trace_overhead".into(), (extras.trace_overhead, "ratio"));
    (out, checks)
}
