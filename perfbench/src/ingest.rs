//! The ingest side: metric lanes feeding the served `StoreMap` through
//! `MetricPipeline`, with a traced estimator wrapper around the paper's fit.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Result, Signal, Synopsis};
use hist_pipeline::{EventSource, MetricPipeline};
use hist_serve::{Snapshot, StoreMap};

use crate::trace;

/// `GreedyMerging::fit` behind a `core.fit` span. While tracing it also
/// keeps the last chunk it fitted, so the merge that chunk feeds can be
/// replayed.
pub struct TracedFit {
    inner: GreedyMerging,
    last: Arc<Mutex<Option<Synopsis>>>,
}

impl Estimator for TracedFit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let fitted = {
            let _span = trace::span("core.fit", 0);
            self.inner.fit(signal)
        };
        if trace::enabled() {
            *self.last.lock().expect("fit recorder poisoned") = fitted.as_ref().ok().cloned();
        }
        fitted
    }
}

/// The estimator every lane fits chunks with.
pub fn estimator(k: usize) -> GreedyMerging {
    GreedyMerging::new(EstimatorBuilder::new(k))
}

/// One metric: its event stream and its pipeline lane.
pub struct Lane {
    pub source: EventSource,
    pub pipeline: MetricPipeline,
    cumulative: bool,
    last_chunk: Arc<Mutex<Option<Synopsis>>>,
}

impl Lane {
    fn traced_fit(k: usize) -> (Box<TracedFit>, Arc<Mutex<Option<Synopsis>>>) {
        let last = Arc::new(Mutex::new(None));
        (Box::new(TracedFit { inner: estimator(k), last: Arc::clone(&last) }), last)
    }

    /// A cumulative lane: chunk fits merged into the store, one epoch each.
    pub fn cumulative(source: EventSource, k: usize, chunk: usize) -> Result<Self> {
        let (fit, last_chunk) = Self::traced_fit(k);
        let pipeline = MetricPipeline::cumulative(source.name(), fit, k, chunk)?;
        Ok(Self { source, pipeline, cumulative: true, last_chunk })
    }

    /// A windowed lane: the last `buckets` buckets, re-published per bucket.
    pub fn windowed(source: EventSource, k: usize, bucket: usize, buckets: usize) -> Result<Self> {
        let (fit, last_chunk) = Self::traced_fit(k);
        let pipeline = MetricPipeline::windowed(source.name(), fit, k, bucket, buckets)?;
        Ok(Self { source, pipeline, cumulative: false, last_chunk })
    }
}

/// Drives lanes round-robin on the calling thread, one batch per lane per
/// step, and records how fresh each publish is.
pub struct Ingester {
    pub map: Arc<StoreMap>,
    pub lanes: Vec<Lane>,
    batch: usize,
    merge_budget: usize,
    buf: Vec<f64>,
    /// Seconds each lane has spent in `ingest` calls.
    busy_s: Vec<f64>,
    /// Epochs minted so far, over all lanes.
    pub publishes: u64,
    /// For each `ingest` call that completed a chunk: when it started, and
    /// the microseconds until its epoch was visible in `StoreMap::epoch`.
    pub freshness: Vec<(Instant, f64)>,
}

impl Ingester {
    pub fn new(map: Arc<StoreMap>, lanes: Vec<Lane>, batch: usize, k: usize) -> Self {
        let busy_s = vec![0.0; lanes.len()];
        Self {
            map,
            lanes,
            batch,
            merge_budget: hist_stream::merge_budget(k),
            buf: Vec::with_capacity(batch),
            busy_s,
            publishes: 0,
            freshness: Vec::new(),
        }
    }

    /// One batch into every lane.
    pub fn step(&mut self) -> Result<()> {
        for (lane, busy_s) in self.lanes.iter_mut().zip(&mut self.busy_s) {
            lane.source.next_batch(self.batch, &mut self.buf);
            let key = lane.source.name();
            let before =
                if trace::enabled() && lane.cumulative { self.map.snapshot(key) } else { None };
            let started = Instant::now();
            let minted = {
                let _span = trace::span("pipeline.ingest", 0);
                lane.pipeline.ingest(&self.map, &self.buf)?
            };
            if minted > 0 {
                while self.map.epoch(key) < lane.pipeline.last_epoch() {
                    std::hint::spin_loop();
                }
                self.freshness.push((started, started.elapsed().as_secs_f64() * 1e6));
            }
            *busy_s += started.elapsed().as_secs_f64();
            if minted > 0 {
                self.publishes += minted;
                if let Some(before) = before {
                    replay_merge(&before, &lane.last_chunk, self.merge_budget);
                }
            }
        }
        Ok(())
    }

    /// Each lane's events per second of time spent in `ingest` calls.
    pub fn lane_rates(&self) -> Vec<f64> {
        self.lanes.iter().zip(&self.busy_s).map(|(l, s)| l.pipeline.consumed() as f64 / s).collect()
    }

    /// Steps until every lane has consumed `events` events (a multiple of
    /// the batch).
    pub fn run_to(&mut self, events: usize) -> Result<()> {
        while self.lanes.iter().any(|lane| lane.pipeline.consumed() < events) {
            self.step()?;
        }
        Ok(())
    }
}

/// `StoreMap::save` behind a `persist.save` span; returns the file size.
pub fn save(map: &StoreMap, path: &Path) -> std::io::Result<u64> {
    {
        let _span = trace::span("persist.save", 0);
        map.save(path).map_err(std::io::Error::other)?;
    }
    Ok(std::fs::metadata(path)?.len())
}

/// Replays the store's merge of the chunk just fitted into the snapshot
/// served before it, as a `core.merge` span.
fn replay_merge(before: &Snapshot, last_chunk: &Mutex<Option<Synopsis>>, budget: usize) {
    let chunk = last_chunk.lock().expect("fit recorder poisoned").take();
    if let Some(chunk) = chunk {
        let _span = trace::span("core.merge", 0);
        drop(std::hint::black_box(before.synopsis().merge(&chunk, budget)));
    }
}

/// The served synopsis's L2 error against the exact prefix it summarises,
/// divided by that of a direct fit of the prefix with the same piece count.
pub fn served_error_ratio(served: &Synopsis, source: &EventSource) -> Result<f64> {
    let signal = Signal::from_dense(source.prefix(served.domain()))?;
    // The merging estimator returns 2k + 3 pieces for budget k.
    let direct = estimator(served.num_pieces().saturating_sub(3).max(2) / 2).fit(&signal)?;
    Ok(served.l2_error(&signal)? / direct.l2_error(&signal)?.max(f64::MIN_POSITIVE))
}
