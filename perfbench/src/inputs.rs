//! Seeded input generation. Everything a workload feeds the system (event
//! streams, key assignment, request batches) is a pure function of the
//! `--seed` argument and the workload's constants.

use hist_core::Result;
use hist_net::Request;
use hist_pipeline::EventSource;

/// SplitMix64: a small, fast, well-mixed generator; `stream` separates
/// independent sequences drawn from one seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-cdf lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        let total = acc;
        cdf.iter_mut().for_each(|c| *c /= total);
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The seed handed to `EventSource::synthetic` for stream `lane`.
/// `synthetic` takes its Zipf exponent from `seed % 5` and its mode shift
/// from `seed % 10`; pinning those to the lane keeps each stream's shape
/// (and so the cost of fitting it) the same under every `--seed`, while the
/// rest of the seed moves the heavy hitters.
fn lane_seed(seed: u64, stream: u64, lane: usize) -> u64 {
    Rng::new(seed, stream + lane as u64).next_u64() / 10 * 10 + lane as u64 % 10
}

/// The event streams and query traffic of one serving workload.
pub struct ServeInputs {
    /// One synthetic stream per pool synopsis, `n` events each.
    pub sources: Vec<EventSource>,
    /// For each served key, the pool synopsis it is a copy of (empty when
    /// the pool keys are served directly).
    pub key_pool: Vec<u32>,
    /// The request stream, cycled by the load generators.
    pub requests: Vec<Request>,
}

/// The request kinds a serving workload mixes.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Thirds: batch-1 quantile, batch-`batch` cdf, batch-`batch` mass,
    /// chosen at random; keys Zipf-skewed.
    Small { batch: usize, zipf_s: f64 },
    /// Equal thirds of batch-`batch` quantile, cdf and mass in turn; keys
    /// uniform.
    Bulk { batch: usize },
}

/// Shape of a serving workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub pool: usize,
    pub n: usize,
    pub keys: usize,
    pub requests: usize,
    pub mix: Mix,
}

/// The served key names: pool keys when served directly, else copies.
pub fn key_name(shape: &ServeShape, i: usize) -> String {
    if shape.keys == 0 {
        format!("pool/{i:02}")
    } else {
        format!("key/{i:06}")
    }
}

pub fn serve_inputs(seed: u64, shape: &ServeShape) -> Result<ServeInputs> {
    let sources = (0..shape.pool)
        .map(|i| {
            let name = format!("pool/{i:02}");
            EventSource::synthetic(name, lane_seed(seed, 1, i), shape.n)
        })
        .collect::<Result<Vec<_>>>()?;
    let mut rng = Rng::new(seed, 0x5E4E);
    let key_pool = (0..shape.keys).map(|_| rng.below(shape.pool as u64) as u32).collect();
    let served = if shape.keys == 0 { shape.pool } else { shape.keys };
    let n = shape.n as u64;
    let cdf_points = |rng: &mut Rng, batch: usize| (0..batch).map(|_| rng.below(n)).collect();
    let ranges = |rng: &mut Rng, batch: usize| {
        (0..batch)
            .map(|_| {
                let (a, b) = (rng.below(n), rng.below(n));
                (a.min(b), a.max(b))
            })
            .collect()
    };
    let requests = match shape.mix {
        Mix::Small { batch, zipf_s } => {
            let zipf = Zipf::new(served, zipf_s);
            (0..shape.requests)
                .map(|_| {
                    let key = key_name(shape, zipf.sample(&mut rng));
                    match rng.below(3) {
                        0 => Request::QuantileBatch { key, ps: vec![rng.unit()] },
                        1 => Request::CdfBatch { key, xs: cdf_points(&mut rng, batch) },
                        _ => Request::MassBatch { key, ranges: ranges(&mut rng, batch) },
                    }
                })
                .collect()
        }
        Mix::Bulk { batch } => (0..shape.requests)
            .map(|i| {
                let key = key_name(shape, rng.below(served as u64) as usize);
                match i % 3 {
                    0 => {
                        Request::QuantileBatch { key, ps: (0..batch).map(|_| rng.unit()).collect() }
                    }
                    1 => Request::CdfBatch { key, xs: cdf_points(&mut rng, batch) },
                    _ => Request::MassBatch { key, ranges: ranges(&mut rng, batch) },
                }
            })
            .collect(),
    };
    Ok(ServeInputs { sources, key_pool, requests })
}

/// The ingest workload's lane streams: `lanes` synthetic sources cycling
/// blocks of `block_len` events.
pub fn ingest_sources(seed: u64, lanes: usize, block_len: usize) -> Result<Vec<EventSource>> {
    (0..lanes)
        .map(|i| {
            let name = format!("lane/{i}");
            EventSource::synthetic(name, lane_seed(seed, 0x1A9E, i), block_len)
        })
        .collect()
}

/// Every generated byte, in a fixed order: what the determinism self-test
/// compares.
#[cfg(test)]
pub fn fingerprint(inputs: &ServeInputs, lanes: &[EventSource]) -> Vec<u8> {
    let mut out = Vec::new();
    for source in inputs.sources.iter().chain(lanes) {
        out.extend(
            source.prefix(source.block_len()).iter().flat_map(|v| v.to_bits().to_le_bytes()),
        );
    }
    out.extend(inputs.key_pool.iter().flat_map(|p| p.to_le_bytes()));
    for request in &inputs.requests {
        out.extend(hist_net::encode_request(request));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(mix: Mix) -> ServeShape {
        ServeShape { pool: 4, n: 512, keys: 100, requests: 200, mix }
    }

    fn all_inputs(seed: u64) -> Vec<u8> {
        let small = serve_inputs(seed, &shape(Mix::Small { batch: 16, zipf_s: 1.1 })).unwrap();
        let bulk =
            serve_inputs(seed, &ServeShape { keys: 0, ..shape(Mix::Bulk { batch: 64 }) }).unwrap();
        let lanes = ingest_sources(seed, 4, 256).unwrap();
        let mut bytes = fingerprint(&small, &lanes);
        bytes.extend(fingerprint(&bulk, &[]));
        bytes
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let a = all_inputs(11);
        assert!(a.len() > 10_000);
        assert_eq!(a, all_inputs(11));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let (a, b) = (all_inputs(11), all_inputs(12));
        assert_ne!(a, b);
        // Not just a shifted tail: most of the first kilobyte differs.
        let differing = a.iter().zip(&b).take(1024).filter(|(x, y)| x != y).count();
        assert!(differing > 512, "{differing}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(3, 0);
        let mut counts = [0usize; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[0] > 20_000 / 10, "{}", counts[0]);
        assert!(counts.iter().skip(500).sum::<usize>() > 0);
    }
}
