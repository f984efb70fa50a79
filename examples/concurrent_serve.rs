//! The concurrent serving layer end to end: build a synopsis in parallel
//! with `ParallelChunkedFitter`, publish it into a `SynopsisStore`, then let
//! a background refitter merge fresh chunks in while a reader answers batch
//! queries from live snapshots.
//!
//! ```text
//! cargo run --release --example concurrent_serve
//! ```

use std::sync::Arc;

use approx_hist::{Estimator, EstimatorBuilder, EstimatorKind, Interval, Signal, SynopsisStore};

fn chunk_signal(lo: usize, len: usize) -> Signal {
    let values: Vec<f64> = (lo..lo + len)
        .map(|i| ((i / 512) % 4) as f64 * 2.0 + 1.0 + 0.02 * (i % 13) as f64)
        .collect();
    Signal::from_dense(values).expect("finite signal")
}

fn main() {
    let k = 16;
    let n = 1 << 16;
    let builder = EstimatorBuilder::new(k).chunk_len(n / 64).threads(4);

    // --- Parallel construction: bit-identical to the sequential fitter.
    let signal = chunk_signal(0, n);
    let sequential = EstimatorKind::Chunked.build(builder).fit(&signal).expect("valid signal");
    let parallel =
        EstimatorKind::ParallelChunked.build(builder).fit(&signal).expect("valid signal");
    assert_eq!(parallel.model(), sequential.model(), "thread count never changes the fit");
    println!(
        "construction: {} pieces over domain {}, parallel == sequential: {}",
        parallel.num_pieces(),
        parallel.domain(),
        parallel.model() == sequential.model(),
    );

    // --- Serving: a store snapshot per reader, a background refitter merging
    //     fresh chunks in under the live readers.
    let store = Arc::new(SynopsisStore::with_initial(parallel));
    let fitter = EstimatorKind::ParallelChunked.build(builder);

    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for round in 0..4 {
                let fresh = fitter.fit(&chunk_signal((round + 1) * n, n / 4)).expect("chunk fit");
                let epoch = store.update_merge(&fresh, 2 * 16 + 1).expect("positive budget");
                println!("writer:       merged chunk {round} -> epoch {epoch}");
            }
        })
    };

    let mut served = 0usize;
    loop {
        let snapshot = store.snapshot().expect("store was seeded");
        let domain = snapshot.domain();
        let ranges: Vec<Interval> = (0..256)
            .map(|j| {
                let start = j * domain / 300;
                Interval::new(start, start + domain / 300).expect("in-domain range")
            })
            .collect();
        let masses = snapshot.mass_batch(&ranges).expect("in-domain ranges");
        let quartiles = snapshot.quantile_batch(&[0.25, 0.5, 0.75]).expect("valid ps");
        served += masses.len() + quartiles.len();
        if writer.is_finished() {
            println!(
                "readers:      served {served} queries; final epoch {} covers domain {domain}",
                snapshot.epoch(),
            );
            break;
        }
    }
    writer.join().expect("writer thread");
    let last = store.snapshot().expect("store was seeded");
    println!(
        "final:        epoch {} | domain {} | {} pieces | median {}",
        last.epoch(),
        last.domain(),
        last.num_pieces(),
        last.quantile(0.5).expect("positive mass"),
    );
}
