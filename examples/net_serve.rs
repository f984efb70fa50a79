//! The network serving layer end to end: spawn a server on an ephemeral
//! loopback port, publish a fitted synopsis over the wire, query it, ship a
//! merge-update, and watch the epoch advance — all through `HistClient`.
//!
//! ```text
//! cargo run --release --example net_serve
//! ```

use std::sync::Arc;

use approx_hist::{
    Estimator, EstimatorBuilder, EstimatorKind, GreedyMerging, HistClient, HistServer, Interval,
    ServerConfig, Signal, StoreMap, DEFAULT_KEY,
};

fn signal(lo: usize, n: usize) -> Signal {
    let values: Vec<f64> =
        (lo..lo + n).map(|i| ((i / 256) % 4) as f64 * 3.0 + 1.0 + 0.05 * (i % 7) as f64).collect();
    Signal::from_dense(values).expect("finite signal")
}

fn main() {
    let k = 12;
    let n = 1 << 14;

    // --- Spawn: an empty keyed store map behind an ephemeral loopback port.
    //     One readiness loop multiplexes every connection; request batches
    //     run on `connection_threads` pool workers.
    let map = Arc::new(StoreMap::new());
    let server = HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default())
        .expect("ephemeral loopback bind");
    println!("server:    listening on {}", server.local_addr());

    // --- Publish: fit locally, ship the synopsis over the wire.
    let fitted = EstimatorKind::Merging
        .build(EstimatorBuilder::new(k))
        .fit(&signal(0, n))
        .expect("valid signal");
    let mut client = HistClient::connect(server.local_addr()).expect("connect");
    let epoch = client.publish(&fitted).expect("publish");
    println!(
        "publish:   {} pieces over domain {} -> epoch {epoch}",
        fitted.num_pieces(),
        fitted.domain()
    );

    // --- Query: batch answers come back stamped with the snapshot epoch and
    //     bit-identical to the local synopsis.
    let quartiles = client.quantile_batch(&[0.25, 0.5, 0.75]).expect("quantiles");
    assert_eq!(quartiles.value[1], fitted.quantile(0.5).expect("local median"));
    println!("query:     quartiles {:?} at epoch {}", quartiles.value, quartiles.epoch);
    let range = Interval::new(0, n / 2).expect("in-domain");
    let masses = client.mass_batch(&[range]).expect("mass");
    assert_eq!(masses.value[0].to_bits(), fitted.mass(range).expect("local mass").to_bits());
    println!(
        "query:     mass[0, n/2] = {:.1} (bit-identical to the local answer)",
        masses.value[0]
    );

    // --- Merge-update: a background refit ships the adjacent chunk; the
    //     epoch advances and the served domain grows under live queries.
    let chunk =
        GreedyMerging::new(EstimatorBuilder::new(k)).fit(&signal(n, n / 4)).expect("chunk fit");
    let next = client.update_merge(&chunk, 2 * k + 1).expect("merge-update");
    assert_eq!(next, epoch + 1, "every update bumps the epoch exactly once");
    let stats = client.stats().expect("stats");
    println!(
        "update:    merged {} more values -> epoch {} (was {epoch}), domain {}, {} pieces",
        n / 4,
        stats.epoch,
        stats.synopsis.as_ref().expect("published").domain,
        stats.synopsis.as_ref().expect("published").pieces,
    );

    // --- The owning process shares the same store map: the wire updates
    //     are visible locally, epoch included. (This keyless client lives at
    //     the default key; `examples/multi_tenant.rs` shows many keys.)
    assert_eq!(map.epoch(DEFAULT_KEY), stats.epoch);
    println!("store:     in-process view agrees: epoch {}", map.epoch(DEFAULT_KEY));
    drop(client);
    // Graceful shutdown on drop: accept loop and handlers join here.
}
