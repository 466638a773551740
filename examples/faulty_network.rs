//! Faulty network: run HH-P1 over a simulated lossy wire and certify
//! the bound anyway.
//!
//! The same fanout-4 tree deployment runs twice through the inline
//! execution engine: once over the perfect [`ChannelTransport`] (the
//! default message plane) and once over a seeded [`SimNet`] that drops
//! 5% and duplicates 2% of upward messages per link. The network
//! totals the stream mass its faults affected (`FaultStats`), and the
//! ε·W guarantee — restated with that measured mass — still holds on
//! every tracked item.
//!
//! Run with: `cargo run --release --example faulty_network`

use cma::data::WeightedZipfStream;
use cma::protocols::hh::{p1, HhConfig, HhEstimator};
use cma::sketch::ExactWeightedCounter;
use cma::stream::runner::engine::{self, Executor, ThreadedConfig};
use cma::stream::{ChannelTransport, FaultPlan, LinkFaults, SimNet, Topology, Transport};

fn main() {
    let m = 16;
    let epsilon = 0.05;
    let n = 60_000;
    let topo = Topology::Tree { fanout: 4 };
    let cfg = HhConfig::new(m, epsilon).with_seed(9);
    let tcfg = ThreadedConfig {
        batch_size: 64,
        channel_capacity: 4,
        plane: Default::default(),
    };

    let stream = WeightedZipfStream::new(5_000, 2.0, 100.0, 17).take_vec(n);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    let w_total = exact.total_weight();

    // Round-robin partition: site i observes arrivals i, i+m, i+2m, …
    let inputs: Vec<Vec<(u64, f64)>> = (0..m)
        .map(|sid| stream.iter().skip(sid).step_by(m).cloned().collect())
        .collect();

    let run = |net: &dyn Transport| {
        let (sites, coord, _) = p1::deploy_topology(&cfg, topo).into_parts();
        engine::run_partitioned_topology_parts_on(
            sites,
            coord,
            inputs.clone(),
            &tcfg,
            Executor::Inline,
            topo,
            p1::make_aggregator(&cfg, topo),
            net,
        )
    };

    // Reference run over perfect channels.
    let clean = run(&ChannelTransport);
    println!(
        "perfect wire : {} up-messages, {} B up, {} B down",
        clean.stats.up_msgs, clean.stats.bytes_up, clean.stats.bytes_down
    );

    // The same deployment over a lossy wire: 5% drop + 2% duplicate on
    // every upward link, deterministically seeded — rerunning this
    // example reproduces the identical fault sequence.
    let net = SimNet::new(FaultPlan::up_only(
        42,
        LinkFaults {
            drop: 0.05,
            duplicate: 0.02,
            ..LinkFaults::default()
        },
    ));
    let faulty = run(&net);
    let faults = net.stats();
    println!(
        "faulty wire  : {} delivered, {} dropped ({:.0} mass), {} duplicated ({:.0} mass)",
        faults.delivered,
        faults.dropped,
        faults.dropped_mass,
        faults.duplicated,
        faults.duplicated_mass
    );

    // The certified bound under faults: dropped mass is indistinguishable
    // from mass a site is still withholding (undercount side); duplicated
    // mass can only inflate estimates (overcount side).
    let under = epsilon * w_total + faults.undercount_mass();
    let over = faults.overcount_mass();
    let mut worst = 0.0f64;
    for &e in &faulty.coordinator.tracked_items() {
        let est = faulty.coordinator.estimate(e);
        let truth = exact.frequency(e);
        assert!(est - truth <= over + 1e-6, "overcount on item {e}");
        assert!(truth - est <= under + 1e-6, "undercount on item {e}");
        worst = worst.max((est - truth).abs());
    }
    println!("guarantee    : every estimate within [−(εW + dropped), +duplicated] of truth ✓");
    println!(
        "               εW = {:.0}, worst observed |error| = {worst:.0}",
        epsilon * w_total
    );
}
