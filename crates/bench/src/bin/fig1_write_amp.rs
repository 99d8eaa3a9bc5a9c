//! **Experiment E2 — Figure 1: DBMS write amplification.**
//!
//! The paper's §1 analysis: *"in more than 70% of evicted dirty 8KB-pages,
//! less than 100 bytes of net data is modified … This results in the DBMS
//! write-amplification of about 80x."* For each workload this binary runs
//! the traditional write path with net-write measurement and reports the
//! distribution of net modified bytes per evicted dirty page, the <100 B
//! fraction, and the byte write amplification — then repeats the run with
//! IPA native (`write_delta`) to show the transferred-bytes reduction of
//! Figure 1's lower half.
//!
//! Usage: `cargo run --release -p ipa-bench --bin fig1_write_amp [--tx=6000] [--seed=N]`

use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_workloads::{build, Driver, DriverConfig, StackSpec, WorkloadKind};

fn main() {
    let tx: u64 = ipa_bench::arg("tx", 6_000);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    ipa_bench::reject_unasked_args();
    let page_size = 8 * 1024;

    println!();
    println!("Figure 1: DBMS write amplification (net modified bytes per evicted dirty page)");
    ipa_bench::rule(118);
    println!(
        "{:<12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}  {:>10}{:>11}{:>12}{:>14}{:>14}",
        "workload",
        "<=10B",
        "<=50B",
        "<=100B",
        "<=500B",
        "<=1KB",
        ">1KB",
        "evictions",
        "<100B [%]",
        "mean [B]",
        "WA trad [x]",
        "WA ipa [x]"
    );
    ipa_bench::rule(118);

    for kind in WorkloadKind::all() {
        // Traditional run with measurement: the Figure 1 histogram.
        let mut bench = build(kind, 1, page_size);
        let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
            .build(bench.as_mut(), page_size, &DriverConfig::default())
            .expect("engine");
        engine.pool_mut().enable_net_write_measurement();
        let cfg = DriverConfig::default()
            .with_transactions(tx)
            .with_seed(seed);
        let trad = Driver::run(bench.as_mut(), &mut engine, &cfg).expect("run");
        let h = engine.pool().stats().net_bytes;

        // Write amplification: device payload bytes per net modified byte.
        let wa_trad = trad.device.bytes_host_written as f64 / h.total_bytes.max(1) as f64;

        // IPA-native run: only the deltas cross the bus.
        let mut bench2 = build(kind, 1, page_size);
        let mut engine2 = StackSpec::paper(WriteStrategy::IpaNative, FlashMode::PSlc)
            .build(bench2.as_mut(), page_size, &DriverConfig::default())
            .expect("engine");
        engine2.pool_mut().enable_net_write_measurement();
        let ipa = Driver::run(bench2.as_mut(), &mut engine2, &cfg).expect("run");
        let h2 = engine2.pool().stats().net_bytes;
        let wa_ipa = ipa.device.bytes_host_written as f64 / h2.total_bytes.max(1) as f64;

        println!(
            "{:<12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}  {:>10}{:>11.1}{:>12.1}{:>14.1}{:>14.1}",
            kind.name(),
            h.buckets[0],
            h.buckets[1],
            h.buckets[2],
            h.buckets[3],
            h.buckets[4],
            h.buckets[5],
            h.count,
            h.fraction_under_100b() * 100.0,
            h.mean_bytes(),
            wa_trad,
            wa_ipa,
        );
    }
    ipa_bench::rule(118);
    println!("paper: >70% of evicted dirty 8KB pages carry <100 net bytes; traditional WA ≈ 80x;");
    println!("       write_delta transfers only the delta records (Figure 1, lower half).");
}
