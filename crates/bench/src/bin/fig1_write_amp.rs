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

use std::process::ExitCode;

use ipa_bench::experiments::{net_writes, RunError};
use ipa_bench::{flags, Args};
use ipa_ftl::WriteStrategy;
use ipa_workloads::WorkloadKind;

fn main() -> ExitCode {
    let a = Args::from_env(flags::FIG1_WRITE_AMP);
    ipa_bench::exit_status(render(a.value("tx"), a.value("seed")).map(|()| true))
}

fn render(tx: u64, seed: u64) -> Result<(), RunError> {
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
        // Traditional run: the Figure 1 histogram. IPA-native run: only
        // the deltas cross the bus.
        let trad = net_writes(kind, WriteStrategy::Traditional, tx, seed)?;
        let ipa = net_writes(kind, WriteStrategy::IpaNative, tx, seed)?;
        let h = trad.hist;
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
            trad.write_amp,
            ipa.write_amp,
        );
    }
    ipa_bench::rule(118);
    println!("paper: >70% of evicted dirty 8KB pages carry <100 net bytes; traditional WA ≈ 80x;");
    println!("       write_delta transfers only the delta records (Figure 1, lower half).");
    Ok(())
}
