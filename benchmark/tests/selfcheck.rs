//! End-to-end self-check: drive the built runner the way the driver does
//! (at `--quick` sizes) and hold its output to `BENCHMARK.json`.

use std::process::Command;

use ipa_trace::json::{self, JsonValue};

const EXE: &str = env!("CARGO_BIN_EXE_ipa-perf-ledger");
/// Bit-deterministic per seed; churn's threaded timing is not.
const DETERMINISTIC: [&str; 4] = [
    "tpcb_chip_trad",
    "tpcb_chip_ipa",
    "tpcb_4ch2d_ipa",
    "tatp_4ch2d_cached",
];

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("runner starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn contract() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn listed(contract: &JsonValue, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|e| {
            let field = |k| e.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Check one result line against the contract's list: exactly the four
/// keys, every listed metric exactly once with its unit and a finite
/// value, nothing unlisted.
fn check_result(stdout: &str, expected: &[(String, String)], nonzero: bool) {
    let line = stdout.lines().last().expect("a result line");
    let JsonValue::Obj(members) = json::parse(line).expect("the result line re-parses") else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let get = |k: &str| &members.iter().find(|(key, _)| key == k).unwrap().1;
    assert_eq!(get("correct"), &JsonValue::Bool(true));
    assert!(get("attempted").as_u64().unwrap() >= 1);
    assert_eq!(get("failed").as_u64(), Some(0));
    let JsonValue::Obj(metrics) = get("metrics") else {
        panic!("metrics is not an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "metric set differs from BENCHMARK.json");
    for ((name, unit), (_, m)) in expected.iter().zip(metrics) {
        assert!(well_formed(name), "{name}");
        let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            !nonzero || value > 0.0,
            "{name} must never be 0, got {value}"
        );
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
    }
}

fn digest_of(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("sim_digest "))
        .expect("a sim_digest line")
        .to_string()
}

#[test]
fn strict_cli_rejects_typos_instead_of_defaulting() {
    for bad in [
        &["--seed=abc"][..],
        &["--sede=1"],
        &["--workload=nope"],
        &["--workload", "tpcb_chip_ipa", "--trace", "yes"],
        &["--seconds", "0"],
        &["--quick=1"],
    ] {
        let (ok, stdout) = run(bad);
        assert!(!ok, "{bad:?} must exit non-zero");
        assert!(stdout.is_empty(), "{bad:?} must not print a result");
    }
}

#[test]
fn quick_pass_over_every_workload_matches_the_contract() {
    let contract = contract();
    let end_to_end = listed(&contract, "end_to_end");
    let per_layer = listed(&contract, "per_layer");
    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 5);
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    for w in &workloads {
        assert!(well_formed(w));
        let quick = |seed: &str, trace: &str| {
            let (ok, out) = run(&[
                "--workload",
                w,
                "--seed",
                seed,
                "--seconds",
                "8",
                "--trace",
                trace,
                "--quick",
            ]);
            assert!(ok, "{w} seed {seed} trace {trace} failed:\n{out}");
            out
        };
        let a = quick("7", "0");
        check_result(&a, &end_to_end, true);
        let traced = quick("7", "1");
        check_result(&traced, &per_layer, false);
        if DETERMINISTIC.contains(&w.as_str()) {
            assert_eq!(digest_of(&a), digest_of(&quick("7", "0")), "{w}: same seed");
            assert_eq!(digest_of(&a), digest_of(&traced), "{w}: traced ≡ untraced");
            assert_ne!(
                digest_of(&a),
                digest_of(&quick("8", "0")),
                "{w}: other seed"
            );
        }
    }

    // The probe ladder alone, then the whole ledger: every workload in a
    // child process, assembled into BENCH.json with the paper check.
    let (ok, out) = run(&["--probes", "--quick"]);
    assert!(ok && out.contains("flash.read_page_ns"), "{out}");
    let (ok, out) = run(&["--quick", "--seed", "7"]);
    assert!(ok, "whole-ledger run failed:\n{out}");
    assert!(out.contains("paper check"));
    assert!(out.contains("unvalidated against hardware"));
    let ledger = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/out/BENCH.json"))
        .expect("the ledger was written");
    let ledger = json::parse(&ledger).expect("the ledger re-parses");
    for w in &workloads {
        let entry = ledger
            .get("workloads")
            .and_then(|l| l.get(w))
            .expect("entry");
        for section in ["end_to_end", "per_layer", "sim", "sim_digest"] {
            assert!(entry.get(section).is_some(), "{w} lacks {section}");
        }
    }
    assert!(ledger
        .get("paper_check")
        .and_then(|p| p.get("tps"))
        .and_then(|t| t.get("ours_pct"))
        .and_then(JsonValue::as_f64)
        .is_some());
}
