#!/usr/bin/env python3
"""Alternating parent/change runs of the perf ledger, judged by the rules
of the choosing-metrics guide (section 8).

Each tree must already hold a built `benchmark/target/release/ipa-perf-ledger`
(`cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml`,
each side in its own directory). For every workload the two binaries run
`--workload W --seed S --seconds T --trace 0` alternately, the side that goes
first swapping every pair, and one Markdown row is printed per workload and
end-to-end metric of `BENCHMARK.json`:

    gain        the change wins >= 9/10 of the pairs (>= 10 pairs run) and the
                medians differ by more than the parent's interquartile range
    regression  the change's median is worse than the parent's by more than
                the metric's `bound`
    unresolved  neither, but the run-to-run spread is wider than the bound
                (or fewer than 3 pairs ran and the samples differ)
    unchanged   neither, and the spread is inside the bound

`sim_digest` must be equal on both sides for every workload listed in
`tests/golden/ledger_digests.txt`. Exit status 1 on a regression, a digest
mismatch, a failed end-of-run check or a larger share of failed operations.

`--probes N` runs the probe ladder instead (`ipa-perf-ledger --probes`, the
two binaries alternating N times) and prints one row per rung: both medians,
their ratio, and a flag on any rung whose median rose by more than 10 %. The
rungs are per-layer readings, not gated metrics: the exit status stays 0.

`--layers N` alternates N `--trace 1` runs of each workload instead and prints
one row per per-layer metric of `BENCHMARK.json` (the `*_share_est` columns
and `workloads.churn_t1_wall_us_per_op` included): both medians, their ratio,
and a flag on any metric more than 10 % worse in its `better` direction. Rows
whose medians are both 0 (a layer the workload's stack does not have) are
left out. Also ungated: the exit status stays 0.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

LEDGER = Path("benchmark/target/release/ipa-perf-ledger")
DIGEST = re.compile(r"^\s*sim_digest\s+(0x[0-9a-fA-F]+)", re.M)
RUNG = re.compile(r"^\s+(\S+_ns)\s+([0-9.]+) ns\b", re.M)


def run_once(tree, workload, seed, seconds, trace=0):
    """One ledger run: (metrics by name, failed share, sim_digest or None)."""
    cmd = [str(tree / LEDGER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{tree}: {workload}: end-of-run check failed")
    digest = DIGEST.search(out)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    failed = result["failed"] / max(result["attempted"], 1)
    return metrics, failed, digest and digest.group(1)


def quartiles(xs):
    """(q1, median, q3); one sample is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def fmt(x):
    """Four significant digits, never in exponent form."""
    return f"{x:.1f}" if abs(x) >= 1000 else f"{x:.4g}"


def verdict(parent, change, lower_is_better, bound):
    """(ratio text, pairs the change won, verdict) for one metric's samples."""
    sign = 1 if lower_is_better else -1  # compare as "smaller is better"
    pairs = len(parent)
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    ratio = f"{cmed / pmed:.3f}" if pmed else "n/a"
    gap = sign * (cmed - pmed)  # > 0: the change is worse
    scale = abs(pmed) or 1.0
    spread = max(pq3 - pq1, cq3 - cq1) / scale
    clean_sweep = max(sign * c for c in change) < min(sign * p for p in parent)
    if parent == change:
        return ratio, won, "unchanged"
    if pairs < 3:
        return ratio, won, f"unresolved ({pairs} pair{'s' if pairs > 1 else ''})"
    if gap < 0 and won * 10 >= pairs * 9 and -gap > pq3 - pq1:
        return ratio, won, "gain" if pairs >= 10 else "unresolved (a gain needs 10 pairs)"
    if gap > bound * scale:
        return ratio, won, "regression"
    if spread > bound and not clean_sweep:
        return ratio, won, "unresolved"
    return ratio, won, "unchanged"


def probe_ladder(trees, rounds):
    """Alternate `--probes` runs; one Markdown row per rung."""
    samples = {side: {} for side in trees}
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = subprocess.run([str(trees[side] / LEDGER), "--probes"], cwd=trees[side],
                                 check=True, capture_output=True, text=True).stdout
            rungs = RUNG.findall(out)
            if not rungs:
                sys.exit(f"{trees[side]}: --probes printed no rung")
            for name, ns in rungs:
                samples[side].setdefault(name, []).append(float(ns))
        print(f"  probes: round {i + 1}/{rounds}", file=sys.stderr)
    print(f"probe ladder, {rounds} alternating runs a side, ns per call\n")
    print("| rung | parent median | change median | change / parent | |")
    print("|---|---|---|---|---|")
    for name, parent in samples["parent"].items():
        change = samples["change"].get(name)
        if not change:
            continue
        p, c = statistics.median(parent), statistics.median(change)
        ratio = f"{c / p:.3f}" if p else "n/a"
        flag = "> 10 % higher" if c > 1.1 * p else ""
        print(f"| {name} | {fmt(p)} | {fmt(c)} | {ratio} | {flag} |")


def layer_table(trees, rounds, seed, seconds, workloads, per_layer):
    """Alternate `--trace 1` runs; one Markdown row per workload x per-layer metric."""
    print(f"per-layer metrics, seed {seed}, {seconds} s, {rounds} alternating runs a side\n")
    print("| workload | metric | parent median | change median | change / parent | |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        samples = {side: [] for side in trees}
        for i in range(rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                samples[side].append(run_once(trees[side], w, seed, seconds, trace=1)[0])
            print(f"  {w}: round {i + 1}/{rounds}", file=sys.stderr)
        for m in per_layer:
            name = m["name"]
            p, c = (statistics.median(run[name] for run in samples[side]) for side in trees)
            if p == 0 and c == 0:
                continue
            ratio = f"{c / p:.3f}" if p else "n/a"
            worse = c > 1.1 * p if m["better"] == "lower" else c < 0.9 * p
            flag = "> 10 % worse" if worse else ""
            print(f"| {w} | {name} | {fmt(p)} | {fmt(c)} | {ratio} | {flag} |", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="tree of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--probes", type=int, metavar="N",
                    help="run the probe ladder N times a side instead of the workloads")
    ap.add_argument("--layers", type=int, metavar="N",
                    help="compare the per-layer metrics of N --trace 1 runs a side instead")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / LEDGER).is_file():
            sys.exit(f"{tree / LEDGER} is missing: build the benchmark in that tree first")
    if args.probes:
        probe_ladder(trees, args.probes)
        return 0

    contract = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = contract["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in contract["workloads"]]
    if args.layers:
        layer_table(trees, args.layers, args.seed, args.seconds, workloads, contract["per_layer"])
        return 0
    golden = (trees["change"] / "tests/golden/ledger_digests.txt").read_text()
    deterministic = {line.split()[0] for line in golden.splitlines()
                     if line.strip() and not line.startswith("#")}

    bad = []
    print(f"seed {args.seed}, {args.seconds} s, {args.pairs} alternating pairs\n")
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change / parent | pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        samples = {side: [] for side in trees}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                samples[side].append(run_once(trees[side], w, args.seed, args.seconds))
            print(f"  {w}: pair {pair + 1}/{args.pairs}", file=sys.stderr)
        for m in metrics:
            name = m["name"]
            parent, change = ([run[0][name] for run in samples[side]] for side in trees)
            ratio, won, v = verdict(parent, change, m["better"] == "lower", m["bound"])
            cells = ("{1} [{0}, {2}]".format(*map(fmt, quartiles(xs)))
                     for xs in (parent, change))
            print(f"| {w} | {name} | {' | '.join(cells)} | {ratio} "
                  f"| {won}/{args.pairs} | {v} |", flush=True)
            if v == "regression":
                bad.append(f"{w}: {name} regressed")
        failed = {side: max(run[1] for run in samples[side]) for side in trees}
        if failed["change"] > failed["parent"]:
            bad.append(f"{w}: failed share {failed['parent']:.4%} -> {failed['change']:.4%}")
        digests = {run[2] for side in trees for run in samples[side]}
        if w in deterministic and (len(digests) != 1 or None in digests):
            bad.append(f"{w}: sim_digest differs: {sorted(map(str, digests))}")

    print()
    for line in bad:
        print(f"FAIL {line}")
    if not bad:
        print("no regression, no digest mismatch, no new failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
