#!/usr/bin/env python3
"""Compare two ledgers (benchmark/out/BENCH.json copies) of the same code.

usage: agreement.py A.json B.json [path/to/BENCHMARK.json]

Prints, per workload x end-to-end metric, the two values, how much worse B
is than A in the metric's bad direction (as a share of A) and the bound,
then whether sim_digest matches on the four deterministic workloads.
Exits 1 if a difference exceeds its bound or a digest differs.
"""
import json
import os
import sys

DETERMINISTIC = ["tpcb_chip_trad", "tpcb_chip_ipa", "tpcb_4ch2d_ipa", "tatp_4ch2d_cached"]


def main():
    a, b = (json.load(open(p)) for p in sys.argv[1:3])
    contract_path = sys.argv[3] if len(sys.argv) > 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")
    contract = json.load(open(contract_path))
    ok = True
    print(f"{'workload':<20}{'metric':<16}{'A':>16}{'B':>16}{'B worse by':>12}{'bound':>8}")
    for w in (w["name"] for w in contract["workloads"]):
        for m in contract["end_to_end"]:
            va, vb = (doc["workloads"][w]["end_to_end"][m["name"]]["value"] for doc in (a, b))
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            within = abs(worse) <= m["bound"]
            ok &= within
            print(f"{w:<20}{m['name']:<16}{va:>16.4f}{vb:>16.4f}{worse:>+11.2%} {m['bound']:>7.0%}"
                  f"{'' if within else '  OUT OF BOUND'}")
    print()
    for w in DETERMINISTIC:
        da, db = (doc["workloads"][w]["sim_digest"] for doc in (a, b))
        same = da == db
        ok &= same
        print(f"sim_digest {w:<20} {da} {'==' if same else '!='} {db}")
    print("\nagreement:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
