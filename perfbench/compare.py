#!/usr/bin/env python3
"""Compares two sets of perfbench reports, metric by metric.

    python3 perfbench/compare.py BASE_REPORTS HEAD_REPORTS

Each argument is a directory of reports as the driver writes them
(.bench_build/perfbench/state/reports/<workload>-seed<n>-trace0.json), for
example one copied aside from the parent commit's checkout and one from the
change's. For every workload and end-to-end metric it prints both medians
with their quartiles and flags a change whose median is worse than the
base median by more than the metric's bound in BENCHMARK.json.

It refuses, naming what is wrong, to compare
- reports whose provenance differs in anything but the commit: host CPUs,
  CPU model, GEMM backend, kernel fingerprint, compiler or build type;
- a report whose run failed its output checks (correct false or failed
  above 0), since a speed-up with failed operations does not count;
- two sets that do not cover the same (workload, seed, scale) runs.
Exit code: 0 no regression, 1 regression, 2 refused.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(folder):
    reports = []
    for path in sorted(glob.glob(os.path.join(folder, "*-trace0.json"))):
        with open(path) as handle:
            report = json.load(handle)
        report["path"] = path
        reports.append(report)
    if not reports:
        sys.exit("compare: no timed reports in %s" % folder)
    return reports


def provenance(reports):
    """The provenance every report of a set shares, commit excluded."""
    seen = {}
    for report in reports:
        prov = {k: v for k, v in report["provenance"].items() if k != "commit"}
        for key, value in prov.items():
            seen.setdefault(key, set()).add(value)
    return seen


def refusals(base, head):
    """Reasons the two sets cannot be compared, one line each."""
    reasons = []
    for report in base + head:
        result = report["result"]
        if result["correct"] is not True or result["failed"] != 0:
            reasons.append("report %s failed its checks (correct %s, "
                           "failed %s)" % (report["path"], result["correct"],
                                           result["failed"]))
    runs = [{(r["workload"], r["seed"], r["scale"]) for r in side}
            for side in (base, head)]
    for label, only in (("base", runs[0] - runs[1]),
                        ("head", runs[1] - runs[0])):
        for workload, seed, scale in sorted(only):
            reasons.append("only the %s set has workload %s seed %s scale %s"
                           % (label, workload, seed, scale))
    base_prov, head_prov = provenance(base), provenance(head)
    for key in sorted(set(base_prov) | set(head_prov)):
        if (base_prov.get(key) != head_prov.get(key)
                or len(base_prov.get(key, ())) > 1):
            reasons.append("provenance '%s' differs: base %s, head %s"
                           % (key, sorted(base_prov.get(key, ())),
                              sorted(head_prov.get(key, ()))))
    return reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    reasons = refusals(base, head)
    if reasons:
        for reason in reasons:
            print("refused: " + reason)
        return 2

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    regressions = 0
    for workload in sorted({r["workload"] for r in base}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[r["result"]["metrics"][name]["value"] for r in side
                       if r["workload"] == workload] for side in (base, head)]
            (b1, b2, b3), (h1, h2, h3) = map(quartiles, values)
            change = (h2 - b2) / b2
            worse = change > 0 if metric["better"] == "lower" else change < 0
            flag = "REGRESSION" if worse and abs(change) > metric["bound"] \
                else "ok"
            regressions += flag != "ok"
            print("%-10s %-18s base %.5g [%.5g, %.5g]  head %.5g [%.5g, %.5g]"
                  "  %+.1f%% (bound %.0f%%)  %s"
                  % (workload, name, b2, b1, b3, h2, h1, h3, change * 100,
                     metric["bound"] * 100, flag))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
