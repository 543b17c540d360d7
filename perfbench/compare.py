#!/usr/bin/env python3
"""Compares two sets of benchmark result files, refusing mismatched hosts.

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- NEW_DIR_OR_FILES...

Each side is a list of result files (or directories of them) written by
perfbench/run.py under <build dir>/results/. Results are grouped by workload;
for every metric the script prints each side's median and
quartiles and the change of the medians. It exits with code 2, comparing
nothing, when the two sides' run stamps differ in anything but the seed:
host fingerprint (nproc, CPU model, kernel), build type and flags, thread
counts, or checkpoint hash.
"""

import glob
import json
import os
import statistics
import sys


def load(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*-trace[01].json")))
        else:
            files.append(path)
    runs = []
    for name in files:
        with open(name) as handle:
            runs.append(json.load(handle))
    return runs


def fingerprint(stamp):
    keep = dict(stamp)
    keep.pop("seed", None)
    keep.pop("workload", None)
    return json.dumps(keep, sort_keys=True)


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("no result files on one side", file=sys.stderr)
        return 2
    prints = {fingerprint(r["stamp"]) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: run stamps differ", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2

    def group(runs):
        out = {}
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["stamp"]["workload"], name), []).append(m["value"])
        return out

    a, b = group(base), group(new)
    for key in sorted(set(a) & set(b)):
        qa, qb = summary(a[key]), summary(b[key])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        print("%-16s %-36s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.1f%%"
              % (key[0], key[1], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                 100 * change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
