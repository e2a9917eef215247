#!/usr/bin/env python3
"""Checks dar_mine's JSON report with a real JSON parser.

Writes a CSV whose first column name holds a tab and whose values carry
11 significant digits in two dense groups, runs `dar_mine --json` on it,
and loads stdout with Python's json module. The report must hold at least
one cluster, and every box bound must equal one of its column's input
values exactly: a box is the minimum and maximum of its cluster's tuples,
so any digit lost in printing shows.

Usage: tools/check_report_json.py PATH/TO/dar_mine

Prints one `ok` line and exits 0, or exits 1 naming the first failure.
"""

import json
import os
import random
import subprocess
import sys
import tempfile


def make_rows(rng):
    rows = []
    for i in range(4000):
        group = i % 2
        rows.append(["%.9f" % (30 + 20 * group + rng.gauss(0, 1)),
                     "%.6f" % (40000 + 30000 * group + rng.gauss(0, 500))])
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    header = ["age\tyears", "salary"]
    rows = make_rows(random.Random(7))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.csv")
        with open(path, "w") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(row) + "\n")
        out = subprocess.run([argv[1], path, "--json"], check=True,
                             capture_output=True, text=True).stdout
    report = json.loads(out)
    if report["parts"] != header:
        print("parts %r, want %r" % (report["parts"], header))
        return 1
    values = [{float(row[c]) for row in rows} for c in range(len(header))]
    clusters = report["clusters"]
    if not clusters:
        print("no cluster in the report")
        return 1
    for cluster in clusters:
        for lo, hi in cluster["box"]:
            for bound in (lo, hi):
                if bound not in values[cluster["part"]]:
                    print("cluster %d: box bound %r is no input value"
                          % (cluster["id"], bound))
                    return 1
    print("ok: %d clusters, %d rules" % (len(clusters), len(report["rules"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
