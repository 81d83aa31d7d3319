"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (``.perfbench/results``
after a series of runs, copied aside per commit).  For every workload, trace
mode and metric the script prints each side's median, its quartiles and the
number of runs.  Timings of the pure-Python and the compiled kernel are not
comparable, so a comparison across different ``kernel_kind`` values (or
different Python versions or CPU counts) is flagged on every affected line.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

PROVENANCE_KEYS = ("kernel_kind", "python", "cpu_count")


def load(directory: str):
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        prov = doc["provenance"]
        runs[(prov["workload"], prov["trace"])].append(doc)
    return runs


def _summary(values):
    if len(values) < 2:
        return f"{values[0]:.6g} (1 run)"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] ({len(values)} runs)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        mismatch = []
        for pk in PROVENANCE_KEYS:
            a = {d["provenance"][pk] for d in base[key]}
            b = {d["provenance"][pk] for d in new[key]}
            if a != b:
                mismatch.append(f"{pk} {sorted(map(str, a))} vs {sorted(map(str, b))}")
        flag = f"  NOT COMPARABLE: {'; '.join(mismatch)}" if mismatch else ""
        print(f"== {workload} (trace {trace}){flag}")
        names = base[key][0]["result"]["metrics"]
        for name, m in names.items():
            a = [d["result"]["metrics"][name]["value"] for d in base[key]]
            b = [d["result"]["metrics"][name]["value"] for d in new[key]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            print(f"  {name} [{m['unit']}]: base {_summary(a)}  new {_summary(b)}  "
                  f"change {change}{' !' if mismatch else ''}")
        fails = sum(d["result"]["failed"] for d in new[key])
        if fails:
            print(f"  new side: {fails} failed checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
