"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds run records written by run.py (``--results DIR``).  For
each workload and metric the table gives both medians with their quartiles,
the change of the median, and for end-to-end metrics whether the change stays
within the metric's bound in BENCHMARK.json.  Per-layer metrics (from
``--trace 1`` runs) have no bound and are listed for reading only.  The
reference data of each set (revision, versions, nproc, src line count) is
printed first.  Exits 1 if an end-to-end median got worse by more than its
bound, or if the share of failed operations differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    if not runs:
        raise SystemExit(f"no run records in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(runs: list[dict]):
    values = defaultdict(list)  # (workload, metric) -> values
    ops = defaultdict(lambda: [0, 0])  # workload -> [attempted, failed]
    for run in runs:
        for name, m in run["metrics"].items():
            values[(run["workload"], name)].append(m["value"])
        ops[run["workload"]][0] += run["attempted"]
        ops[run["workload"]][1] += run["failed"]
    return values, ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    sets = {"base": load(args.base), "new": load(args.new)}
    for label, runs in sets.items():
        refs = {json.dumps(r["reference"], sort_keys=True) for r in runs}
        for ref in sorted(refs):
            print(f"{label}: {ref}")
    (vb, ob), (vn, on) = collect(sets["base"]), collect(sets["new"])

    ok = True
    print(f"{'workload':15} {'metric':42} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'change':>8}  verdict")

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"

    for key in sorted(set(vb) & set(vn), key=lambda k: (k[0], k[1] not in e2e, k[1])):
        workload, name = key
        qb, qn = quartiles(vb[key]), quartiles(vn[key])
        change = (qn[1] - qb[1]) / qb[1] if qb[1] else float("nan")
        if name in e2e:
            m = e2e[name]
            worse = change if m["better"] == "lower" else -change
            within = worse <= m["bound"]
            ok &= within
            verdict = f"{'within' if within else 'OUTSIDE'} bound {m['bound']}"
        elif name in layer:
            if qb[1] == qn[1] == 0:
                continue  # the workload does not reach this layer
            verdict = "per-layer, no bound"
        else:
            continue
        print(f"{workload:15} {name:42} {cell(qb):>34} {cell(qn):>34} {change:+8.2%}  {verdict}  "
              f"(n={len(vb[key])}/{len(vn[key])})")
    for workload in sorted(set(ob) & set(on)):
        (ab, fb), (an, fn) = ob[workload], on[workload]
        same = fb * an == fn * ab
        ok &= same
        print(f"{workload}: failed {fb}/{ab} (base) vs {fn}/{an} (new): "
              f"{'same share' if same else 'DIFFERENT share'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
