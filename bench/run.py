"""mkdvlab benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload solve-soliton --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, one after another

A run first starts a few set-up-only processes, then repeats rounds until the
next round would end after ``--seconds``.  Each round is a fresh process
(``worker.py``) that runs the workload once; rounds run one at a time.  The
outputs of every round are checked by ``checks.py``.  With ``--trace 0`` the
run reports the end-to-end metrics of BENCHMARK.json, as medians over its
rounds; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics, medians over the traced rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with every
round and the reference data (revision, versions, nproc, src line count), is
written under ``bench/results/``; ``compare.py`` compares two sets of them.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
benchmark could not run (no mkdvlab sources, a worker that crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from checks import check_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("solve-soliton", "apriori-random", "illposed-grid", "probe-corpus")

#: set-up-only processes per run, on top of the set-up of each untraced round
SETUP_PROBES = 5
#: a single round may not take longer than this
ROUND_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, out: Path, traced: bool, setup_only: bool = False) -> dict:
    """Run worker.py once in a fresh process and return its result.json."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    with open(out / "worker.log", "w") as log:
        t_spawn = monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: round took over {ROUND_TIMEOUT_S} s; see {out / 'worker.log'}")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}; see {out / 'worker.log'}")
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All rounds of one run, checked; see the module docstring."""
    base = BENCH / "out" / workload
    shutil.rmtree(base, ignore_errors=True)
    deadline = monotonic() + seconds
    setups = [spawn(workload, seed, base / f"setup{i}", False, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    rounds: list[dict] = []
    check_failures: dict[str, dict] = {}
    longest = 0.0
    while True:
        t0 = monotonic()
        traced = trace and len(rounds) % 2 == 1
        out = base / f"round{len(rounds)}"
        r = spawn(workload, seed, out, traced)
        r["traced"] = traced
        if r["failed"] < r["attempted"]:
            bad = check_outputs(workload, out)
            if bad:
                check_failures[out.name] = bad
        rounds.append(r)
        longest = max(longest, monotonic() - t0)
        if trace and not any(x["traced"] for x in rounds):
            continue
        if monotonic() + longest > deadline:
            break
    return {"setups": setups, "rounds": rounds, "check_failures": check_failures}


def summarize(run: dict, trace: bool, spec: dict) -> dict:
    rounds = run["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        values = {m["name"]: statistics.median(r["layers"][m["name"]] for r in traced)
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        metrics = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(run["setups"] + [r["setup_s"] for r in plain]),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        metrics = spec["end_to_end"]
    return {
        "correct": not run["check_failures"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


# ---------------------------------------------------------------------------
# Reference data recorded with each run (not metrics)
# ---------------------------------------------------------------------------

def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def reference_data() -> dict:
    import numpy
    import scipy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def save(results_dir: Path, workload: str, seed: int, seconds: float, trace: bool,
         run: dict, summary: dict) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "reference": reference_data(), **summary, **run}
    path.write_text(json.dumps(doc, indent=1))
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH / "results",
                    help="directory for the run records")
    args = ap.parse_args()

    if not (ROOT / "src" / "mkdvlab" / "__init__.py").is_file():
        print(f"no mkdvlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    summaries = {}
    for name in names:
        try:
            run = measure(name, args.seed, seconds, trace)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        summary = summarize(run, trace, spec)
        record = save(args.results, name, args.seed, seconds, trace, run, summary)
        for r in run["rounds"]:
            for err in r["errors"]:
                print(f"{name}: failed operation: {err}", file=sys.stderr)
        for where, bad in run["check_failures"].items():
            for check, msg in bad.items():
                print(f"{name}: {where}: check {check} FAILED: {msg}", file=sys.stderr)
        metrics = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in summary["metrics"].items())
        print(f"{name}: {metrics}  attempted={summary['attempted']} failed={summary['failed']} "
              f"rounds={len(run['rounds'])} correct={summary['correct']}  ({record})")
        summaries[name] = summary

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{k}": v for name, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
