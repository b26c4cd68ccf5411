"""Show that every output check can fail.

    python3 bench/selftest.py [--workload NAME]

Runs one round of each workload (as run.py does), confirms that its outputs
pass every check, then corrupts the loaded outputs one way per check (a
perturbed final state, a scaled record, a changed header ...) and confirms
that the named check rejects each corruption.  Exits 1 if a corruption goes
unnoticed or the clean outputs fail.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys

import checks
from run import BENCH, WORKLOADS, spawn


def _scale(where, key: str, factor: float):
    """Corruption that multiplies ``where(data)[key]`` by ``factor``."""
    def corrupt(d):
        target = where(d)
        target[key] = target[key] * factor
    return corrupt


def _set(path, value):
    """Corruption that sets the entry at ``path`` to ``value``."""
    def corrupt(d):
        *head, last = path
        target = d
        for k in head:
            target = target[k]
        target[last] = value
    return corrupt


def _first_seed(d):
    return d["norms"][next(iter(d["norms"]))]


def _perturb_state(d):
    d["final"]["values"] = d["final"]["values"] * (1.0 + 1e-5)


def _bump_norm(d):
    norms = _first_seed(d)
    norms[7] = 5.01 * norms[0]


def _start_norm(d):
    norms = _first_seed(d)
    norms[0] *= 1.0 + 1e-9


def _scale_record(d):
    rec = d["records"][3]
    for k, v in rec.items():
        if v is not None:
            rec[k] = v * 1.001


def _flip_corpus_sample(d):
    d["corpus"] = d["corpus"].copy()
    d["corpus"][17, 3] += 1e-12


#: (check expected to fail, description, corruption) per workload
CORRUPTIONS = {
    "solve-soliton": [
        ("final_state", "final state scaled by 1 + 1e-5", _perturb_state),
        ("invariants", "one mass entry scaled by 1 + 1e-9",
         _scale(lambda d: d["invariants"][5], "mass", 1.0 + 1e-9)),
        ("invariants", "one momentum entry scaled by 1 - 1e-9",
         _scale(lambda d: d["invariants"][9], "momentum", 1.0 - 1e-9)),
        ("modulation_column", "last modulation_norm scaled by 1 + 1e-9",
         _scale(lambda d: d["invariants"][-1], "modulation_norm", 1.0 + 1e-9)),
        ("trajectory", "trajectory header dt doubled", _set(("trajectory", "dt"), 2e-4)),
        ("trajectory", "one snapshot missing from the payload",
         _scale(lambda d: d["trajectory"], "payload", 15 / 16)),
    ],
    "apriori-random": [
        ("initial_norm", "norms[0] of one seed scaled by 1 + 1e-9", _start_norm),
        ("apriori_bound", "one norm set to 5.01 norms[0]", _bump_norm),
    ],
    "illposed-grid": [
        ("schedule", "every column of record 3 scaled by 1.001", _scale_record),
        ("schedule", "lam of record 2 scaled by 1 + 1e-9",
         _scale(lambda d: d["records"][2], "lam", 1.0 + 1e-9)),
        ("quadrature", "norm_u of record 4 scaled by 1 + 1e-9",
         _scale(lambda d: d["records"][4], "norm_u", 1.0 + 1e-9)),
        ("grid_agreement", "grid_diff0 of record 6 scaled by 1 + 2e-4",
         _scale(lambda d: d["records"][6], "grid_diff0", 1.0 + 2e-4)),
        ("verdict", "verdict passed set to false", _set(("verdict", "passed"), False)),
    ],
    "probe-corpus": [
        ("calibration", "trilinear max ratio scaled by 1.02",
         _scale(lambda d: d["reports"][2], "max_ratio", 1.02)),
        ("corpus_hash", "one corpus sample moved by 1e-12", _flip_corpus_sample),
        ("parseval", "X^(0,0) norm scaled by 1 + 1e-10",
         _scale(lambda d: d["parseval"], "xsb_00", 1.0 + 1e-10)),
    ],
}


def selftest(workload: str) -> list[str]:
    out = BENCH / "out" / "selftest" / workload
    shutil.rmtree(out, ignore_errors=True)
    result = spawn(workload, 0, out, traced=False)
    problems = [f"{workload}: operation failed: {e}" for e in result["errors"]]
    loader, named = checks.WORKLOAD_CHECKS[workload]
    data = loader(out)
    clean = checks.failures(workload, data)
    problems += [f"{workload}: clean output fails {k}: {v}" for k, v in clean.items()]
    covered = set()
    for name, what, corrupt in CORRUPTIONS[workload]:
        bad = copy.deepcopy(data)
        corrupt(bad)
        failed = checks.failures(workload, bad)
        caught = name in failed
        covered.add(name)
        print(f"{workload}: {what}: check {name} {'FAILS as it should' if caught else 'MISSED it'}")
        if not caught:
            problems.append(f"{workload}: check {name} passed on: {what}")
    problems += [f"{workload}: check {n} has no corruption" for n in set(named) - covered]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args()
    problems = []
    for w in args.workload or WORKLOADS:
        problems += selftest(w)
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "every check rejects its corruption")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
