"""One round of one workload in a fresh process; ``run.py`` starts it.

The process imports mkdvlab from the checkout's ``src/``, builds the
workload's inputs, and then makes the timed calls into mkdvlab.  It writes the
program's outputs, the data the checks need and ``result.json`` (timestamps,
peak memory, operations attempted and failed, and with ``--trace 1`` the
per-layer metrics) into ``--out``.  The checks themselves run in ``run.py``,
outside this process, so they add neither time nor memory to the round.

Timestamps are CLOCK_MONOTONIC, which the parent process shares, so the
parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: README soliton config
SOLVE_CFG = """\
initial = soliton
soliton_carrier = 2.0
soliton_scale = 1.0
length = 128
points = 4096
t_final = 1.0
dt = 1e-4
record_every = 625
"""

#: nonnegative regime, carriers 2^4 .. 2^12, default grid check
ILLPOSED_CFG = """\
s = 0.125
p = 4
T = 1.0
N_min = 16
N_max = 4096
theta = 0.125
"""

#: README probe config without the corpus-free resonance probe
PROBE_CFG = "probes = bilinear_cube,bilinear_lp,trilinear\n"

#: criterion-9a set-up
APRIORI_FIELDS = 20
APRIORI_GRID = (64.0, 512)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mib() -> float:
    """Peak resident memory of this process image (VmHWM).

    getrusage's ru_maxrss is not used: it keeps the peak of the forked parent
    across exec, so it would report the benchmark driver's memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class CliWorkload:
    """A CLI subcommand on a fixed config; its operations fail together."""

    def __init__(self, out: Path, command: str, config: str, outputs: tuple[str, ...], ops: int):
        self.out = out
        self.command = command
        self.outputs = outputs
        self.ops = ops
        self.cfg_path = out / f"{command}.cfg"
        self.cfg_path.write_text(config)

    def run(self) -> dict:
        from mkdvlab import cli

        try:
            rc = cli.main([self.command, "--config", str(self.cfg_path), "--out", str(self.out)])
        except Exception as exc:  # a program fault fails this round's operations
            return {"attempted": self.ops, "failed": self.ops, "errors": [repr(exc)]}
        missing = [n for n in self.outputs if not (self.out / n).is_file()]
        if missing:
            return {"attempted": self.ops, "failed": self.ops,
                    "errors": [f"exit {rc}, missing {missing}"]}
        return {"attempted": self.ops, "failed": 0, "errors": [], "exit_code": rc}

    def record(self) -> None:
        pass


class ProbeCorpus(CliWorkload):
    """``mkdvlab probe``; afterwards saves the corpus and one Parseval pair."""

    def record(self) -> None:
        import numpy as np
        from mkdvlab import norms, probes

        fields = probes.make_probe_corpus()
        np.save(self.out / "corpus.npy", np.stack([f.values for f in fields]))
        fe = norms.free_evolution(fields[0], 1.0, 256)
        np.save(self.out / "free_evolution.npy", fe.samples)
        (self.out / "parseval.json").write_text(json.dumps({
            "xsb_00": norms.xsb_norm(fe, 0.0, 0.0),
            "t_window": fe.t_window,
            "length": fe.grid.length,
        }))


class AprioriRandom:
    """``probes.apriori_tracking`` over 20 seeded random band-limited fields."""

    def __init__(self, out: Path, seed: int):
        import numpy as np

        self.out = out
        length, points = APRIORI_GRID
        xi = 2.0 * np.pi * np.fft.fftfreq(points, d=length / points)
        self.seeds = [APRIORI_FIELDS * seed + i for i in range(APRIORI_FIELDS)]
        self.coefs = []
        for s in self.seeds:
            rng = np.random.default_rng(s)
            noise = rng.standard_normal(points) + 1j * rng.standard_normal(points)
            self.coefs.append(np.where(np.abs(xi) <= 5.0, np.exp(-((xi / 2.0) ** 2)) * noise, 0.0))
        self.norms: dict[int, list[float]] = {}

    def run(self) -> dict:
        from mkdvlab import norms, probes, solver, spectral

        grid = spectral.GridSpec(length=APRIORI_GRID[0], points=APRIORI_GRID[1])
        failed, errors = 0, []
        for s, coef in zip(self.seeds, self.coefs):
            try:
                f = spectral.inverse_transform(spectral.SpectralField(grid, coef))
                u0 = spectral.Field(grid, (0.5 / norms.modulation_norm(f, 0.125, 4.0)) * f.values)
                _, values = probes.apriori_tracking(
                    u0, 0.125, 4.0, 2.0, solver.SolverConfig(dt=1e-3), n_snapshots=16
                )
                self.norms[s] = [float(v) for v in values]
            except Exception as exc:  # a program fault fails this seed only
                failed += 1
                errors.append(f"seed {s}: {exc!r}")
        return {"attempted": len(self.seeds), "failed": failed, "errors": errors}

    def record(self) -> None:
        (self.out / "apriori.json").write_text(json.dumps({str(k): v for k, v in self.norms.items()}))


def make_workload(name: str, out: Path, seed: int):
    if name == "solve-soliton":
        return CliWorkload(out, "solve", SOLVE_CFG,
                           ("final_state.bin", "invariants.csv", "trajectory.bin"), 1)
    if name == "apriori-random":
        return AprioriRandom(out, seed)
    if name == "illposed-grid":
        return CliWorkload(out, "illposed", ILLPOSED_CFG, ("records.csv", "verdict.json"), 9)
    if name == "probe-corpus":
        return ProbeCorpus(out, "probe", PROBE_CFG, ("probes.json",), 3)
    raise SystemExit(f"unknown workload {name!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first call into mkdvlab")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import mkdvlab.cli  # noqa: F401  (imports every layer module)

    if not Path(mkdvlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mkdvlab imported from {mkdvlab.__file__}, not from {SRC}")
    args.out.mkdir(parents=True, exist_ok=True)
    job = make_workload(args.workload, args.out, args.seed)

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    t_first = monotonic()
    result: dict = {"t_first": t_first}
    if not args.setup_only:
        result.update(job.run())
        result["wall_s"] = monotonic() - t_first
        result["peak_rss_mib"] = peak_rss_mib()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer.spans, tracer.counters)
            tracer.write(args.out / "trace.json")
        job.record()
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
