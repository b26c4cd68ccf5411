"""Tests for config parsing, snapshot round-trips, and the CLI."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mkdvlab import cli, solitons
from mkdvlab.cli import main
from mkdvlab.io import (
    ConfigError,
    SnapshotError,
    config_hash,
    read_config,
    read_field,
    read_trajectory,
    write_csv,
    write_field,
    write_trajectory,
)
from mkdvlab.norms import SpaceTimeField
from mkdvlab.solitons import SolitonParams, soliton_field
from mkdvlab.spectral import Field, GridSpec


class TestConfig:
    def test_parses_flat_keys(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\ns = 0.125\np=4\nT = 1.0  # trailing\n\n")
        cfg = read_config(p)
        assert cfg == {"s": "0.125", "p": "4", "T": "1.0"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config(tmp_path / "nope.cfg")

    def test_rejects_malformed_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key=value"):
            read_config(p)

    def test_rejects_duplicate_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("s=1\ns=2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config(p)

    def test_hash_is_order_insensitive(self):
        assert config_hash({"a": "1", "b": "2"}) == config_hash({"b": "2", "a": "1"})
        assert config_hash({"a": "1"}) != config_hash({"a": "2"})


class TestCsv:
    def test_numpy_floats_written_as_plain_float_reprs(self, tmp_path):
        path = tmp_path / "v.csv"
        write_csv(path, ["a", "b", "c"], [{"a": np.float64(1.5), "b": np.float32(0.1), "c": 0.25}])
        assert path.read_text().splitlines()[-1] == f"1.5,{float(np.float32(0.1))!r},0.25"


class TestSnapshots:
    def test_field_roundtrip(self, tmp_path):
        grid = GridSpec(length=128.0, points=1024)
        f = soliton_field(SolitonParams(carrier=4.0, scale=1.0), 0.0, grid)
        path = tmp_path / "f.bin"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == grid
        assert np.array_equal(back.values, f.values)

    def test_trajectory_roundtrip(self, tmp_path):
        grid = GridSpec(length=64.0, points=128)
        rng = np.random.default_rng(0)
        samples = np.exp(-((grid.x / 8) ** 2)) * rng.standard_normal((8, 128))
        traj = SpaceTimeField(grid, 0.5, samples.astype(complex))
        path = tmp_path / "t.bin"
        write_trajectory(path, traj, dt=1e-3, sign=1)
        back, dt, sign = read_trajectory(path)
        assert (dt, sign) == (1e-3, 1)
        assert back.t_window == 0.5
        assert np.array_equal(back.samples, traj.samples)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_field(path)

    def test_truncated_field_names_file(self, tmp_path):
        grid = GridSpec(length=64.0, points=128)
        path = tmp_path / "f.bin"
        write_field(path, Field.zero(grid))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(SnapshotError, match="f.bin: truncated field header"):
            read_field(path)

    def test_truncated_trajectory_names_file(self, tmp_path):
        grid = GridSpec(length=64.0, points=128)
        traj = SpaceTimeField(grid, 0.5, np.zeros((4, 128), dtype=complex))
        path = tmp_path / "t.bin"
        write_trajectory(path, traj, dt=1e-3, sign=1)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(SnapshotError, match="t.bin: truncated trajectory header"):
            read_trajectory(path)

    @pytest.mark.parametrize(
        "length, points, nan_sample, message",
        [
            (1.0, 4, False, "exceeds 1/8"),
            (64.0, 3, False, "power of two"),
            (float("nan"), 4, False, "positive and finite"),
            (64.0, 4, True, "non-finite"),
        ],
    )
    def test_invalid_field_contents_name_file(self, tmp_path, length, points, nan_sample, message):
        samples = np.zeros(points, dtype="<c16")
        samples[-1] = complex("nan") if nan_sample else 0.0
        path = tmp_path / "bad.bin"
        path.write_bytes(b"MKDVFLD1" + struct.pack("<dq", length, points) + samples.tobytes())
        with pytest.raises(SnapshotError, match=f"bad.bin: .*{message}"):
            read_field(path)

    @pytest.mark.parametrize(
        "k, dt, sign, message",
        [
            (3, 1e-3, 1, "snapshot count must be a power of two"),
            (2, float("nan"), 1, "finite nonzero dt"),
            (2, 0.0, -1, "finite nonzero dt"),
            (2, 1e-3, 77, "sign"),
        ],
    )
    def test_invalid_trajectory_contents_name_file(self, tmp_path, k, dt, sign, message):
        path = tmp_path / "bad.bin"
        header = struct.pack("<dqqdbd", 64.0, 128, k, dt, sign, 0.5)
        path.write_bytes(b"MKDVTRJ1" + header + bytes(16 * k * 128))
        with pytest.raises(SnapshotError, match=f"bad.bin: .*{message}"):
            read_trajectory(path)

    def test_infinite_trajectory_window_names_file(self, tmp_path):
        path = tmp_path / "inf.bin"
        header = struct.pack("<dqqdbd", 64.0, 128, 2, 1e-3, 1, float("inf"))
        path.write_bytes(b"MKDVTRJ1" + header + bytes(16 * 2 * 128))
        with pytest.raises(SnapshotError, match="inf.bin: time window must be positive and finite"):
            read_trajectory(path)

    def test_short_sample_block_rejected(self, tmp_path):
        grid = GridSpec(length=64.0, points=128)
        path = tmp_path / "f.bin"
        write_field(path, Field.zero(grid))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotError, match="expected 128 samples"):
            read_field(path)


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCliSolve:
    def test_soliton_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "solve.cfg",
            "initial=soliton\nsoliton_carrier=2.0\nsoliton_scale=1.0\n"
            "length=128\npoints=1024\nt_final=0.02\ndt=0.00125\nrecord_every=4\n",
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final relative L2 error" in out
        inv = (tmp_path / "out" / "invariants.csv").read_text()
        assert inv.startswith("# config_hash=")
        assert "t,mass,momentum,modulation_norm" in inv
        assert (tmp_path / "out" / "trajectory.bin").exists()
        assert (tmp_path / "out" / "final_state.bin").exists()

    def test_zero_amplitude_random_gives_flat_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "zero.cfg",
            "initial=random\namplitude=0\nlength=64\npoints=256\n"
            "t_final=0.02\ndt=0.005\nrecord_every=1\n",
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = [
            line
            for line in (tmp_path / "out" / "invariants.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        assert all(row.split(",")[1] == "0.0" for row in rows)

    def test_tiny_amplitude_keeps_its_modulation_norm(self, tmp_path):
        # the mass (~1e-339) underflows to 0.0; the modulation norm (~1e-170)
        # is still a double and must be written
        cfg = write_cfg(
            tmp_path,
            "tiny.cfg",
            "initial=random\namplitude=1e-170\nlength=64\npoints=256\n"
            "t_final=0.016\ndt=1e-3\nrecord_every=8\n",
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "out" / "invariants.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        assert len(rows) == 2
        assert all(float(row[3]) > 0.0 for row in rows)

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2

    def test_solve_outputs_byte_deterministic(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "solve.cfg",
            "initial=random\namplitude=0.2\nmax_xi=5\nlength=64\npoints=256\n"
            "t_final=0.04\ndt=0.005\nrecord_every=2\n",
        )
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
            blobs.append(
                (out / "invariants.csv").read_bytes()
                + (out / "trajectory.bin").read_bytes()
                + (out / "final_state.bin").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_file_initial_matches_soliton_initial(self, tmp_path):
        grid = GridSpec(length=64.0, points=256)
        write_field(tmp_path / "u0.bin", soliton_field(SolitonParams(carrier=2.0, scale=1.0), 0.0, grid))
        run = "length=64\npoints=256\nt_final=0.02\ndt=0.00125\nrecord_every=4\n"
        outputs = {}
        for name, initial in (
            ("soliton", "initial=soliton\nsoliton_carrier=2.0\nsoliton_scale=1.0\n"),
            ("file", f"initial=file\nfile={tmp_path / 'u0.bin'}\n"),
        ):
            cfg = write_cfg(tmp_path, f"{name}.cfg", initial + run)
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs[name] = [
                (tmp_path / name / out).read_bytes() for out in ("final_state.bin", "trajectory.bin")
            ]
        assert outputs["file"] == outputs["soliton"]

    def test_file_on_another_grid_exits_2_with_one_line(self, tmp_path, capsys):
        grid = GridSpec(length=64.0, points=512)
        write_field(tmp_path / "u0.bin", soliton_field(SolitonParams(carrier=2.0, scale=1.0), 0.0, grid))
        cfg = write_cfg(
            tmp_path,
            "file.cfg",
            f"initial=file\nfile={tmp_path / 'u0.bin'}\n"
            "length=64\npoints=256\nt_final=0.02\ndt=0.00125\nrecord_every=4\n",
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "does not match" in err

    def test_overflowing_step_count_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "huge.cfg",
            "initial=soliton\nsoliton_carrier=2.0\nsoliton_scale=1.0\n"
            "length=128\npoints=1024\nt_final=1e300\ndt=1e-300\nrecord_every=4\n",
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: dt = 1e-300 does not divide the horizon T = 1e+300")
        assert err.count("\n") == 1

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", "initial=soliton\nwavelength=3\n")
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "wavelength" in capsys.readouterr().err


class TestCliIllposed:
    def make_cfg(self, tmp_path, **over):
        body = {
            "s": "0.125", "p": "4", "T": "1.0",
            "N_min": "16", "N_max": "128", "theta": "0.125",
        }
        body.update(over)
        return write_cfg(
            tmp_path, "ill.cfg", "".join(f"{k}={v}\n" for k, v in body.items())
        )

    def test_default_plan_passes_and_writes(self, tmp_path):
        cfg = self.make_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["illposed", "--config", cfg, "--out", str(out)])
        assert rc == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"] is True
        text = (out / "records.csv").read_text()
        assert text.startswith("# config_hash=")
        # 2 header comments + column row + 4 records
        assert len(text.splitlines()) == 3 + 4

    def test_determinism_byte_identical(self, tmp_path):
        cfg = self.make_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["illposed", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["illposed", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "verdict.json").read_bytes() == (out2 / "verdict.json").read_bytes()

    def test_zero_jobs_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = self.make_cfg(tmp_path)
        out = tmp_path / "o"
        rc = main(["illposed", "--config", cfg, "--out", str(out), "--jobs", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "config error: jobs must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_min, n_max", [("16", "64"), ("64", "16")])
    def test_sweep_too_short_to_fit_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, n_min, n_max
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = self.make_cfg(tmp_path, N_min=n_min, N_max=n_max)
        out = tmp_path / "o"
        rc = main(["illposed", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "at least 4" in err
        assert err.count("\n") == 1
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("n_min", ["1", "0.5"])
    def test_carrier_not_above_one_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, n_min
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = self.make_cfg(tmp_path, N_min=n_min, N_max="16")
        out = tmp_path / "o"
        rc = main(["illposed", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"config error: N_min must exceed 1, got {float(n_min):g}\n"
        assert not (out / "records.csv").exists()

    def test_boundary_s_refused(self, tmp_path, capsys):
        cfg = self.make_cfg(tmp_path, s="0.25")
        rc = main(["illposed", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "0 <= s < 1/4" in capsys.readouterr().err

    def test_neg_regime_passes(self, tmp_path):
        cfg = self.make_cfg(tmp_path, s="-0.125", theta="0.55")
        rc = main(["illposed", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_plan_that_can_only_fail_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = self.make_cfg(tmp_path, s="-0.02", p="8", theta="0.9")
        rc = main(["illposed", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: theta = 0.9 gives diff0 the exponent")
        assert err.count("\n") == 1

    def test_quadrature_failure_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        # weights that double with the order: successive rules never agree
        real = solitons._leggauss

        def diverging(order):
            nodes, weights = real(order)
            return nodes, weights * order

        monkeypatch.setattr(solitons, "_leggauss", diverging)
        cfg = self.make_cfg(tmp_path)
        rc = main(["illposed", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cube quadrature failed to converge")
        assert err.count("\n") == 1

    def test_run_imports_no_polynomial_or_masked_arrays(self, tmp_path):
        # numpy.polynomial came with the eigensolver rule and numpy.ma with
        # np.median's first call; each import cost every fresh process time
        cfg = self.make_cfg(tmp_path)
        script = (
            "import sys\n"
            "from mkdvlab.cli import main\n"
            f"assert main(['illposed', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
            "print(sorted(m for m in ('numpy.polynomial', 'numpy.ma') if m in sys.modules))\n"
        )
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "[]"


class TestCliProbe:
    def test_resonance_probe(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.cfg", "probes=resonance\n")
        out = tmp_path / "out"
        rc = main(["probe", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "probes.json").read_text())
        assert doc["reports"][0]["max_ratio"] <= 1e-12

    def test_empty_probe_list(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.cfg", "probes=\n")
        out = tmp_path / "out"
        rc = main(["probe", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "probes.json").read_text())
        assert doc["reports"] == []

    def test_custom_corpus_reports_without_calibration(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "p.cfg", "probes=bilinear_cube\ncorpus_seed=7\ncorpus_size=24\n"
        )
        out = tmp_path / "out"
        rc = main(["probe", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "probes.json").read_text())
        (rep,) = doc["reports"]
        assert rep["calibration"] is None
        assert rep["within_calibration"] is None
        assert rep["max_ratio"] > 0

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_nonpositive_corpus_size_exits_2_with_one_line(self, tmp_path, capsys, size):
        cfg = write_cfg(tmp_path, "p.cfg", f"probes=trilinear\ncorpus_size={size}\n")
        rc = main(["probe", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: corpus_size must be >= 1")
        assert err.count("\n") == 1

    def test_corpus_too_small_for_a_family_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.cfg", "probes=bilinear_lp\ncorpus_size=4\n")
        rc = main(["probe", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "bilinear_lp" in err and "corpus_size >= 5" in err


class TestCliNorms:
    def test_norms_of_stored_sech(self, tmp_path):
        grid = GridSpec(length=128.0, points=2048)
        f = Field.from_function(grid, lambda x: 1.0 / np.cosh(x))
        write_field(tmp_path / "sech.bin", f)
        cfg = write_cfg(
            tmp_path, "n.cfg", f"field={tmp_path / 'sech.bin'}\ns=0\np=2\n"
        )
        out = tmp_path / "out"
        rc = main(["norms", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "norms.json").read_text())
        assert doc["sobolev"] == pytest.approx(np.sqrt(2.0), rel=1e-8)
        assert doc["modulation"] <= doc["sobolev"] * 4.0

    def test_truncated_field_exits_2_with_one_line(self, tmp_path, capsys):
        grid = GridSpec(length=64.0, points=128)
        path = tmp_path / "cut.bin"
        write_field(path, Field.zero(grid))
        path.write_bytes(path.read_bytes()[:20])
        cfg = write_cfg(tmp_path, "n.cfg", f"field={path}\ns=0\np=2\n")
        rc = main(["norms", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "cut.bin" in err
        assert err.count("\n") == 1

    def test_invalid_field_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "coarse.bin"
        path.write_bytes(b"MKDVFLD1" + struct.pack("<dq", 1.0, 4) + bytes(16 * 4))
        cfg = write_cfg(tmp_path, "n.cfg", f"field={path}\ns=0\np=2\n")
        rc = main(["norms", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "coarse.bin" in err
        assert err.count("\n") == 1


SOLVE_RUN = "length=128\npoints=1024\nt_final=0.02\ndt=0.00125\nrecord_every=4\n"
SOLITON_SOLVE = "initial=soliton\nsoliton_carrier=2.0\nsoliton_scale=1.0\n" + SOLVE_RUN
ILLPOSED = "s=0.125\np=4\nT=1.0\ntheta=0.125\n"
RANDOM_SOLVE = (
    "initial=random\nmax_xi={max_xi}\nlength=64\npoints=256\n"
    "t_final=0.04\ndt=0.005\nrecord_every=2\n"
)


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command, text, flags",
        [
            ("solve", SOLITON_SOLVE.replace("soliton_carrier=2.0\n", ""), []),
            ("solve", "initial=file\nfile={tmp}/absent.bin\n" + SOLVE_RUN, []),
            ("illposed", ILLPOSED + "N_min=inf\nN_max=inf\n", []),
            ("illposed", ILLPOSED + "N_min=0\nN_max=128\n", []),
            ("solve", SOLITON_SOLVE.replace("t_final=0.02", "t_final=inf"), []),
            ("solve", SOLITON_SOLVE.replace("t_final=0.02\ndt=0.00125", "t_final=-0.02\ndt=-0.00125"), []),
            ("norms", "field={tmp}/sech.bin\ns=nan\np=2\n", []),
            ("norms", "field={tmp}/sech.bin\ns=0\np=nan\n", []),
            ("probe", "probes=trilinear\ncorpus_seed=-1\n", []),
            ("probe", "probes=foo\n", []),
            ("solve", SOLITON_SOLVE, ["--seed", "-1"]),
            ("solve", RANDOM_SOLVE.format(max_xi=0), []),
            ("solve", RANDOM_SOLVE.format(max_xi=-1), []),
        ],
        ids=[
            "soliton-without-carrier", "missing-file", "N-inf", "N-zero", "t_final-inf", "t_final-negative",
            "norms-s-nan", "norms-p-nan", "corpus_seed-negative", "unknown-probe",
            "seed-negative", "max_xi-zero", "max_xi-negative",
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, text, flags):
        grid = GridSpec(length=128.0, points=2048)
        write_field(tmp_path / "sech.bin", Field.from_function(grid, lambda x: 1 / np.cosh(x)))
        cfg = write_cfg(tmp_path, "c.cfg", text.format(tmp=tmp_path))
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("solve", SOLITON_SOLVE.replace("dt=0.00125\n", ""), "dt"),
            ("illposed", ILLPOSED.replace("T=1.0\n", "") + "N_min=16\nN_max=128\n", "T"),
            ("probe", "corpus_seed=3\n", "probes"),
            ("norms", "field={tmp}/sech.bin\ns=0\n", "p"),
        ],
        ids=["solve", "illposed", "probe", "norms"],
    )
    def test_missing_required_key_exits_2_with_one_line(self, tmp_path, capsys, command, text, key):
        grid = GridSpec(length=128.0, points=2048)
        write_field(tmp_path / "sech.bin", Field.from_function(grid, lambda x: 1 / np.cosh(x)))
        cfg = write_cfg(tmp_path, "c.cfg", text.format(tmp=tmp_path))
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"config error: missing required config key {key!r} for '{command}'\n"

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        listed: dict[str, set[str]] = {}
        for command, key in re.findall(r"^\| `(\w+)` \| `(\w+)` \|", readme, re.M):
            listed.setdefault(command, set()).add(key)
        assert listed == {command: set(schema) for command, schema in cli._SCHEMAS.items()}
