"""Hypothesis property tests for the structural invariants and the readers."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvlab.io import ConfigError, SnapshotError, read_config, read_field, read_trajectory
from mkdvlab.norms import modulation_norm, sobolev_norm
from mkdvlab.probes import resonance_identity
from mkdvlab.spectral import (
    Field,
    GridSpec,
    SpectralField,
    airy_propagator,
    forward_transform,
    inverse_transform,
    unit_cube_project,
)

GRID = GridSpec(length=64.0, points=256)


def field_from_seed(seed: int, max_xi: float = 8.0) -> Field:
    rng = np.random.default_rng(seed)
    coef = np.exp(-((GRID.xi / 3.0) ** 2)) * (
        rng.standard_normal(GRID.points) + 1j * rng.standard_normal(GRID.points)
    )
    coef[np.abs(GRID.xi) > max_xi] = 0.0
    return inverse_transform(SpectralField(GRID, coef))


finite_t = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_plancherel_for_arbitrary_fields(seed):
    f = field_from_seed(seed)
    coeffs = forward_transform(f).coefficients
    phys = np.sum(np.abs(f.values) ** 2) * GRID.dx
    spec = np.sum(np.abs(coeffs) ** 2) * GRID.dxi / (2 * np.pi)
    assert spec == pytest.approx(phys, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, t1=finite_t, t2=finite_t)
def test_airy_group_law_and_unitarity(seed, t1, t2):
    f = field_from_seed(seed)
    ab = airy_propagator(airy_propagator(f, t1), t2)
    once = airy_propagator(f, t1 + t2)
    scale = max(np.max(np.abs(f.values)), 1e-30)
    assert np.max(np.abs(ab.values - once.values)) < 1e-11 * scale
    assert once.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    re=st.floats(min_value=-10, max_value=10, allow_nan=False),
    im=st.floats(min_value=-10, max_value=10, allow_nan=False),
    s=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    p=st.floats(min_value=1.0, max_value=16.0, allow_nan=False),
)
def test_norm_absolute_homogeneity(seed, re, im, s, p):
    c = complex(re, im)
    f = field_from_seed(seed)
    g = Field(GRID, c * f.values)
    assert modulation_norm(g, s, p) == pytest.approx(
        abs(c) * modulation_norm(f, s, p), rel=1e-12, abs=1e-300
    )
    assert sobolev_norm(g, s) == pytest.approx(
        abs(c) * sobolev_norm(f, s), rel=1e-12, abs=1e-300
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    p=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    bump=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
)
def test_modulation_lp_monotonicity(seed, p, bump):
    q = p + bump  # q > p: larger exponent never increases the norm
    f = field_from_seed(seed)
    assert modulation_norm(f, 0.25, q) <= modulation_norm(f, 0.25, p) + 1e-14


@settings(max_examples=50, deadline=None)
@given(
    xi1=st.floats(min_value=-50, max_value=50, allow_nan=False),
    xi2=st.floats(min_value=-50, max_value=50, allow_nan=False),
    xi3=st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_resonance_identity_pointwise(xi1, xi2, xi3):
    lhs, rhs = resonance_identity(xi1, xi2, xi3)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@settings(max_examples=20, deadline=None)
@given(
    seed=seeds,
    n=st.integers(min_value=-8, max_value=8),
    gap=st.integers(min_value=2, max_value=6),
)
def test_disjoint_cube_projectors_annihilate(seed, n, gap):
    f = field_from_seed(seed)
    m = n + gap
    if abs(m) + 1 > GRID.xi_max:
        return
    g = unit_cube_project(unit_cube_project(f, n), m)
    assert np.max(np.abs(g.values)) < 1e-13 * max(np.max(np.abs(f.values)), 1e-30)


# ---------------------------------------------------------------------------
# Readers: any byte string gives a parsed value or the reader's named error
# ---------------------------------------------------------------------------

small_ints = st.integers(min_value=-2, max_value=9)
any_floats = st.floats(allow_nan=True, allow_infinity=True)
samples = st.complex_numbers(allow_nan=True, allow_infinity=True)


@st.composite
def _snapshot(draw, magic, header_fmt, header_values, count):
    """Magic, header and a sample block whose size usually matches the header."""
    values = draw(header_values)
    n = draw(st.just(max(count(values), 0)) | st.integers(0, 40))
    body = np.array(draw(st.lists(samples, min_size=n, max_size=n)), dtype="<c16")
    return magic + struct.pack(header_fmt, *values) + body.tobytes()


sizes = st.sampled_from([2, 3, 4, 8]) | small_ints
field_bytes = st.binary(max_size=64) | _snapshot(
    b"MKDVFLD1",
    "<dq",
    st.tuples(any_floats | st.sampled_from([1.0, 64.0]), sizes),
    lambda v: v[1],
)
trajectory_bytes = st.binary(max_size=64) | _snapshot(
    b"MKDVTRJ1",
    "<dqqdbd",
    st.tuples(
        any_floats | st.just(64.0),
        sizes,
        sizes,
        any_floats | st.just(1e-3),
        st.sampled_from([1, -1]) | st.integers(-128, 127),
        any_floats | st.just(0.5),
    ),
    lambda v: v[1] * v[2],
)


@settings(max_examples=50, deadline=None)
@given(raw=st.binary(max_size=200) | st.text(max_size=100).map(str.encode))
def test_read_config_gives_dict_or_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        cfg = read_config(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
    else:
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in cfg.items())


@settings(max_examples=50, deadline=None)
@given(raw=field_bytes)
def test_read_field_gives_field_or_snapshot_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz_field.bin"
    path.write_bytes(raw)
    try:
        f = read_field(path)
    except SnapshotError as exc:
        assert str(path) in str(exc)
    else:
        assert f.values.shape == (f.grid.points,)


@settings(max_examples=50, deadline=None)
@given(raw=trajectory_bytes)
def test_read_trajectory_gives_trajectory_or_snapshot_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz_trajectory.bin"
    path.write_bytes(raw)
    try:
        traj, dt, sign = read_trajectory(path)
    except SnapshotError as exc:
        assert str(path) in str(exc)
    else:
        assert traj.samples.shape == (traj.n_times, traj.grid.points)
        assert np.isfinite(dt) and dt != 0.0 and sign in (-1, 1)
