"""Scalar norm functionals on fields and space-time trajectories.

Conventions
-----------
* Sobolev:    ||f||_{H^s}    = ((2 pi)^{-1} sum <xi>^{2s} |u_hat|^2 dxi)^{1/2}
* Fourier-Lebesgue: ||f||_{FL^{s,p}} = (sum (<xi>^s |u_hat|)^p dxi)^{1/p}
  (sup over the lattice at p = inf); at p = 2 this equals
  sqrt(2 pi) * sobolev_norm, the factor coming from the (2 pi)^{-1/2}
  normalization carried by the L^2-based norms.
* Modulation: ||f||_{M^{2,p}_s} = || <n>^s ||Pi_n f||_{L^2} ||_{l^p_n} with the
  smooth cos^2 unit-cube windows.
* Space-time norms weight the distance <tau - xi^3> to the dispersion surface.
  The frequency-cube blocks of the l^p variant use sharp cubes [n, n+1), while
  the modulation norm uses smooth windows; the two conventions are deliberate
  and kept distinct.

Space-time values are diagnostics tied to the fixed time window and its
cos^2 taper (10% shoulders); they are representative upper bounds, never
restriction-norm infima.

Every X^{s,b} norm is a source of weighted tau-sums
sum_tau <tau - xi^3>^{2b} |st(tau, xi)|^2 per xi column, then a reduction of
them.  ``_tau_sums`` takes the windowed double transform of a (K, M)
trajectory the caller gives up (the public norms a copy of the samples, the
probes' trilinear product itself) in place.  For the free evolution of a
datum u_hat, st = G u_hat with G = dt FFT_t[eta(t_k) exp(i t_k xi^3)] fixed
by (grid, T_w, K), so ``_free_tau_sums`` reduces |u_hat|^2 against the
M-length column table H_b(xi) = sum_tau <tau - xi^3>^{2b} |G|^2.  The
reductions are ``_xi_l2`` (<xi>^s-weighted l^2) and ``_cube_lp``
(<n>^s-weighted l^p over sharp cubes).  Free evolutions, and the probes'
tapered products of them, are sampled by the one builder ``_free_product``.

No (K, M) temporary is made beside the one trajectory a tau-sum transforms:
the tau-sums, the dispersion check and the finiteness check run in blocks of
``_PRODUCT_ROWS`` rows, H_b in blocks of as many xi columns, and the (K, M)
tables (the phases exp(i t_k xi^3) and the trajectory norms' weight) are
built in place.  Each kind of table (phases, weight, H_b) keeps only the last
one built, and only if it fits in ``_TABLE_CACHE_BYTES``: the probes ask for
each table in one unbroken run of requests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    Field,
    GridSpec,
    ResolutionError,
    _coefficients,
    _coefficients_in_place,
    _ifft_kernel,
    _is_pow2,
    _peak_exponent,
    _scaled_squares,
    cos2_window,
    forward_transform,
)

__all__ = [
    "SpaceTimeField",
    "sobolev_norm",
    "fourier_lebesgue_norm",
    "modulation_norm",
    "cube_l2_profile",
    "free_evolution",
    "cos2_taper",
    "xsb_norm",
    "xsb_p_norm",
]

#: admissible relative spectral mass outside the window-covered band
TAIL_TOL = 1e-10

#: bytes of the one table each kind keeps (the probe corpus needs a 4 MiB
#: phase table and a 2 MiB weight); a larger table is rebuilt on every call
_TABLE_CACHE_BYTES = 8 * 2**20

#: rows (xi columns for H_b) per block of the space-time pipeline; 16 to
#: 128 rows time alike in the free-evolution products
_PRODUCT_ROWS = 64


def _check_exponent(p: float) -> None:
    """Refuse an l^p exponent below 1."""
    if not p >= 1:  # written so that nan is refused too
        raise ValueError(f"p must satisfy p >= 1, got {p}")


def _lp(values: np.ndarray, p: float) -> float:
    """l^p aggregation, sup for p = inf; values are nonnegative."""
    _check_exponent(p)
    if math.isinf(p):
        return float(np.max(values)) if values.size else 0.0
    # scale out the peak so large p does not underflow
    peak = float(np.max(values)) if values.size else 0.0
    if peak == 0.0:
        return 0.0
    return peak * float(np.sum((values / peak) ** p) ** (1.0 / p))


def _median(values) -> float:
    """Middle value, or (a + b) / 2 of the two middle ones; nan if any value is.

    Bit-equal to ``np.median``, whose first call imports ``numpy.ma``.
    """
    v = np.sort(np.asarray(values, dtype=float))  # nan sorts last
    if np.isnan(v[-1]):
        return math.nan
    mid = v.size // 2
    return float(v[mid]) if v.size % 2 else float((v[mid - 1] + v[mid]) / 2)


def _jap(a: np.ndarray | float) -> np.ndarray | float:
    """Japanese bracket <a> = (1 + a^2)^(1/2)."""
    return np.sqrt(1.0 + np.asarray(a, dtype=float) ** 2)


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm from the weighted spectral sum."""
    F = forward_transform(f)
    xi = f.grid.xi
    a2, e = _scaled_squares(F.coefficients)
    total = np.sum(_jap(xi) ** (2.0 * s) * a2)
    return math.ldexp(float(np.sqrt(total * f.grid.dxi / TWO_PI)), e)


def fourier_lebesgue_norm(f: Field, s: float, p: float) -> float:
    """FL^{s,p} norm: discrete L^p_xi norm of <xi>^s u_hat."""
    F = forward_transform(f)
    weighted = _jap(f.grid.xi) ** s * np.abs(F.coefficients)
    return float(_lp(weighted, p) * f.grid.dxi ** (1.0 / p))


def cube_l2_profile(f: Field, window=cos2_window) -> tuple[np.ndarray, np.ndarray]:
    """L^2 masses ||Pi_n f||_{L^2} for every covered cube n.

    Returns (n_values, masses).  Computed on the spectral side via Parseval,
    so the cost is O(M): each lattice frequency meets exactly two windows.
    Raises :class:`ResolutionError` when the spectral tail beyond the covered
    band carries more than TAIL_TOL of the total mass.
    """
    g = f.grid
    F = forward_transform(f)
    xi = g.xi
    a2, e = _scaled_squares(F.coefficients)
    total = float(np.sum(a2))
    # cubes n whose support [n - 1, n + 1] lies inside the resolved band
    lo, hi = g.band
    n_lo, n_hi = math.ceil(lo + 1.0), math.floor(hi - 1.0)
    if n_hi <= n_lo:
        raise ResolutionError("grid too small to cover any unit cube")
    if total > 0.0:
        outside = float(np.sum(a2[(xi <= n_lo) | (xi >= n_hi)]))
        if outside > TAIL_TOL * total:
            raise ResolutionError(
                f"spectral tail outside the covered band {n_lo} < xi < {n_hi} "
                f"holds {outside / total:.3e} of the mass (> {TAIL_TOL:.0e}); "
                f"widen the resolved band [{lo:.4g}, {hi:.4g}]"
            )
    # every xi lies in windows floor(xi) and floor(xi)+1
    n_floor = np.floor(xi).astype(int)
    n_values = np.arange(n_lo, n_hi + 1)
    masses2 = np.zeros(n_values.size)
    for shift in (0, 1):
        n_tgt = n_floor + shift
        w2 = window(xi - n_tgt) ** 2 * a2
        sel = (n_tgt >= n_lo) & (n_tgt <= n_hi)
        np.add.at(masses2, n_tgt[sel] - n_lo, w2[sel])
    masses2 *= g.dxi / TWO_PI
    return n_values, np.ldexp(np.sqrt(masses2), e)


def modulation_norm(f: Field, s: float, p: float, window=cos2_window) -> float:
    """M^{2,p}_s norm: l^p over <n>^s-weighted unit-cube L^2 masses."""
    n_values, masses = cube_l2_profile(f, window=window)
    return _lp(_jap(n_values) ** s * masses, p)


# ---------------------------------------------------------------------------
# Space-time fields and X^{s,b}-type norms
# ---------------------------------------------------------------------------

def cos2_taper(times: np.ndarray, t_window: float) -> np.ndarray:
    """Temporal cutoff: cos^2 ramps over the first and last 10% of the window."""
    t = np.asarray(times, dtype=float)
    w = 0.1 * t_window
    eta = np.ones_like(t)
    lo = t < w
    hi = t > t_window - w
    eta[lo] = 0.5 - 0.5 * np.cos(np.pi * t[lo] / w)
    eta[hi] = 0.5 - 0.5 * np.cos(np.pi * (t_window - t[hi]) / w)
    return eta


def _window_taper(t_window: float, k: int) -> np.ndarray:
    """The taper eta(t_k) at the K window times t_k = k T_w / K."""
    return cos2_taper((t_window / k) * np.arange(k), t_window)


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of _PRODUCT_ROWS indices that cover range(n)."""
    return [slice(lo, lo + _PRODUCT_ROWS) for lo in range(0, n, _PRODUCT_ROWS)]


def _check_window(t_window: float, k: int) -> None:
    """Refuse K snapshots over [0, T_w) unless K is a power of two and 0 < T_w < inf."""
    if not _is_pow2(k):
        raise ValueError(f"snapshot count must be a power of two, got {k}")
    if not 0 < t_window < math.inf:  # written so that nan is refused too
        raise ValueError(f"time window must be positive and finite, got {t_window}")


def _check_trajectory(g: GridSpec, t_window: float, samples: np.ndarray) -> None:
    """Refuse (K, M) samples over [0, T_w) unless K is a power of two, 0 < T_w < inf, all finite."""
    if samples.ndim != 2 or samples.shape[1] != g.points:
        raise ValueError(f"samples must be (K, {g.points}), got {samples.shape}")
    _check_window(t_window, samples.shape[0])
    if not all(np.isfinite(samples[rows]).all() for rows in _blocks(samples.shape[0])):
        raise ValueError("space-time samples contain non-finite values")


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """K equispaced snapshots over the window [0, T_w), K a power of two.

    Snapshots are stored raw; the fixed cos^2 temporal taper is applied by the
    space-time transform (and exposed via :attr:`cutoff`).
    """

    grid: GridSpec
    t_window: float
    samples: np.ndarray  # (K, M) complex

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.complex128)
        _check_trajectory(self.grid, self.t_window, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_times(self) -> int:
        return self.samples.shape[0]

    @property
    def dt(self) -> float:
        return self.t_window / self.n_times

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_times)

    @property
    def cutoff(self) -> np.ndarray:
        return _window_taper(self.t_window, self.n_times)

    def field_at(self, index: int) -> Field:
        return Field(self.grid, self.samples[index])


def _last_table(build):
    """Keep the last read-only table ``build`` returned, if it fits in ``_TABLE_CACHE_BYTES``.

    A repeated key returns the kept table; a new key builds, and its table
    replaces the kept one.  A table larger than the budget is returned but
    not kept, and the kept table stays.  ``tables`` holds the kept entry.
    """
    tables = {}

    @functools.wraps(build)
    def cached(*key):
        if key in tables:
            return tables[key]
        table = build(*key)
        if table.nbytes <= _TABLE_CACHE_BYTES:
            tables.clear()
            tables[key] = table
        return table

    cached.tables = tables
    return cached


@_last_table
def _airy_phases(g: GridSpec, t_window: float, n_times: int) -> np.ndarray:
    """Read-only (K, M) table exp(i t_k xi^3) of the free flow at the K window times t_k."""
    _check_window(t_window, n_times)
    phases = np.zeros((n_times, g.points), dtype=complex)
    xi3 = g.xi**3
    # row by row, like _weight: i t_k xi^3 in the imaginary parts
    for row, t in zip(phases.imag, (t_window / n_times) * np.arange(n_times)):
        np.multiply(t, xi3, out=row)
    np.exp(phases, out=phases)
    phases.setflags(write=False)
    return phases


def _free_product(coefs, g: GridSpec, t_window: float, eta: np.ndarray, conj=()) -> np.ndarray:
    """eta(t_k) times the free evolutions of the u_hat in ``coefs``, multiplied pointwise in order.

    K = ``eta.size`` snapshots over [0, T_w); factor j enters conjugated when
    j is in ``conj``.  Only the (K, M) result is full size: per block of
    _PRODUCT_ROWS rows and per factor it takes the phase product with
    (-1)^k u_hat (the transform phase, an exact sign flip), an in-place
    inverse transform whose per-row kernel factor eta(t_k)/L carries the
    inverse's 1/(M dx), the conjugate, and the product into the result's
    rows.  Every step is row-local, so the bits are the whole-array
    product's.  At eta = 1 one factor is the longhand free evolution bit for
    bit (numpy divides by dx as a multiply by M/L); under a taper it is eta
    times the longhand bit for bit when L is a power of two, within two
    roundings otherwise.
    """
    k = eta.size
    phases = _airy_phases(g, t_window, k)
    fct = np.divide(eta, g.length)
    signed = [g._phase() * c for c in coefs]
    out = np.empty((k, g.points), dtype=complex)
    block = np.empty((min(_PRODUCT_ROWS, k), g.points), dtype=complex)
    for rows in _blocks(k):
        head = out[rows]
        for j, c in enumerate(signed):
            w = head if j == 0 else block[: head.shape[0]]
            np.multiply(phases[rows], c, out=w)
            _ifft_kernel(w, fct[rows], out=w)
            if j in conj:
                np.conj(w, out=w)
            if j > 0:
                np.multiply(head, w, out=head)
    return out


def free_evolution(f: Field, t_window: float, n_times: int) -> SpaceTimeField:
    """Trajectory of the free (Airy) flow sampled over [0, T_w)."""
    g = f.grid
    samples = _free_product((_coefficients(f.values, g),), g, t_window, np.ones(n_times))
    return SpaceTimeField(g, t_window, samples)


def _check_dispersion_resolved(g: GridSpec, t_window: float, k: int, col_peak: np.ndarray) -> None:
    """Refuse a window whose temporal band cannot resolve the xi^3 dispersion.

    ``col_peak`` is the largest modulus of each xi column of the windowed
    spatial coefficients; the message reports the snapshot count that would
    resolve the occupied band.
    """
    peak = float(np.max(col_peak))
    tau_nyq = np.pi * k / t_window
    if peak > 0.0:
        occupied = col_peak > 1e-13 * peak
        xi_occ = float(np.max(np.abs(g.xi[occupied])))
        if xi_occ**3 > 0.8 * tau_nyq:
            k_need = 1 << max(1, math.ceil(math.log2(t_window * xi_occ**3 / (0.8 * np.pi))))
            raise ResolutionError(
                f"temporal band tau_max = {tau_nyq:.4g} cannot resolve the "
                f"dispersion xi^3 = {xi_occ ** 3:.4g} of the occupied band; "
                f"need at least K = {k_need} snapshots"
            )


def _space_time_coefficients(buf: np.ndarray, g: GridSpec, t_window: float) -> np.ndarray:
    """Windowed double transform of the trajectory ``buf`` over [0, T_w), written over it.

    ``buf`` is a (K, M) complex128 array the caller gives up.  It gets
    :class:`SpaceTimeField`'s checks, then the taper, the spatial transform,
    the time FFT and the dt scaling, all in place: the result is ``buf``,
    holding the coefficients on the (tau, xi) lattice.  Between the two
    transforms it checks that the temporal band resolves the xi^3 dispersion
    of the occupied spatial band, and reports the snapshot count that would.
    """
    _check_trajectory(g, t_window, buf)
    k = buf.shape[0]
    np.multiply(_window_taper(t_window, k)[:, None], buf, out=buf)
    spatial = _coefficients_in_place(buf, g)
    col_peak = np.zeros(g.points)
    for rows in _blocks(k):
        np.maximum(col_peak, np.max(np.abs(spatial[rows]), axis=0), out=col_peak)
    _check_dispersion_resolved(g, t_window, k, col_peak)
    np.fft.fft(spatial, axis=0, out=spatial)
    return np.multiply(t_window / k, spatial, out=spatial)


def _weight(g: GridSpec, t_window: float, k: int, b: float, cols=slice(None)) -> np.ndarray:
    """Read-only weight <tau - xi^3>^{2b} on the windowed double-transform lattice.

    (K, M), or (K, n) for the n xi columns ``cols``.  Built in place; ``**=``
    takes the scalar-power paths that ``**`` takes, so the bits are those of
    (1 + (tau - xi^3)^2)^b.
    """
    tau = TWO_PI * np.fft.fftfreq(k, d=t_window / k)
    xi3 = g.xi[cols] ** 3
    w_tau = np.empty((k, xi3.size))
    # row by row: a broadcast ufunc call takes a 64 KiB buffer per broadcast operand
    for row, t in zip(w_tau, tau):
        np.subtract(t, xi3, out=row)
    w_tau **= 2
    w_tau += 1.0
    w_tau **= b
    w_tau.setflags(write=False)
    return w_tau


#: the weight of the trajectory norms, the last (grid, T_w, K, b) kept
_modulation_weight = _last_table(_weight)


@_last_table
def _column_table(g: GridSpec, t_window: float, k: int, b: float) -> np.ndarray:
    """Read-only M-length table H_b(xi) = sum_tau <tau - xi^3>^{2b} |G(tau, xi)|^2.

    G = dt FFT_t[eta(t_k) exp(i t_k xi^3)] is the windowed double transform
    of the free evolution of u_hat = 1, so the free evolution of any u_hat has
    st = G u_hat and weighted tau-sums |u_hat(xi)|^2 H_b(xi).  Only this
    M-length table is kept.  It is reduced per block of _PRODUCT_ROWS xi
    columns, each a (K, n) gain and weight built and dropped; every step is
    column-local, so the bits are the whole-array reduction's.
    """
    dt = t_window / k
    eta = _window_taper(t_window, k)[:, None]
    phases = _airy_phases(g, t_window, k)
    col = np.empty(g.points)
    for cols in _blocks(g.points):
        gain = eta * phases[:, cols]
        np.fft.fft(gain, axis=0, out=gain)
        np.multiply(dt, gain, out=gain)
        # |G|^2 = Re^2 + Im^2, formed in the real parts of the block
        parts = gain.view(np.float64).reshape(*gain.shape, 2)
        np.square(parts, out=parts)
        gain2 = np.add(parts[..., 0], parts[..., 1], out=parts[..., 0])
        np.multiply(_weight(g, t_window, k, b, cols), gain2, out=gain2)
        np.sum(gain2, axis=0, out=col[cols])
    col.setflags(write=False)
    return col


def _tau_sums(buf: np.ndarray, g: GridSpec, t_window: float, b: float) -> tuple:
    """(sum_tau <tau - xi^3>^{2b} |st|^2 2^-2e) and e: the weighted tau-sums of ``buf``.

    ``buf`` is a (K, M) array the caller gives up: st is written over it.
    The weighted scaled squares are formed per block of _PRODUCT_ROWS rows,
    the first row of each taking the sums of the rows before it, so the rows
    are added in numpy's sequential axis-0 order: the bits are the
    whole-array sum's, and no (K, M) temporary is made.
    """
    st = _space_time_coefficients(buf, g, t_window)
    w_tau = _modulation_weight(g, t_window, st.shape[0], b)
    blocks = _blocks(st.shape[0])
    e = _peak_exponent(max(float(np.max(np.abs(st[rows]))) for rows in blocks))
    col = np.zeros(g.points)  # 0 + x is x for the nonnegative terms
    for rows in blocks:
        a2, _ = _scaled_squares(st[rows], e)
        np.multiply(w_tau[rows], a2, out=a2)
        np.add(col, a2[0], out=a2[0])
        col = np.sum(a2, axis=0)
    return col, e


def _free_tau_sums(coef: np.ndarray, g: GridSpec, t_window: float, k: int, b: float) -> tuple:
    """(|u_hat|^2 2^-2e) H_b and e: the weighted tau-sums of the free evolution of u_hat."""
    # the taper is 1 at the sample t = T_w / 2, so |u_hat| is each column's peak
    _check_dispersion_resolved(g, t_window, k, np.abs(coef))
    a2, e = _scaled_squares(coef)
    return np.multiply(_column_table(g, t_window, k, b), a2, out=a2), e


def _xi_l2(col: np.ndarray, e: int, g: GridSpec, t_window: float, s: float) -> float:
    """<xi>^s-weighted l^2_xi of the tau-sums ``col`` (scaled by 4^-e): the X^{s,b} norm."""
    total = np.sum(_jap(g.xi) ** (2.0 * s) * col)
    return math.ldexp(float(np.sqrt(total * g.dxi * (TWO_PI / t_window)) / TWO_PI), e)


def _cube_lp(col: np.ndarray, e: int, g: GridSpec, t_window: float, s: float, p: float) -> float:
    """l^p_n of the <n>^s-weighted sharp-cube contents of the tau-sums ``col`` (scaled by 4^-e)."""
    col = col * g.dxi * (TWO_PI / t_window) / TWO_PI**2
    cubes = np.floor(g.xi).astype(int)
    n_values = np.arange(cubes.min(), cubes.max() + 1)
    block2 = np.zeros(n_values.size)
    np.add.at(block2, cubes - cubes.min(), col)
    return math.ldexp(_lp(_jap(n_values) ** s * np.sqrt(block2), p), e)


def xsb_norm(u: SpaceTimeField, s: float, b: float) -> float:
    """X^{s,b} norm: <xi>^s <tau - xi^3>^b weighted space-time L^2."""
    g, t_window = u.grid, u.t_window
    return _xi_l2(*_tau_sums(np.array(u.samples), g, t_window, b), g, t_window, s)


def xsb_p_norm(u: SpaceTimeField, s: float, b: float, p: float) -> float:
    """l^p-over-frequency-cubes X^{s,b} variant.

    Blocks are the sharp cubes [n, n+1): the L^2 content of each cube is
    weighted by <n>^s and aggregated in l^p_n.  At p = 2 this agrees with
    :func:`xsb_norm` up to the <n>-vs-<xi> weight equivalence on each cube.
    """
    g, t_window = u.grid, u.t_window
    return _cube_lp(*_tau_sums(np.array(u.samples), g, t_window, b), g, t_window, s, p)
