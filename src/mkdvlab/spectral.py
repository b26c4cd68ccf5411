"""Periodic spectral substrate: grids, transforms, frequency projectors, propagators.

The real line is approximated by the torus [-L/2, L/2) sampled at M points.
All spectral coefficients use the continuum convention

    u_hat(xi) = integral u(x) exp(-i xi x) dx,

realized as the dx-weighted DFT, so that coefficients are grid-independent
approximations of the continuum transform and Parseval reads

    sum_j |u(x_j)|^2 dx = (2 pi)^{-1} sum_k |u_hat(xi_k)|^2 dxi.

The convention lives in one private pair, ``_coefficients_in_place`` and
``_samples``, which transform along the last axis (a (K, M) trajectory row
by row).  The forward half writes over a complex128 array its caller owns;
``_coefficients`` applies it to a copy, so it and ``_samples`` each allocate
one result array and never write into their input.  ``_ifft_kernel`` and
``_fft_kernel`` bind numpy's pocketfft gufuncs, the kernels behind
``np.fft``, for the callers that fold this convention's scalings into the
kernel factor (the solver's time loop, the free-evolution samples of
:mod:`mkdvlab.norms`).
``forward_transform`` and ``inverse_transform`` wrap the pair for
single fields, and every multiplier (derivatives, projectors, the Airy
group) is one call of :func:`fourier_multiplier`.  Only the solver's time
loop keeps its own unnormalised coefficients.

A grid may be heterodyned: centred in frequency at xi0 = offset * dxi for an
even integer offset.  A field on such a grid stores v(x_j) = exp(-i xi0 x_j)
u(x_j), so its DFT coefficients approximate u_hat at the true frequencies
xi_k = xi0 + 2 pi k / L, which is what ``GridSpec.xi`` returns.  Symbols,
windows and weights evaluated at ``grid.xi`` therefore need no change, and
a narrow band far from zero (a soliton pair at carrier N) costs points in
proportion to its width, not to N.  Resolution checks measure the band
relative to xi0 through ``GridSpec.band``.  Code built for xi0 = 0 (the
solver's padded cubic term), sampling a function of x
(``Field.from_function``) and snapshot headers without an offset refuse
offset grids with :class:`OffsetGridError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath

TWO_PI = 2.0 * np.pi

# pocketfft's complex kernels (numpy >= 2.0): kernel(a, fct, out=) transforms
# along the last axis and multiplies by fct; np.fft.ifft passes 1/n and
# np.fft.fft passes 1.  fct has gufunc signature (), so an array of shape
# (K,) against a (K, M) stack scales row k by fct[k].
_ifft_kernel = _pocketfft_umath.ifft
_fft_kernel = _pocketfft_umath.fft


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class ResolutionError(ValueError):
    """The grid (or time window) cannot resolve the requested object."""


class OffsetGridError(ValueError):
    """An operation that cannot work in the xi0 frame was given an offset grid."""


def _is_pow2(m: int) -> bool:
    """True for an integer m >= 2 that is a power of two; False for a float such as 256.0."""
    return isinstance(m, (int, np.integer)) and m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2) with M points (M a power of two).

    The frequency lattice is xi_k = xi0 + 2 pi k / L for k = -M/2 .. M/2 - 1,
    stored in FFT order, with band centre xi0 = offset * dxi.  Construction
    enforces dxi <= 1/8 so every unit frequency cube carries at least 8
    lattice samples.

    With offset != 0 the grid is heterodyned: fields store
    exp(-i xi0 x) u(x), which is L-periodic because the offset is an integer.
    The offset must also be even, so that exp(i xi_k L/2) = (-1)^k holds for
    the true frequencies and the transform phase :meth:`_phase` stays (-1)^k.
    """

    length: float
    points: int
    offset: int = 0

    def __post_init__(self) -> None:
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"grid length must be positive and finite, got {self.length}")
        if (
            isinstance(self.offset, bool)
            or not isinstance(self.offset, (int, np.integer))
            or self.offset % 2
        ):
            raise ValueError(f"grid offset must be an even integer, got {self.offset!r}")
        object.__setattr__(self, "offset", int(self.offset))
        if not _is_pow2(self.points):
            raise ValueError(f"grid points must be a power of two, got {self.points}")
        if self.dxi > 0.125 + 1e-15:
            raise ValueError(
                f"frequency spacing dxi={self.dxi:.4g} exceeds 1/8; "
                f"need length >= {16 * np.pi:.4g}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def dxi(self) -> float:
        return TWO_PI / self.length

    @property
    def xi_nyquist(self) -> float:
        """Edge of the resolved band, pi/dx."""
        return np.pi / self.dx

    @property
    def xi_max(self) -> float:
        """Largest positive lattice frequency, xi_nyquist - dxi."""
        return self.xi_nyquist - self.dxi

    @property
    def xi0(self) -> float:
        """Band centre offset * dxi (0.0 on an ordinary grid)."""
        return self.offset * self.dxi

    @property
    def band(self) -> tuple[float, float]:
        """Resolved frequencies [xi0 - xi_max, xi0 + xi_max], symmetric about xi0."""
        return self.xi0 - self.xi_max, self.xi0 + self.xi_max

    @property
    def x(self) -> np.ndarray:
        return -0.5 * self.length + self.dx * np.arange(self.points)

    @property
    def xi(self) -> np.ndarray:
        """True frequency lattice xi0 + 2 pi k / L in FFT order."""
        xi = TWO_PI * np.fft.fftfreq(self.points, d=self.dx)
        return xi + self.xi0 if self.offset else xi

    def _phase(self) -> np.ndarray:
        # exp(+i xi_k L/2) = (-1)^k, accounting for the grid starting at -L/2
        ph = np.ones(self.points)
        ph[1::2] = -1.0
        return ph


def _peak_exponent(peak: float) -> int:
    """Binary exponent e of a modulus ``peak`` (peak < 2^e), clamped so that 2^-e stays finite."""
    return max(math.frexp(peak)[1], -1021)


def _scaled_squares(a: np.ndarray, e: int | None = None) -> tuple[np.ndarray, int]:
    """(|a| 2^-e)^2 and e, with e the binary exponent of max|a| unless given.

    Squares of tiny or huge moduli under- or overflow; scaling by a power of
    two first avoids that and is exact, so for moduli whose squares are
    normal numbers the result times 4^e equals |a|^2 bit for bit.  Passing
    the e of another array scales both by one common power of two.
    """
    mod = np.abs(a)
    if e is None:
        e = _peak_exponent(float(np.max(mod)) if mod.size else 0.0)
    np.multiply(mod, math.ldexp(1.0, -e), out=mod)
    return np.square(mod, out=mod), e


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Field:
    """One complex-valued spatial snapshot u(x_j) on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _freeze(self.values)
        if vals.shape != (self.grid.points,):
            raise ValueError(
                f"expected {self.grid.points} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        require_zero_offset(grid, "Field.from_function")
        return cls(grid, np.asarray(fn(grid.x), dtype=np.complex128))

    @classmethod
    def zero(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.points, dtype=np.complex128))

    def l2_norm(self) -> float:
        a2, e = _scaled_squares(self.values)
        return math.ldexp(float(np.sqrt(np.sum(a2) * self.grid.dx)), e)

    def inner(self, other: "Field") -> complex:
        """Discrete L^2 inner product <self, other> = sum self * conj(other) dx."""
        require_same_grid(self, other)
        return complex(np.sum(self.values * np.conj(other.values)) * self.grid.dx)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Frequency representation: coefficients approximating u_hat(xi_k), FFT order."""

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = _freeze(self.coefficients)
        if coef.shape != (self.grid.points,):
            raise ValueError(
                f"expected {self.grid.points} coefficients, got shape {coef.shape}"
            )
        object.__setattr__(self, "coefficients", coef)


def require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def require_zero_offset(grid: GridSpec, what: str) -> None:
    """Refuse an offset grid where ``what`` cannot work in the xi0 frame."""
    if grid.offset:
        raise OffsetGridError(
            f"{what} needs an offset-0 grid, got offset {grid.offset} "
            f"(xi0 = {grid.xi0:.6g})"
        )


def _coefficients_in_place(buf: np.ndarray, grid: GridSpec) -> np.ndarray:
    """dx-weighted DFT along the last axis, u_hat(xi_k) for each row of samples.

    Written over ``buf``, a complex128 array the caller owns.
    """
    np.fft.fft(buf, axis=-1, out=buf)
    return np.multiply(grid.dx * grid._phase(), buf, out=buf)


def _coefficients(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """:func:`_coefficients_in_place` of a complex128 copy of ``values``, which is only read."""
    return _coefficients_in_place(np.array(values, dtype=np.complex128), grid)


def _samples(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact inverse of :func:`_coefficients`, along the last axis.

    ``coef`` is only read.  The phase product allocates the one result
    array; the inverse FFT and the division by dx are written into it in
    place.
    """
    phased = grid._phase() * coef
    np.fft.ifft(phased, axis=-1, out=phased)
    return np.divide(phased, grid.dx, out=phased)


def forward_transform(f: Field) -> SpectralField:
    """dx-weighted DFT approximating u_hat(xi) = integral u exp(-i xi x) dx."""
    return SpectralField(f.grid, _coefficients(f.values, f.grid))


def inverse_transform(F: SpectralField) -> Field:
    """Exact inverse of :func:`forward_transform`."""
    return Field(F.grid, _samples(F.coefficients, F.grid))


def fourier_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """Apply the Fourier multiplier whose values at ``grid.xi`` are ``symbol``."""
    return Field(f.grid, _samples(symbol * _coefficients(f.values, f.grid), f.grid))


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral spatial derivative: the multiplier (i xi)^order."""
    if order < 0 or int(order) != order:
        raise ValueError(f"derivative order must be a nonnegative integer, got {order}")
    return fourier_multiplier(f, (1j * f.grid.xi) ** order)


# ---------------------------------------------------------------------------
# Frequency projectors
# ---------------------------------------------------------------------------

def dyadic_mask(xi: np.ndarray, n_dyadic: float) -> np.ndarray:
    """Sharp annulus indicator: |xi| <= 1 for N = 1, N/2 < |xi| <= N for N >= 2."""
    a = np.abs(xi)
    if n_dyadic == 1:
        return a <= 1.0
    return (a > n_dyadic / 2) & (a <= n_dyadic)


def littlewood_paley(f: Field, n_dyadic: float) -> Field:
    """Sharp dyadic frequency projector onto {|xi| ~ N}.

    The masks over N = 1, 2, 4, ... tile the band |xi| <= N_max exactly, so
    band-limited fields are reconstructed by summing the pieces.
    """
    k = np.log2(n_dyadic)
    if not 1 <= n_dyadic < math.inf or abs(k - round(k)) > 1e-12:  # refuses nan and inf too
        raise ValueError(f"projector scale must be dyadic >= 1, got {n_dyadic}")
    top = abs(f.grid.xi0) + f.grid.xi_nyquist
    if n_dyadic > top:
        raise ResolutionError(f"dyadic scale {n_dyadic} above the band edge {top:.4g}")
    return fourier_multiplier(f, dyadic_mask(f.grid.xi, n_dyadic))


def cos2_window(u: np.ndarray) -> np.ndarray:
    """cos^2 unit-cube window: psi(u) = cos(pi u / 2)^2 on [-1, 1], 0 outside.

    Satisfies psi(0) = 1, psi(+-1) = 0 and the exact partition of unity
    sum_n psi(u - n) = 1.
    """
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    return np.where(inside, np.cos(0.5 * np.pi * u) ** 2, 0.0)


def quartic_window(u: np.ndarray) -> np.ndarray:
    """Alternative admissible window: quartic bump renormalized to partition unity.

    Only the windows at n-1, n, n+1 overlap any point, so dividing the raw bump
    (1 - u^2)^2 by the sum of its three nearest shifts gives an exact partition.
    """
    u = np.asarray(u, dtype=float)

    def bump(v):
        inside = np.abs(v) < 1.0
        return np.where(inside, (1.0 - v**2) ** 2, 0.0)

    total = bump(u) + bump(u - 1.0) + bump(u + 1.0)
    out = np.zeros_like(u, dtype=float)
    nz = total > 0
    np.divide(bump(u), total, out=out, where=nz)
    return out


def unit_cube_project(f: Field, n: int) -> Field:
    """Apply the cos^2 unit-cube Fourier multiplier psi(xi - n)."""
    g = f.grid
    lo, hi = g.band
    if n - 1 < lo or n + 1 > hi:
        raise ResolutionError(
            f"cube n={n} needs the band [{n - 1}, {n + 1}], grid resolves "
            f"[{lo:.4g}, {hi:.4g}]"
        )
    return fourier_multiplier(f, cos2_window(g.xi - n))


def airy_propagator(f: Field, t: float) -> Field:
    """Free evolution exp(-t d_x^3): the Fourier multiplier exp(i xi^3 t).

    Unitary on L^2 and a one-parameter group in t.
    """
    return fourier_multiplier(f, np.exp(1j * f.grid.xi**3 * t))
