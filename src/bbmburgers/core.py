"""Periodic grids, fields, the spectral layer and discrete norms.

The continuum line is truncated to a periodic box [-L, L).  All transforms
of real fields use the half (rfft) spectrum in the unnormalized engineering
convention; normalization lives in the norms and in the multiplier
definitions, so physical statements do not depend on the convention.
`GridSpec` carries the half-spectrum wavenumbers, the dealias mask and the
Nyquist band, and `GridSpec.deriv` is the one spectral derivative.
"""

import math

import numpy as np

from .errors import ConfigError, MassMismatchError, NumericsError

__all__ = [
    "GridSpec",
    "Field",
    "MEASUREMENT_FRACTION",
    "measurement_mask",
    "make_grid",
    "half_spectrum_energy",
    "lp_norm",
    "cumulative_trapezoid",
    "zero_mass_primitive",
    "smoothstep",
    "smoothstep_deriv",
    "tail_taper",
    "tail_taper_deriv",
]


# |x| <= MEASUREMENT_FRACTION * L is untapered: the tail taper is 1 there and
# the error norms are measured there
MEASUREMENT_FRACTION = 0.8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class GridSpec:
    """Uniform periodic grid on [-L, L) with N points (N a power of two).

    Attributes
    ----------
    half_width : float
        L; the domain is [-L, L).
    n_points : int
        N; number of grid points.
    dx : float
        Spacing, dx * N == 2 * L exactly.
    x : ndarray
        Grid points -L + j*dx, j = 0..N-1 (read-only).
    xi : ndarray
        Wavenumbers pi*k/L for k in [-N/2, N/2), FFT ordering, made on each
        access: only the direct oracles use the full spectrum, and a held
        copy costs two full-length arrays per grid.
    xi_odd : ndarray
        xi with the Nyquist mode zeroed, for odd powers of (i*xi), made on
        each access.
    xi_half, xi_half_odd : ndarray
        The same on the half spectrum of np.fft.rfft, k = 0..N/2 (the
        Nyquist wavenumber is positive here).
    dealias : ndarray of bool
        Half-spectrum modes kept by the 2/3 rule (k < N/3).
    nyquist_band : ndarray of bool
        The complement of dealias, where resolution loss shows first.
    """

    __slots__ = ("half_width", "n_points", "dx", "x", "xi_half", "xi_half_odd",
                 "dealias", "nyquist_band")

    def __init__(self, half_width: float, n_points: int):
        if not (half_width > 0):
            raise ConfigError(f"half_width must be positive, got {half_width}")
        if not _is_power_of_two(n_points) or n_points < 16:
            raise ConfigError(f"n_points must be a power of two >= 16, got {n_points}")
        L = float(half_width)
        N = int(n_points)
        self.half_width = L
        self.n_points = N
        self.dx = 2.0 * L / N
        x = -L + self.dx * np.arange(N)
        xi_half = 2.0 * np.pi * np.fft.rfftfreq(N, d=self.dx)
        xi_half_odd = xi_half.copy()
        xi_half_odd[-1] = 0.0
        dealias = np.arange(xi_half.size) < (N // 3)
        nyquist_band = ~dealias
        for arr in (x, xi_half, xi_half_odd, dealias, nyquist_band):
            arr.setflags(write=False)
        self.x = x
        self.xi_half = xi_half
        self.xi_half_odd = xi_half_odd
        self.dealias = dealias
        self.nyquist_band = nyquist_band

    @property
    def xi(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def xi_odd(self):
        xi = self.xi
        xi[self.n_points // 2] = 0.0
        return xi

    def deriv(self, values, l: int):
        """Spectral derivative of order l of real samples on this grid.

        The Nyquist mode is zeroed for odd l, whose multiplier is odd in xi
        and has no real value there.
        """
        if l < 0:
            raise ConfigError("derivative order must be nonnegative")
        if l == 0:
            return values
        xi = self.xi_half_odd if l % 2 else self.xi_half
        return np.fft.irfft((1j * xi) ** l * np.fft.rfft(values), n=self.n_points)

    def __repr__(self):
        return f"GridSpec(L={self.half_width}, N={self.n_points})"


def make_grid(L: float, N: int) -> GridSpec:
    """Build a GridSpec, rejecting non-power-of-two N and nonpositive L."""
    return GridSpec(L, N)


def measurement_mask(grid: GridSpec):
    """The measurement window |x| <= MEASUREMENT_FRACTION * L, as a mask of grid.x."""
    return np.abs(grid.x) <= MEASUREMENT_FRACTION * grid.half_width


class Field:
    """Real samples of a function on a GridSpec.  Immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (grid.n_points,):
            raise ConfigError(
                f"values shape {v.shape} does not match grid N={grid.n_points}"
            )
        if not np.all(np.isfinite(v)):
            raise NumericsError("Field contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        self.grid = grid
        self.values = v

    def mass(self) -> float:
        """Rectangle-rule integral dx * sum(values)."""
        return float(self.grid.dx * self.values.sum())

    def __repr__(self):
        return f"Field({self.grid!r}, max|u|={np.abs(self.values).max():.3e})"


def half_spectrum_energy(hat):
    """|c_k|^2 per half-spectrum mode of a real field, counting each interior
    mode twice (for +k and -k), so the sum is Parseval's full-spectrum sum."""
    e = 2.0 * np.abs(hat) ** 2
    e[0] *= 0.5
    e[-1] *= 0.5
    return e


def lp_norm(f: Field, p) -> float:
    """Discrete L^p norm: rectangle rule for p in {1, 2}, max for p = inf."""
    v = f.values
    if p == 1:
        return float(f.grid.dx * np.abs(v).sum())
    if p == 2:
        return float(math.sqrt(f.grid.dx * float(v @ v)))
    if p in (np.inf, math.inf, "inf"):
        return float(np.abs(v).max())
    raise ConfigError(f"unsupported norm p={p}; use 1, 2 or inf")


def cumulative_trapezoid(y, dx: float):
    """Running trapezoid integral of y on the uniform step dx, 0 at y[0].

    The arithmetic of scipy.integrate.cumulative_trapezoid(y, dx=dx,
    initial=0), so the two agree bit for bit.
    """
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def zero_mass_primitive(y, dx: float, what: str):
    """cumulative_trapezoid of y, which must integrate to 0 so the primitive decays:
    MassMismatchError, naming what y is, when |dx sum y| > 1e-6 max(1, dx sum|y|)."""
    total = dx * y.sum()
    scale = max(1.0, dx * np.abs(y).sum())
    if abs(total) > 1e-6 * scale:
        raise MassMismatchError(f"integral of {what} is {total:.3e}, expected 0")
    return cumulative_trapezoid(y, dx)


# ---------------------------------------------------------------------------
# Smooth cutoffs used to build initial data with prescribed tails.

def _bump(s):
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smoothstep(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly monotone between."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    a = _bump(s)
    b = _bump(1.0 - s)
    return a / (a + b)


def smoothstep_deriv(s):
    """Derivative of smoothstep; equals S(1-S)(1/s^2 + 1/(1-s)^2) inside (0, 1)."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    S = smoothstep(si)
    out[inside] = S * (1.0 - S) * (1.0 / si**2 + 1.0 / (1.0 - si) ** 2)
    return out


def tail_taper(grid: GridSpec):
    """C-infinity cutoff: 1 on the measurement window |x| <= MEASUREMENT_FRACTION*L,
    0 at the box edges."""
    L = grid.half_width
    ramp = (1.0 - MEASUREMENT_FRACTION) * L
    return smoothstep((L - np.abs(grid.x)) / ramp)


def tail_taper_deriv(grid: GridSpec):
    """x-derivative of tail_taper."""
    L = grid.half_width
    ramp = (1.0 - MEASUREMENT_FRACTION) * L
    s = (L - np.abs(grid.x)) / ramp
    return smoothstep_deriv(s) * (-np.sign(grid.x) / ramp)
