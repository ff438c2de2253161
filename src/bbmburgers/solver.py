"""Time integration of the full equation and of the linearized auxiliary flows.

The linear part is applied exactly through its Fourier multiplier over each
step; only the (smoothed, dealiased) quadratic term and the variable-
coefficient convection are advanced by the fourth-order exponential
Runge-Kutta stages.  This makes the beta = 0 limit bit-for-bit equal to the
semigroup, which the oracle tests exploit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Field, GridSpec, half_spectrum_energy
from .errors import ConfigError, InstabilityError
from .profiles import ModelParams, chi, chi_xx

__all__ = [
    "Trajectory",
    "StepStats",
    "rhs_nonlinear",
    "step_etdrk4",
    "integrate",
    "solve_aux",
    "solve_second_aux",
    "validity_horizon",
]

_EXP_FLOOR = -700.0
_PHI_SMALL = 1e-2  # below this |z|, closed forms cancel; switch to Taylor
_PHI_TERMS = 13
_BLOWUP_FACTOR = 1e6
_MAX_HALVINGS = 3
_NONLINEAR_STABILITY = 2.8  # explicit RK4-type stability radius


def validity_horizon(grid: GridSpec) -> float:
    """Latest time at which the diffusive scale stays far from the box edge."""
    return (grid.half_width / 8.0) ** 2


# ---------------------------------------------------------------------------
# phi functions and ETD-RK4 coefficients

def _phi(z, j: int):
    """phi_j(z) = sum_{n>=0} z^n / (n+j)! with a series branch at small |z|."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SMALL
    zs = z[small]
    acc = np.full_like(zs, 1.0 / math.factorial(_PHI_TERMS - 1 + j))
    for n in range(_PHI_TERMS - 2, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(n + j)
    out[small] = acc
    zb = z[~small]
    ez = np.exp(zb)
    if j == 1:
        out[~small] = (ez - 1.0) / zb
    elif j == 2:
        out[~small] = (ez - 1.0 - zb) / zb**2
    elif j == 3:
        out[~small] = (ez - 1.0 - zb - 0.5 * zb**2) / zb**3
    else:
        raise ConfigError(f"phi_{j} not implemented")
    return out


class _EtdCoeffs:
    """Precomputed ETD-RK4 tableau for one linear multiplier and one dt."""

    __slots__ = ("dt", "E", "E2", "Q", "f1", "f2", "f3")

    def __init__(self, lin: np.ndarray, dt: float):
        z = dt * lin
        p1, p2, p3 = _phi(z, 1), _phi(z, 2), _phi(z, 3)
        self.dt = dt
        self.E = np.exp(z)
        self.E2 = np.exp(0.5 * z)
        self.Q = dt * 0.5 * _phi(0.5 * z, 1)
        self.f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = dt * (p2 - 2.0 * p3)
        self.f3 = dt * (-p2 + 4.0 * p3)


# ---------------------------------------------------------------------------
# Half-spectrum multipliers

def _bbmb_linear(grid: GridSpec, gamma: float):
    xi2 = grid.xi_half**2
    return (-xi2 + 1j * gamma * grid.xi_half_odd * xi2) / (1.0 + xi2)


def _nonlinear_multiplier(grid: GridSpec, beta: float):
    """-(beta/2) i xi / (1 + xi^2), the symbol of -(beta/2) d_x (1 - d_xx)^{-1}
    acting on u^2, zeroed outside the 2/3-rule band."""
    mult = -(0.5 * beta) * 1j * grid.xi_half_odd / (1.0 + grid.xi_half**2)
    return np.where(grid.dealias, mult, 0.0)


def _nyquist_fraction(uhat, band):
    e = half_spectrum_energy(uhat)
    total = e.sum()
    return float(e[band].sum() / total) if total > 0.0 else 0.0


def _march(uhat, t0, n_steps, coeffs: _EtdCoeffs, nl, threshold, band):
    """Advance n_steps of ETD-RK4; returns the new spectrum and the peak
    Nyquist-band magnitude seen along the way."""
    dt = coeffs.dt
    t = t0
    nyq_peak = 0.0
    for _ in range(n_steps):
        Nu = nl(uhat, t)
        a = coeffs.E2 * uhat + coeffs.Q * Nu
        Na = nl(a, t + 0.5 * dt)
        b = coeffs.E2 * uhat + coeffs.Q * Na
        Nb = nl(b, t + 0.5 * dt)
        c = coeffs.E2 * a + coeffs.Q * (2.0 * Nb - Nu)
        Nc = nl(c, t + dt)
        uhat = (
            coeffs.E * uhat
            + coeffs.f1 * Nu
            + 2.0 * coeffs.f2 * (Na + Nb)
            + coeffs.f3 * Nc
        )
        t += dt
        peak = float(np.abs(uhat).max())
        if not math.isfinite(peak) or peak > threshold:
            raise InstabilityError(
                f"spectral magnitude {peak:.3e} exceeded guard at t={t:.4g}"
            )
        band_peak = float(np.abs(uhat[band]).max())
        if band_peak > nyq_peak:
            nyq_peak = band_peak
    return uhat, nyq_peak


# ---------------------------------------------------------------------------
# Public single-operator entry points

def rhs_nonlinear(u: Field, p: ModelParams) -> Field:
    """-(beta/2) d_x (1 - d_xx)^{-1} (u^2), with 2/3-rule dealiasing of u^2."""
    g = u.grid
    sq_hat = np.fft.rfft(u.values * u.values)
    out = np.fft.irfft(_nonlinear_multiplier(g, p.beta) * sq_hat, n=g.n_points)
    return Field(g, out)


def _bbmb_nl(grid: GridSpec, p: ModelParams):
    mult = _nonlinear_multiplier(grid, p.beta)
    N = grid.n_points

    def nl(uhat, t):
        u = np.fft.irfft(uhat, n=N)
        return mult * np.fft.rfft(u * u)

    return nl


def _dt_max_bbmb(p: ModelParams, amplitude: float) -> float:
    # the nonlinear multiplier |xi|/(1+xi^2) is bounded by 1/2
    rate = max(0.5 * abs(p.beta) * amplitude, 1e-12)
    return _NONLINEAR_STABILITY / rate


def step_etdrk4(u: Field, t: float, dt: float, p: ModelParams) -> Field:
    """One fourth-order exponential step of the full equation."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    amp = float(np.abs(u.values).max())
    if dt > _dt_max_bbmb(p, amp):
        raise ConfigError(f"dt={dt} exceeds the stability guard for this state")
    g = u.grid
    coeffs = _EtdCoeffs(_bbmb_linear(g, p.gamma), dt)
    uhat = np.fft.rfft(u.values)
    init = float(np.abs(uhat).max())
    threshold = _BLOWUP_FACTOR * init if init > 0.0 else math.inf
    uhat, _ = _march(uhat, t, 1, coeffs, _bbmb_nl(g, p), threshold, g.nyquist_band)
    return Field(g, np.fft.irfft(uhat, n=g.n_points))


# ---------------------------------------------------------------------------
# Trajectories

@dataclass
class StepStats:
    t_start: float
    t_end: float
    dt: float
    n_steps: int
    nyquist_peak: float


@dataclass
class Trajectory:
    params: ModelParams
    grid: GridSpec
    times: np.ndarray
    snapshots: list
    mass_log: np.ndarray
    nyquist_fraction: np.ndarray
    step_stats: list = field(default_factory=list)
    dt_halvings: int = 0  # times the blow-up sentinel halved dt (at most 3)

    def validate(self):
        m0 = self.mass_log[0]
        tol = 1e-8 * max(1.0, abs(m0))
        drift = float(np.abs(self.mass_log - m0).max())
        if drift > tol:
            raise InstabilityError(f"mass drift {drift:.3e} exceeds tolerance")
        if np.any(self.nyquist_fraction >= 1e-6):
            raise InstabilityError("Nyquist-band energy above resolution threshold")
        return self


def _check_samples(grid: GridSpec, t_samples) -> np.ndarray:
    ts = np.asarray(t_samples, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ConfigError("t_samples must be a nonempty 1-D sequence")
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise ConfigError("t_samples must be strictly increasing and nonnegative")
    horizon = validity_horizon(grid)
    if ts[-1] > horizon:
        raise ConfigError(
            f"max sample time {ts[-1]:.4g} beyond validity window (L/8)^2 = {horizon:.4g}"
        )
    return ts


def _run_trajectory(grid, p, u0_values, t_samples, dt_target, linear, nl):
    band = grid.nyquist_band
    dx = grid.dx
    uhat = np.fft.rfft(u0_values)
    init = float(np.abs(uhat).max())
    threshold = _BLOWUP_FACTOR * init if init > 0.0 else math.inf

    times, snaps, masses, fracs, stats = [], [], [], [], []

    def record(t, uhat, values=None):
        u = np.fft.irfft(uhat, n=grid.n_points) if values is None else values
        f = Field(grid, u)
        times.append(t)
        snaps.append(f)
        masses.append(dx * u.sum())
        fracs.append(_nyquist_fraction(uhat, band))
        if fracs[-1] >= 1e-6:
            raise InstabilityError(
                f"Nyquist-band energy fraction {fracs[-1]:.2e} at t={t:.4g}: "
                "grid no longer resolves the solution"
            )

    ts = t_samples
    t_prev = 0.0
    if ts[0] == 0.0:
        record(0.0, uhat, values=np.asarray(u0_values, dtype=np.float64))
        ts = ts[1:]
    dt_cur = dt_target
    halvings = 0
    coeff_cache = {}
    for t_next in ts:
        while True:
            span = t_next - t_prev
            n = max(1, int(math.ceil(span / dt_cur - 1e-12)))
            dt_seg = span / n
            if dt_seg not in coeff_cache:
                coeff_cache[dt_seg] = _EtdCoeffs(linear, dt_seg)
            try:
                new_hat, nyq = _march(
                    uhat, t_prev, n, coeff_cache[dt_seg], nl, threshold, band
                )
            except InstabilityError:
                halvings += 1
                if halvings > _MAX_HALVINGS:
                    raise
                dt_cur *= 0.5
                continue
            break
        stats.append(StepStats(t_prev, t_next, dt_seg, n, nyq))
        uhat = new_hat
        t_prev = t_next
        record(t_next, uhat)

    return Trajectory(
        p,
        grid,
        np.asarray(times),
        snaps,
        np.asarray(masses),
        np.asarray(fracs),
        stats,
        halvings,
    ).validate()


def integrate(
    u0: Field,
    p: ModelParams,
    t_samples,
    dt: float | None = None,
    max_amplitude: float = 0.5,
) -> Trajectory:
    """Integrate the full equation, sampling at t_samples.

    Small-data regime is enforced (||u0||_inf <= max_amplitude); dt defaults
    to the convection-limited guess and is halved (up to 3 times) whenever
    the blow-up sentinel trips.
    """
    ts = _check_samples(u0.grid, t_samples)
    amp = float(np.abs(u0.values).max())
    if amp > max_amplitude:
        raise ConfigError(
            f"||u0||_inf = {amp:.3g} exceeds the small-data cap {max_amplitude}"
        )
    dt_target = dt if dt is not None else min(0.1, 0.5 * u0.grid.dx / max(1.0, amp))
    if dt_target <= 0 or dt_target > _dt_max_bbmb(p, max(amp, 1e-12)):
        raise ConfigError(f"dt={dt_target} outside the stability guard")
    g = u0.grid
    return _run_trajectory(
        g, p, u0.values, ts, dt_target, _bbmb_linear(g, p.gamma), _bbmb_nl(g, p)
    )


# ---------------------------------------------------------------------------
# Linearized problems around the diffusion wave

class _ChiCache:
    """Analytic evaluation of chi at stage times, memoized on recent times."""

    def __init__(self, grid: GridSpec, p: ModelParams):
        self.x = grid.x
        self.p = p
        self._store = {}

    def __call__(self, t: float):
        got = self._store.get(t)
        if got is None:
            got = chi(self.x, t, self.p)
            if len(self._store) > 8:
                self._store.clear()
            self._store[t] = got
        return got


def _aux_nl(grid: GridSpec, p: ModelParams, lam):
    chi_at = _ChiCache(grid, p)
    dxi = np.where(grid.dealias, 1j * grid.xi_half_odd, 0.0)
    dxi_full = 1j * grid.xi_half_odd
    N = grid.n_points

    def nl(zhat, t):
        z = np.fft.irfft(zhat, n=N)
        out = -p.beta * dxi * np.fft.rfft(chi_at(t) * z)
        if lam is not None:
            out = out + dxi_full * np.fft.rfft(lam(t))
        return out

    return nl


def _lam_values(lam):
    if lam is None:
        return None

    def wrapped(t):
        v = lam(t)
        return v.values if isinstance(v, Field) else np.asarray(v, dtype=np.float64)

    return wrapped


def solve_aux(
    z0: Field,
    lam,
    p: ModelParams,
    t_samples,
    dt: float | None = None,
) -> Trajectory:
    """Linear convection-diffusion around the wave: z_t + (beta chi z)_x - z_xx = lam_x.

    The heat part is exact per step; the convection term and the forcing are
    advanced by the exponential stages with chi evaluated analytically at
    stage times.  lam is a callable t -> Field (or values), or None.
    """
    ts = _check_samples(z0.grid, t_samples)
    amp = float(np.abs(z0.values).max())
    g = z0.grid
    chi_peak = float(np.abs(chi(g.x, 0.0, p)).max())
    dt_guard = _NONLINEAR_STABILITY / max(abs(p.beta) * chi_peak * g.xi_half[-1], 1e-12)
    dt_target = dt if dt is not None else min(
        0.1, 0.5 * g.dx / max(1.0, amp), 0.5 * dt_guard
    )
    if dt_target > dt_guard:
        raise ConfigError(f"dt={dt_target} exceeds the convection stability guard")
    return _run_trajectory(
        g,
        p,
        z0.values,
        ts,
        dt_target,
        -(g.xi_half**2) + 0.0j,
        _aux_nl(g, p, _lam_values(lam)),
    )


def solve_second_aux(
    p: ModelParams, grid: GridSpec, t_samples, dt: float | None = None
) -> Trajectory:
    """Zero-data flow forced by the dispersive tail of the wave:
    v_t + (beta chi v)_x - v_xx = -gamma chi_xxx, v(0) = 0."""
    if abs(p.mass) > 1.0:
        raise ConfigError("|mass| <= 1 required by the wave decay estimates")
    z0 = Field(grid, np.zeros(grid.n_points))

    def lam(t):
        return -p.gamma * chi_xx(grid.x, t, p)

    return solve_aux(z0, lam if p.gamma != 0.0 else None, p, t_samples, dt=dt)
