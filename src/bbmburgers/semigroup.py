"""Exact Fourier-multiplier operators for the linearized dynamics.

T(t) is the full linear propagator with multiplier
exp((-t xi^2 + i gamma t xi^3) / (1 + xi^2)), G(t) the heat semigroup,
and (1 - d_xx)^{-1} the nonlocal smoothing inverse with kernel e^{-|x|}/2.
The U-operator is the Gaussian-with-weights representation of the
linearized convection-diffusion flow around the diffusion wave.
"""

import math

import numpy as np

from .core import Field, half_spectrum_energy, zero_mass_primitive
from .errors import ConfigError, NumericsError
from .profiles import ModelParams, dx_eta_heat, eta, panel_gauss_nodes

__all__ = [
    "T_apply",
    "G_apply",
    "TG_gap",
    "helmholtz_inv",
    "helmholtz_inv_direct",
    "U_apply",
]


def t_multiplier(xi, xi_odd, t: float, gamma: float):
    """Multiplier of T(t); the odd (dispersive) part is zeroed at Nyquist so
    the operator maps real fields to real fields on the discrete grid."""
    xi2 = xi * xi
    re = -t * xi2 / (1.0 + xi2)
    im = gamma * t * xi_odd * xi2 / (1.0 + xi2)
    return np.exp(re + 1j * im)


def g_multiplier(xi, t: float):
    return np.exp(-t * xi * xi)


def _apply_multiplier(f: Field, mult) -> Field:
    """Apply a half-spectrum multiplier to a real field."""
    values = np.fft.irfft(mult * np.fft.rfft(f.values), n=f.grid.n_points)
    return Field(f.grid, values)


def T_apply(f: Field, t: float, p: ModelParams) -> Field:
    """Apply the linear BBM-Burgers propagator over time t >= 0."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    g = f.grid
    return _apply_multiplier(f, t_multiplier(g.xi_half, g.xi_half_odd, t, p.gamma))


def G_apply(f: Field, t: float) -> Field:
    """Apply the heat semigroup over time t >= 0."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    return _apply_multiplier(f, g_multiplier(f.grid.xi_half, t))


def TG_gap(f: Field, t: float, p: ModelParams, l: int = 0) -> float:
    """L2 norm of the l-th derivative of (T - G)(t) * f, via Parseval."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    g = f.grid
    diff = t_multiplier(g.xi_half, g.xi_half_odd, t, p.gamma) - g_multiplier(g.xi_half, t)
    xi = g.xi_half_odd if l % 2 else g.xi_half
    spec = (1j * xi) ** l * diff * np.fft.rfft(f.values)
    return float(math.sqrt(g.dx / g.n_points * float(half_spectrum_energy(spec).sum())))


def helmholtz_inv(f: Field) -> Field:
    """(1 - d_xx)^{-1} via the multiplier 1/(1 + xi^2)."""
    return _apply_multiplier(f, 1.0 / (1.0 + f.grid.xi_half**2))


_HELMHOLTZ_CUTOFF = 40.0  # kernel support kept by helmholtz_inv_direct, |u| <= 40
_QUAD_LIMIT = 200  # subinterval budget of the adaptive quadrature


def helmholtz_inv_direct(f: Field, x_eval):
    """Cross-check route for the Helmholtz inverse: real-space convolution
    with e^{-|u|}/2, truncated at |u| <= 40 (truncation error e^{-40} ~ 4e-18
    times max|f|).

    One adaptive vector quadrature in the shift u = s - x0 integrates the
    kernel against the trigonometric interpolant of f at every x0 in x_eval
    at once, split at the kernel kink u = 0.  The interpolant comes from one
    FFT of f; each quadrature node costs one matrix-vector product.
    Raises NumericsError if the quadrature does not converge.
    """
    from scipy import integrate as spi

    g = f.grid
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=np.float64))
    # the trigonometric interpolant of f, from its one full FFT; phase
    # convention: values[j] = sum_k coeff[k] exp(i xi_k (x_j + L))
    xi = g.xi
    coeff = np.fft.fft(f.values) / g.n_points
    phase = np.exp(1j * np.outer(x_eval + g.half_width, xi))

    def integrand(u: float):
        return 0.5 * math.exp(-abs(u)) * (phase @ (np.exp(1j * u * xi) * coeff)).real

    val, _, info = spi.quad_vec(
        integrand,
        -_HELMHOLTZ_CUTOFF,
        _HELMHOLTZ_CUTOFF,
        points=[0.0],
        epsabs=1e-11,
        epsrel=1e-11,
        limit=_QUAD_LIMIT,
        norm="max",
        full_output=True,
    )
    if info.status != 0:
        raise NumericsError(f"helmholtz_inv_direct quadrature failed: {info.message}")
    return val


def U_apply(h: Field, t: float, tau: float, p: ModelParams) -> Field:
    """Linearized convection-diffusion flow applied to h from time tau to t.

    The primitive of h is core.zero_mass_primitive, anchored at the left box
    edge (where the integrand is negligible for mass-zero data), weighted by
    eta^{-1} at time tau, and integrated against the closed-form kernel
    d/dx[G(x - y, t - tau) eta(x, t)] by panel Gauss-Legendre quadrature
    (panels of width sqrt(t - tau)): profiles.dx_eta_heat of order 1 with
    s = t - tau, the kernel sums of the Z oracle Z_eval_quadrature.
    """
    from scipy.interpolate import CubicSpline

    if not (t > tau >= 0.0):
        raise ConfigError("U requires t > tau >= 0")
    g = h.grid
    w_grid = zero_mass_primitive(h.values, g.dx, "h") / eta(g.x, tau, p)
    spline = CubicSpline(g.x, w_grid)

    dt = t - tau
    width = min(max(math.sqrt(dt), 0.5), 25.0)
    y, wq = panel_gauss_nodes(g.x[0], g.x[-1], width)
    keep = (y >= g.x[0]) & (y <= g.x[-1])
    y, wq = y[keep], wq[keep]
    return Field(g, dx_eta_heat(g.x, y, wq * spline(y), dt, t, p, 1))
