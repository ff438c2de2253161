"""Closed-form asymptotic profiles and the constants attached to them.

Everything here is a pure function of the model parameters: the nonlinear
diffusion wave chi and its self-similar generator chi_star, the exponential
weight eta linearizing convection around the wave, the log-correction
profile V, the slow-tail correction profile Z, and the scalar constants
(d, kappa, mu0, mu1, c_alpha tail limits) that set their amplitudes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc

from .core import Field, GridSpec, zero_mass_primitive
from .errors import ConfigError, NumericsError

__all__ = [
    "ModelParams",
    "ProfileSet",
    "chi_star",
    "chi_star_deriv",
    "chi_star_sup",
    "chi",
    "chi_x",
    "chi_and_chi_xx",
    "chi_t",
    "eta_star",
    "eta",
    "V_star",
    "V_star_from_derivative",
    "V_star_deriv",
    "V",
    "V_x",
    "Z_eval",
    "Z_eval_quadrature",
    "r0_eval",
    "extract_c_alpha_detailed",
    "constants",
    "fM_check",
    "panel_gauss_nodes",
    "dx_eta_heat",
]

SQRT_PI = math.sqrt(math.pi)
_SUP_ITERATIONS = 50  # chi_star_sup fixed-point iterations before giving up


@dataclass(frozen=True)
class ModelParams:
    """Physical and asymptotic parameters.

    beta  : convection coefficient; beta = 0 selects the linear limit, where
            the profiles degenerate continuously (chi becomes the heat
            profile carrying mass M and eta becomes 1)
    gamma : dispersion coefficient
    alpha : tail exponent of the initial data, > 1
    mass  : conserved integral of the solution
    """

    beta: float
    gamma: float
    alpha: float
    mass: float

    def __post_init__(self):
        if not (self.alpha > 1.0):
            raise ConfigError(f"alpha must exceed 1, got {self.alpha}")


@dataclass(frozen=True)
class ProfileSet:
    """Derived constants for one parameter set and one choice of tail limits.

    mu0 is only defined for 1 < alpha < 2 and is NaN otherwise.
    """

    params: ModelParams
    c_alpha_plus: float
    c_alpha_minus: float
    d: float
    kappa: float
    mu0: float
    mu1: float


def _denominator(x, p: ModelParams):
    """sqrt(pi) + (e^{beta M / 2} - 1) * int_{x/2}^inf e^{-y^2} dy, always positive."""
    em = math.expm1(0.5 * p.beta * p.mass)
    den = SQRT_PI + em * 0.5 * SQRT_PI * erfc(np.asarray(x) / 2.0)
    if np.any(den <= 0.0):
        raise NumericsError("diffusion-wave denominator lost positivity")
    return em, den


def chi_star(x, p: ModelParams):
    """Self-similar generator of the nonlinear diffusion wave.

    At beta = 0 the removable singularity is filled with the limit value
    (M/2) e^{-x^2/4} / sqrt(pi), the mass-M heat profile.
    """
    x = np.asarray(x, dtype=np.float64)
    em, den = _denominator(x, p)
    coeff = em / p.beta if p.beta != 0.0 else 0.5 * p.mass
    return coeff * np.exp(-(x**2) / 4.0) / den


def _chi_star_jet(y, p: ModelParams):
    """(c, c', c'') = chi_star and its first two derivatives at y from one
    chi_star evaluation: the stationary Burgers relation c' = -y c/2 + beta c^2/2
    and its derivative c'' = -c/2 - y c'/2 + beta c c'."""
    y = np.asarray(y, dtype=np.float64)
    c = chi_star(y, p)
    c1 = -0.5 * y * c + 0.5 * p.beta * c * c
    return c, c1, -0.5 * c - 0.5 * y * c1 + p.beta * c * c1


def chi_star_deriv(x, p: ModelParams):
    """chi_star' via the stationary Burgers relation chi' = -x chi/2 + beta chi^2/2."""
    return _chi_star_jet(x, p)[1]


def chi_star_sup(p: ModelParams) -> float:
    """sup|chi_star|, so sup|chi(., t)| = chi_star_sup / sqrt(1 + t) on any points.
    The extremum sits where chi_star' = 0, i.e. x = beta chi_star(x), and there
    the derivative of beta chi_star vanishes: the fixed-point iteration from
    x = 0 converges quadratically.  NumericsError if it has not."""
    x = 0.0
    for _ in range(_SUP_ITERATIONS):
        x_next = p.beta * float(chi_star(x, p))
        if abs(x_next - x) <= 1e-12 * (1.0 + abs(x)):
            return abs(float(chi_star(x_next, p)))
        x = x_next
    raise NumericsError(f"sup|chi_star| iteration did not converge (last x = {x!r})")


def chi(x, t, p: ModelParams):
    """Nonlinear diffusion wave at time t >= 0; chi(x, 0) == chi_star(x)."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    s = math.sqrt(1.0 + t)
    return chi_star(np.asarray(x) / s, p) / s


def chi_x(x, t, p: ModelParams):
    s = math.sqrt(1.0 + t)
    return chi_star_deriv(np.asarray(x) / s, p) / (1.0 + t)


def chi_and_chi_xx(x, t, p: ModelParams):
    """chi and chi_xx at one time from a single chi_star evaluation."""
    s = math.sqrt(1.0 + t)
    c, _, c2 = _chi_star_jet(np.asarray(x) / s, p)
    return c / s, c2 / (1.0 + t) ** 1.5


def chi_t(x, t, p: ModelParams):
    """Time derivative of chi, from the self-similar form."""
    s = math.sqrt(1.0 + t)
    y = np.asarray(x) / s
    c, c1 = _chi_star_jet(y, p)[:2]
    return -0.5 * (c + y * c1) / (1.0 + t) ** 1.5


def eta_star(x, p: ModelParams):
    """Exponential weight exp((beta/2) int_{-inf}^x chi_star), in closed form."""
    x = np.asarray(x, dtype=np.float64)
    em, den = _denominator(x, p)
    out = SQRT_PI * (1.0 + em) / den
    lo = min(1.0, 1.0 + em)
    hi = max(1.0, 1.0 + em)
    slack = 1e-12 * max(1.0, hi)
    if np.any(out < lo - slack) or np.any(out > hi + slack):
        raise NumericsError("eta_star left its analytic bounds")
    return out


def eta(x, t, p: ModelParams):
    return eta_star(np.asarray(x) / math.sqrt(1.0 + t), p)


def V_star(x, p: ModelParams):
    """Generator of the dispersion-induced log correction."""
    x = np.asarray(x, dtype=np.float64)
    return (
        (p.beta * chi_star(x, p) - x)
        * eta_star(x, p)
        * np.exp(-(x**2) / 4.0)
        / (4.0 * SQRT_PI)
    )


def V_star_from_derivative(x, p: ModelParams):
    """Same profile via d/dx(eta_star e^{-x^2/4})/sqrt(4 pi), chain rule expanded."""
    x = np.asarray(x, dtype=np.float64)
    es = eta_star(x, p)
    es_prime = 0.5 * p.beta * chi_star(x, p) * es
    gauss = np.exp(-(x**2) / 4.0)
    return (es_prime * gauss + es * (-0.5 * x) * gauss) / math.sqrt(4.0 * math.pi)


def V_star_deriv(x, p: ModelParams):
    """x-derivative of V_star."""
    x = np.asarray(x, dtype=np.float64)
    cs, cs1 = _chi_star_jet(x, p)[:2]
    es = eta_star(x, p)
    gauss = np.exp(-(x**2) / 4.0)
    half = 0.5 * (p.beta * cs - x)
    return es * gauss * (half * half + 0.5 * (p.beta * cs1 - 1.0)) / (2.0 * SQRT_PI)


def V(x, t, p: ModelParams, ps: ProfileSet):
    """Second asymptotic profile carrying the (1+t)^{-1} log(1+t) correction."""
    s = math.sqrt(1.0 + t)
    amp = -ps.kappa * ps.d * math.log1p(t) / (1.0 + t)
    return amp * V_star(np.asarray(x) / s, p)


def V_x(x, t, p: ModelParams, ps: ProfileSet):
    s = math.sqrt(1.0 + t)
    amp = -ps.kappa * ps.d * math.log1p(t) / (1.0 + t) ** 1.5
    return amp * V_star_deriv(np.asarray(x) / s, p)


# ---------------------------------------------------------------------------
# Panel Gauss-Legendre quadrature and the eta-weighted heat-kernel sums shared
# by the Z oracle and the U-operator.

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def panel_gauss_nodes(lo: float, hi: float, panel_width: float):
    """Gauss-Legendre nodes/weights on panels covering [lo, hi].

    Panel boundaries are anchored at 0 so that integrand kinks at the origin
    coincide with a panel edge.
    """
    if not (hi > lo):
        raise ConfigError("empty quadrature interval")
    h = float(panel_width)
    edges = []
    if lo < 0.0:
        n_neg = max(1, int(math.ceil(-lo / h)))
        edges.append(np.linspace(min(lo, -n_neg * h), 0.0, n_neg + 1))
    if hi > 0.0:
        n_pos = max(1, int(math.ceil(hi / h)))
        edges.append(np.linspace(0.0, max(hi, n_pos * h), n_pos + 1))
    boundaries = np.unique(np.concatenate(edges))
    a = boundaries[:-1]
    b = boundaries[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


# Reach of the heat-kernel blocks: exp(-z^2 / 4s) <= e^-40 ~ 4e-18 for
# |z| >= sqrt(160 s), the same e^-40 that bounds the truncation of helmholtz_inv_direct
_GAUSS_TAIL_EXPONENT = 40.0
_BAND_ROWS = 128  # evaluation points per block


def _gauss_bands(x, y, s: float):
    """Yields (rows, nodes): x cut into blocks of 128 consecutive points, each
    with the slice of the sorted nodes y within R = sqrt(160 s) of its points."""
    reach = math.sqrt(4.0 * _GAUSS_TAIL_EXPONENT * s)
    for i0 in range(0, x.size, _BAND_ROWS):
        rows = slice(i0, i0 + _BAND_ROWS)
        j0, j1 = np.searchsorted(y, (x[rows].min() - reach, x[rows].max() + reach))
        yield rows, slice(j0, j1)


def dx_eta_heat(x, y, wy, s: float, t: float, p: ModelParams, order: int):
    """d^order/dx^order [eta(x, t) sum_j G(x - y_j, s) wy_j] for order 1 or 2,
    at the points x, for sorted quadrature nodes y carrying weights wy.

    With b = beta chi(x, t) / 2 = eta'/eta, G' = -(x-y)/(2s) G and
    G'' = ((x-y)^2/(4s^2) - 1/(2s)) G, the kernels are
    d/dx (eta G) = eta G (b - (x-y)/(2s)) and
    d^2/dx^2 (eta G) = eta (G'' + 2 b G' + (b' + b^2) G), so every block
    needs one Gaussian and its moment sums G (x-y)^k wy for k <= order.

    Each block of 128 consecutive points of x sums only over the nodes within
    R = sqrt(160 s) of them.  Every dropped node has u = (x - y)^2 / 4s >= 40,
    so G <= e^-40 G(0), about 4e-18 G(0).  The x-derivative kernels carry G
    times |x - y|/2s = sqrt(u/s) and times (x - y)^2/4s^2 = u/s.  As u^k e^-u
    decreases for u > k, the dropped terms stay below sqrt(40) e^-40 ~ 3e-17
    of G(0)/sqrt(s), the scale of the first-derivative kernel, and below
    40 e^-40 ~ 2e-16 of G(0)/s, the scale of the second-derivative kernel.
    All of these bounds hold per unit of quadrature weight.
    """
    if order not in (1, 2):
        raise ConfigError(f"dx_eta_heat supports orders 1 and 2, got {order}")
    b = 0.5 * p.beta * chi(x, t, p)
    if order == 2:
        b1 = 0.5 * p.beta * chi_x(x, t, p)
    inv2s = 0.5 / s
    out = np.empty(x.size)
    for rows, nodes in _gauss_bands(x, y, s):
        z = np.subtract.outer(x[rows], y[nodes])
        g = z * z
        g *= -0.25 / s
        np.exp(g, out=g)
        m0 = g @ wy[nodes]
        g *= z
        m1 = g @ wy[nodes]
        br = b[rows]
        if order == 1:
            out[rows] = br * m0 - inv2s * m1
        else:
            g *= z
            m2 = g @ wy[nodes]
            out[rows] = (inv2s * inv2s * m2 - 2.0 * inv2s * br * m1
                         + (b1[rows] + br * br - inv2s) * m0)
        del z, g  # else two blocks' arrays are alive while the next is built
    return eta(x, t, p) * out / math.sqrt(4.0 * math.pi * s)


def _z_window(t: float, alpha: float, x_min: float, x_max: float):
    """Quadrature window: the prescribed core interval, extended so that the
    Gaussian tail discarded around every evaluation point is below 1e-12."""
    s = math.sqrt(t)
    Y = max(50.0 * s, 50.0 / (alpha - 1.0))
    lo = min(-Y, x_min - 12.0 * s)
    hi = max(Y, x_max + 12.0 * s)
    return lo, hi


def _z_args(x, t: float, p: ModelParams, derivative: int):
    if t <= 0.0:
        raise ConfigError("Z is defined for t > 0")
    if not (1.0 < p.alpha <= 2.0):
        raise ConfigError("Z requires 1 < alpha <= 2")
    if derivative not in (0, 1):
        raise ConfigError("Z_eval supports derivative orders 0 and 1 only")
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


# Heat-semigroup route: lattice step bound, reach of rho around each point in
# units of sqrt(t) (the Gaussian mass beyond 12 sqrt(t) is erfc(6) ~ 2e-17), and
# the relative tolerance within which x must be evenly spaced on a lattice through 0.
_Z_LATTICE_STEP = 0.05
_Z_KERNEL_REACH = 12.0
_Z_LATTICE_RTOL = 1e-9


def _z_lattice(x):
    """Lattice step h = dx/m, m the smallest integer giving h <= 0.05, and the
    integer index k of every point (x == k h).  A single point is spaced by
    its distance to 0."""
    if x.size > 1:
        dx = (x[-1] - x[0]) / (x.size - 1)
        if dx == 0.0 or np.abs(np.diff(x) - dx).max() > _Z_LATTICE_RTOL * abs(dx):
            raise ConfigError("Z_eval needs evenly spaced points")
    else:
        dx = x[0] if x[0] != 0.0 else _Z_LATTICE_STEP
    dx = abs(dx)
    h = dx / math.ceil(dx / _Z_LATTICE_STEP - _Z_LATTICE_RTOL)
    k = np.rint(x / h)
    if np.abs(x - k * h).max() > _Z_LATTICE_RTOL * h:
        raise ConfigError("Z_eval needs points on a lattice through x = 0")
    return h, k.astype(np.int64)


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length the FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _heat_lattice_terms(k, h: float, t: float, p: ModelParams, ps: ProfileSet,
                        rows: int):
    """Trapezoid sums over y_j = j h of G^(m)(x - y) rho(y), m < rows, at x = k h,
    with rho(0) the mean of its jump: G^(m)(t) rho up to _kink_terms and O(h^6).

    rho is sampled on the n_rho lattice points lo, ..., lo + n_rho - 1 within
    J h >= 12 sqrt(t) of some k.  Its one rfft, zero-padded to the smallest fast
    length n >= n_rho, is multiplied by the heat multiplier exp(-t xi^2) (i xi)^m
    of each row, and the irfft is read at k - lo.  Wrap: those outputs lie in
    [J, n_rho - 1 - J], more than J steps from every wrapped rho node, so these,
    like the nodes beyond J h left out, weigh at most the Gaussian tail beyond
    12 sqrt(t), where G <= e^-36 G(0).  Aliasing: the band |xi| <= pi/h misses
    exp(-t pi^2 / h^2) of the kernel, above e^(-4 pi^2) ~ 7e-18 for t < 4 h^2,
    where ConfigError is raised.  Returns a (rows, k.size) array.
    """
    if t < 4.0 * h * h:
        raise ConfigError(f"Z lattice step {h} needs t >= 4 h^2, got t = {t}")
    J = int(math.ceil(_Z_KERNEL_REACH * math.sqrt(t) / h))
    lo = int(k.min()) - J
    n_rho = int(k.max()) + J + 1 - lo
    n_fft = _fast_len(n_rho)

    y = h * np.arange(lo, lo + n_rho)
    rho = np.where(y >= 0.0, ps.c_alpha_plus, ps.c_alpha_minus) * (
        (1.0 + np.abs(y)) ** (1.0 - p.alpha)
    )
    if lo <= 0 < lo + n_rho:
        rho[-lo] = 0.5 * (ps.c_alpha_plus + ps.c_alpha_minus)

    i_xi = 1j * (2.0 * math.pi / (n_fft * h)) * np.arange(n_fft // 2 + 1)
    spec = np.fft.rfft(rho, n=n_fft) * np.exp(t * i_xi * i_xi)
    spec = spec * i_xi ** np.arange(rows)[:, None]
    return np.fft.irfft(spec, n=n_fft)[:, k - lo]


def _kink_terms(x, h: float, t: float, p: ModelParams, ps: ProfileSet, rows: int):
    """Euler-Maclaurin terms of the kink of rho at y = 0, which the trapezoid
    sums of _heat_lattice_terms miss: (h^2/12) [f'] - (h^4/720) [f'''] for
    f(y) = G^(m)(x - y) rho(y), m < rows, [.] the jump at 0, with
    [f'] = -G^(m+1) j0 + G^(m) j1,
    [f'''] = -G^(m+3) j0 + 3 G^(m+2) j1 - 3 G^(m+1) j2 + G^(m) j3 and
    j_i = (1-alpha)(-alpha)...(2-alpha-i) (c+ - (-1)^i c-), the jump of rho^(i).
    G^(n) = (-1/sqrt(4t))^n H_n(u) G at u = x/sqrt(4t), so each row is G times
    one Hermite series.  Returns a (rows, x.size) array.
    """
    falling = np.cumprod([1.0, 1.0 - p.alpha, -p.alpha, -1.0 - p.alpha])
    j = falling * (ps.c_alpha_plus - (-1.0) ** np.arange(4) * ps.c_alpha_minus)
    e2, e4 = h * h / 12.0, h**4 / 720.0
    shift = np.array([e2 * j[1] - e4 * j[3], 3.0 * e4 * j[2] - e2 * j[0],
                      -3.0 * e4 * j[1], e4 * j[0]])  # of G^(m), ..., G^(m+3)
    s = 1.0 / math.sqrt(4.0 * t)
    coef = np.zeros((rows + 3, rows))
    for m in range(rows):
        coef[m:m + 4, m] = shift * (-s) ** np.arange(m, m + 4)
    u = s * x
    return np.exp(-u * u) * (s / SQRT_PI) * np.polynomial.hermite.hermval(u, coef)


def Z_eval(x, t: float, p: ModelParams, ps: ProfileSet, derivative: int = 0):
    """Slow-tail correction profile: row l of the (derivative + 1, x.size)
    result is d_x^l Z, for derivative 0 or 1, all rows from one lattice.

    Z = d_x(eta(t) w) with w = G(t)[rho], rho(y) = c_alpha(y) (1+|y|)^{1-alpha},
    so Z = eta (w' + (beta/2) chi w) and, with b = beta chi / 2,
    Z_x = eta (w'' + 2 b w' + (b' + b^2) w).  The heat-semigroup terms w, w'
    (and w'' for Z_x) are trapezoid sums on the uniform lattice y = j h
    through 0 (_heat_lattice_terms: one rfft of rho, one irfft per term),
    with h = dx/m for the smallest integer m giving h <= 0.05 (dx the spacing
    of x), plus the closed-form Euler-Maclaurin terms of the kink of rho at
    y = 0 (_kink_terms), for an O(h^6) error.  x must therefore be evenly
    spaced on a lattice through 0, and t >= 4 h^2 (ConfigError otherwise;
    there is no dense fallback).  Z_eval_quadrature is the independent panel
    Gauss-Legendre oracle of one order, checked in checks.suite_identities.
    """
    x = _z_args(x, t, p, derivative)
    if ps.c_alpha_plus == 0.0 and ps.c_alpha_minus == 0.0:
        return np.zeros((derivative + 1, x.size))

    h, k = _z_lattice(x)
    rows = 2 + derivative
    w = _heat_lattice_terms(k, h, t, p, ps, rows) + _kink_terms(x, h, t, p, ps, rows)

    c, c1, _ = _chi_star_jet(x / math.sqrt(1.0 + t), p)
    b = 0.5 * p.beta * (c / math.sqrt(1.0 + t))
    e = eta(x, t, p)
    z = [e * (w[1] + b * w[0])]
    if derivative:
        b1 = 0.5 * p.beta * (c1 / (1.0 + t))
        z.append(e * (w[2] + 2.0 * b * w[1] + (b1 + b * b) * w[0]))
    return np.array(z)


_Z_PANEL_CAP = 5.0  # widest Z_eval_quadrature panel; its docstring bounds the error


def Z_eval_quadrature(x, t: float, p: ModelParams, ps: ProfileSet, derivative: int = 0):
    """Slow-tail correction profile (and its first x-derivative).

    Evaluates the y-integral of c_alpha(y) (1+|y|)^{1-alpha} against the
    closed-form x-derivatives of G(x-y, t) eta(x, t) by panel Gauss-Legendre
    quadrature, at any points x, through dx_eta_heat of order 1 + derivative
    with s = t.  Panels are w = min(sqrt(1 + t), 5) wide: next to the kink at
    y = 0 the 16-point rule sees (1 + |y|)^{1-alpha}, singular at distance 1
    from the panel, with an error of about r^-32, r = a + sqrt(a^2 - 1),
    a = 1 + 2/w: 1e-12 at w = 5 (3e-6 at w = 25).  This quadrature route is
    the oracle for Z_eval.  Only derivative orders 0 and 1 are supported in
    closed form.
    """
    x = _z_args(x, t, p, derivative)
    if ps.c_alpha_plus == 0.0 and ps.c_alpha_minus == 0.0:
        return np.zeros_like(x)

    lo, hi = _z_window(t, p.alpha, float(x.min()), float(x.max()))
    width = min(math.sqrt(1.0 + t), _Z_PANEL_CAP)
    y, w = panel_gauss_nodes(lo, hi, width)
    c_of_y = np.where(y >= 0.0, ps.c_alpha_plus, ps.c_alpha_minus)
    rho_w = w * c_of_y * (1.0 + np.abs(y)) ** (1.0 - p.alpha)
    return dx_eta_heat(x, y, rho_w, t, t, p, 1 + derivative)


def r0_eval(u0: Field, p: ModelParams) -> Field:
    """Weighted primitive of the deviation from the diffusion wave.

    Requires the mass of u0 to match p.mass (so the primitive decays,
    core.zero_mass_primitive); the primitive is anchored at the left box edge.
    """
    x = u0.grid.x
    prim = zero_mass_primitive(u0.values - chi_star(x, p), u0.grid.dx,
                               "u0 - chi_star (mass mismatch)")
    return Field(u0.grid, prim / eta_star(x, p))


def _tail_windows(grid: GridSpec):
    L = grid.half_width
    x = grid.x
    right = (x >= 0.5 * L) & (x <= 0.7 * L)
    left = (x <= -0.5 * L) & (x >= -0.7 * L)
    return left, right


def extract_c_alpha_detailed(r0: Field, p: ModelParams):
    """Window-averaged tail limits of r0, with the spread over each window.

    A limit below the round-off bound of its window mean is zeroed: r0 eta_star
    is a cumulative trapezoid, whose running sum carries an error of at most
    about N eps times the sum of its increments |dx (dev_k + dev_(k+1))/2|, and
    the window scaling multiplies it by up to max (1 + |x|)^(alpha-1) / eta_star.
    A zeroed limit is recorded, with the bound, under "zeroed_below_roundoff".
    """
    g = r0.grid
    left, right = _tail_windows(g)
    weight = (1.0 + np.abs(g.x)) ** (p.alpha - 1.0)
    scaled = weight * r0.values
    es = eta_star(g.x, p)
    increments = np.abs(np.diff(r0.values * es)).sum()
    bound = float(g.n_points * np.finfo(np.float64).eps * increments
                  * (weight / es)[left | right].max())
    out = {
        "c_plus": float(scaled[right].mean()),
        "c_minus": float(scaled[left].mean()),
        "c_plus_spread": float(scaled[right].std()),
        "c_minus_spread": float(scaled[left].std()),
        "window": [0.5 * g.half_width, 0.7 * g.half_width],
    }
    zeroed = {k: out[k] for k in ("c_plus", "c_minus") if 0.0 < abs(out[k]) < bound}
    if zeroed:
        out.update(dict.fromkeys(zeroed, 0.0))
        out["zeroed_below_roundoff"] = {"bound": bound, **zeroed}
    return out


_D_HALF_WIDTH = 16.0  # d integrates chi_star^3 / eta_star over [-16, 16]


def _d_integral(p: ModelParams) -> float:
    """d = int chi_star^3 / eta_star over the line, by panel Gauss-Legendre
    (16 nodes on each width-1 panel) on [-16, 16].

    Tail bound: with q = e^{beta M / 2} and den(x) between sqrt(pi) min(1, q)
    and sqrt(pi) max(1, q), the integrand is
    (em/beta)^3 e^{-3x^2/4} / (sqrt(pi) q den(x)^2), em = q - 1, at most
    e^{|beta M|} e^{-3x^2/4} times its value at x = 0.  The two tails beyond
    |x| = 16 hold at most e^{|beta M|} e^-192 / 12 ~ 3.4e-85 e^{|beta M|} of
    that value.  The adaptive quadrature of the same integral is the oracle,
    checked in checks.suite_identities.
    """
    y, w = panel_gauss_nodes(-_D_HALF_WIDTH, _D_HALF_WIDTH, 1.0)
    return float(w @ (chi_star(y, p) ** 3 / eta_star(y, p)))


def constants(
    p: ModelParams, c_alpha: tuple[float, float] | None = None
) -> ProfileSet:
    """Assemble the ProfileSet: d by panel Gauss-Legendre (_d_integral; the
    adaptive quadrature of the same integral is its oracle in
    `verify --suite identities`), kappa = beta^2 gamma / 8, the given tail
    limits (default 0, 0) and mu0/mu1.
    """
    cp, cm = (0.0, 0.0) if c_alpha is None else (float(c_alpha[0]), float(c_alpha[1]))
    d = _d_integral(p)
    kappa = p.beta**2 * p.gamma / 8.0
    if 1.0 < p.alpha < 2.0:
        chi0 = float(chi_star(np.array([0.0]), p)[0])
        mu0 = (cp - cm) * math.gamma(0.5 * (3.0 - p.alpha)) + (
            (cp + cm) * p.beta * chi0 / (2.0 - p.alpha)
        ) * math.gamma(2.0 - 0.5 * p.alpha)
    else:
        mu0 = math.nan
    mu1 = 0.5 * (cp + cm) - kappa * d
    return ProfileSet(p, cp, cm, d, kappa, mu0, mu1)


# ---------------------------------------------------------------------------
# Cross-implementation identities at beta = 1.

def _H_weight(x, M: float):
    return math.cosh(M / 4.0) - math.sinh(M / 4.0) * erf(np.asarray(x) / 2.0)


def _f_M(x, M: float):
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * math.sinh(M / 4.0) * np.exp(-(x**2) / 4.0) / (SQRT_PI * _H_weight(x, M))


def fM_check(p: ModelParams) -> dict:
    """Deviations of the two historical profile formulas from this module's.

    Evaluates the log-derivative form of the self-similar wave and the
    weighted-integral form of the log-correction generator, and returns the
    max deviation from chi_star and from -kappa d V_star on 2001 points of
    [-20, 20].
    Only defined for beta = 1.
    """
    from scipy import integrate as spi

    if p.beta != 1.0:
        raise ConfigError("the historical formulas assume beta = 1")
    x = np.linspace(-20.0, 20.0, 2001)
    M = p.mass

    f_M = _f_M(x, M)
    dev_f = float(np.abs(f_M - chi_star(x, p)).max())

    integral, _ = spi.quad(
        lambda y: _H_weight(y, M) * _f_M(np.array([y]), M)[0] ** 3,
        -np.inf,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    f_tilde = (
        -p.gamma
        * (f_M - x)
        * np.exp(-(x**2) / 4.0)
        / (32.0 * SQRT_PI * _H_weight(x, M))
        * integral
    )
    ps = constants(p)
    dev_ft = float(np.abs(f_tilde + ps.kappa * ps.d * V_star(x, p)).max())
    return {"max_dev_fM": dev_f, "max_dev_fM_tilde": dev_ft}
