"""Built-in verification suites: identities, semigroup, oracles, rates.

Each suite returns a list of CheckResult rows; the CLI `verify` subcommand
prints one line per check and the acceptance tests assert them.  Tolerances
are fixed here, not configurable.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import profiles as pr
from . import semigroup as sg
from . import solver as sv
from .asymptotics import ErrorSeries, fit_rate
from .core import Field, make_grid
from .errors import NumericsError
from .profiles import ModelParams

__all__ = ["CheckResult", "suite_identities", "suite_semigroup", "suite_oracles",
           "suite_rates", "SUITES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: measured {self.measured:.3e} "
                f"(tolerance {self.tolerance:.3e}) {self.detail}".rstrip())


def _params(beta=1.0, gamma=1.0, alpha=1.5, mass=0.5) -> ModelParams:
    return ModelParams(beta, gamma, alpha, mass)


# ---------------------------------------------------------------------------
# Suite 1: closed-form identities (0.1 s on a 2-vCPU VM)

def suite_identities() -> list:
    from scipy import integrate as spi

    out = []
    p = _params()
    x = np.linspace(-20.0, 20.0, 2001)

    ps = pr.constants(p)
    out.append(CheckResult("kappa(beta=1,gamma=1) == 1/8 exactly",
                           ps.kappa == 0.125, ps.kappa, 0.0))

    d_ref, err = spi.quad(lambda y: pr.chi_star(y, p) ** 3 / pr.eta_star(y, p),
                          -np.inf, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    if not err <= 1e-12 * abs(d_ref):
        raise NumericsError(f"d oracle quadrature failed: error estimate {err:.2e}")
    dev = abs(ps.d - d_ref) / abs(d_ref)
    out.append(CheckResult("d: panel Gauss-Legendre vs adaptive quadrature",
                           dev <= 1e-12, dev, 1e-12, detail="(relative)"))

    dev = float(np.abs(pr.V_star(x, p) - pr.V_star_from_derivative(x, p)).max())
    out.append(CheckResult("V_star closed forms agree on [-20,20]",
                           dev <= 1e-10, dev, 1e-10))

    fm = pr.fM_check(p)
    out.append(CheckResult("f_M equals chi_star (beta=1)",
                           fm["max_dev_fM"] <= 1e-8, fm["max_dev_fM"], 1e-8))
    out.append(CheckResult("f_M-tilde equals -kappa d V_star (beta=1)",
                           fm["max_dev_fM_tilde"] <= 1e-8, fm["max_dev_fM_tilde"],
                           1e-8))

    # int_{-inf}^{x0} chi_star = int_0^inf chi_star(x0 - s) ds, all x0 in one quadrature
    xs = np.linspace(-10.0, 10.0, 41)
    inner, _, info = spi.quad_vec(lambda s: pr.chi_star(xs - s, p), 0.0, np.inf,
                                  epsabs=1e-12, epsrel=1e-12, limit=200, norm="max",
                                  full_output=True)
    if info.status != 0:
        raise NumericsError(f"eta_star oracle quadrature failed: {info.message}")
    worst = float(np.abs(pr.eta_star(xs, p) - np.exp(0.5 * p.beta * inner)).max())
    out.append(CheckResult("eta_star closed form vs quadrature of its integral",
                           worst <= 1e-8, worst, 1e-8))

    # int chi(x, t) dx = int s chi(s z, t) dz with s = sqrt(1 + t): in z the four
    # integrands share one width, so one vector quadrature adapts to all of them
    ts = (0.0, 1.0, 10.0, 100.0)
    ss = [math.sqrt(1.0 + t) for t in ts]
    masses, _, info = spi.quad_vec(
        lambda z: np.array([s * pr.chi(s * z, t, p) for s, t in zip(ss, ts)]),
        -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400, norm="max",
        full_output=True)
    if info.status != 0:
        raise NumericsError(f"chi mass oracle quadrature failed: {info.message}")
    worst = float(np.abs(masses - p.mass).max())
    out.append(CheckResult("integral of chi(.,t) equals M at t in {0,1,10,100}",
                           worst <= 1e-8, worst, 1e-8))

    # the quadrature oracle runs on every 10th point only, which keeps it cheap
    ps_jump = pr.constants(p, c_alpha=(1.0, -1.0))
    xz = np.linspace(-20.0, 20.0, 801)
    worst = 0.0
    for t in (1.0, 10.0, 100.0):
        for l, z in enumerate(pr.Z_eval(xz, t, p, ps_jump, derivative=1)):
            ref = pr.Z_eval_quadrature(xz[::10], t, p, ps_jump, derivative=l)
            worst = max(worst, float(np.abs(z[::10] - ref).max() / np.abs(z).max()))
    out.append(CheckResult("Z: heat-semigroup route vs panel quadrature",
                           worst <= 1e-8, worst, 1e-8,
                           detail="(relative to max|Z|, t in {1,10,100})"))
    return out


# ---------------------------------------------------------------------------
# Suite 2: multiplier operators (0.04 s on a 2-vCPU VM)

def suite_semigroup() -> list:
    out = []
    p = _params()
    grid = make_grid(20.0, 1024)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(12) / np.arange(1, 13)
    f_vals = np.zeros(grid.n_points)
    for k, c in enumerate(coeffs, start=1):
        f_vals += c * np.cos(k * np.pi * grid.x / grid.half_width + 0.3 * k)
    f = Field(grid, f_vals)

    idx = np.arange(0, grid.n_points, grid.n_points // 64)
    direct = sg.helmholtz_inv_direct(f, x_eval=grid.x[idx])
    spectral = sg.helmholtz_inv(f).values[idx]
    dev = float(np.abs(direct - spectral).max())
    out.append(CheckResult("helmholtz inverse: spectral vs direct convolution",
                           dev <= 1e-8, dev, 1e-8))

    g1 = sg.T_apply(sg.T_apply(f, 0.7, p), 1.3, p)
    g2 = sg.T_apply(f, 2.0, p)
    dev = float(np.abs(g1.values - g2.values).max())
    out.append(CheckResult("T semigroup property T(s)T(t) = T(s+t)",
                           dev <= 1e-10, dev, 1e-10))

    drift = abs(sg.T_apply(f, 11.0, p).mass() - f.mass())
    tol = 1e-13 * max(1.0, abs(f.mass()))
    out.append(CheckResult("T mass preservation", drift <= tol, drift, tol))

    res_grid = make_grid(60.0, 2048)
    t = 1.0
    xg = res_grid.x
    cvals = pr.chi(xg, t, p)
    cx = res_grid.deriv(cvals, 1)
    cxx = res_grid.deriv(cvals, 2)
    residual = pr.chi_t(xg, t, p) + p.beta * cvals * cx - cxx
    dev = float(np.abs(residual).max())
    out.append(CheckResult("Burgers residual of sampled chi at t=1",
                           dev <= 1e-6, dev, 1e-6, detail=f"(grid {res_grid!r})"))
    return out


# ---------------------------------------------------------------------------
# Suite 3: solver oracles (0.2 s on a 2-vCPU VM)

def suite_oracles() -> list:
    out = []

    # linear limit: beta = 0 trajectory equals the exact propagator
    p0 = ModelParams(beta=0.0, gamma=0.5, alpha=2.0, mass=0.3)
    grid = make_grid(100.0, 2048)
    u0 = Field(grid, 0.3 * np.exp(-(grid.x**2) / 4.0))
    traj = sv.integrate(u0, p0, list(np.geomspace(1.0, 100.0, 7)))
    worst = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        ref = sg.T_apply(u0, t, p0)
        worst = max(worst, float(np.abs(snap.values - ref.values).max()))
    out.append(CheckResult("beta=0 trajectory equals T(t)*u0 on t in [0,100]",
                           worst <= 1e-10, worst, 1e-10))

    # unforced linearized flow equals the U-operator representation
    p = _params(gamma=0.0, mass=0.5)
    agrid = make_grid(60.0, 4096)
    z0_vals = 0.1 * (agrid.x / 2.0) * np.exp(-(agrid.x**2) / 4.0)
    z0 = Field(agrid, z0_vals - (agrid.dx * z0_vals.sum()) / (2.0 * agrid.half_width))
    ts = [1.0, 4.0, 16.0]
    ztraj = sv.solve_aux(z0, p, ts)
    worst = 0.0
    for t, snap in zip(ztraj.times, ztraj.snapshots):
        ref = sg.U_apply(z0, t, 0.0, p)
        worst = max(worst, float(np.abs(snap.values - ref.values).max()))
    out.append(CheckResult("solve_aux(gamma=0) equals U[z0] at t in {1,4,16}",
                           worst <= 1e-4, worst, 1e-4))

    # self-convergence of the exponential stepper
    sgrid = make_grid(60.0, 1024)
    sp = _params(mass=0.3)
    u0s = Field(sgrid, pr.chi_star(sgrid.x, sp) + 0.2 * np.exp(-(sgrid.x**2) / 2.0))
    sols = {}
    for dt in (0.08, 0.04, 0.02):
        t = sv.integrate(u0s, sp, [1.0], dt=dt)
        sols[dt] = t.snapshots[-1].values
    e1 = float(np.abs(sols[0.08] - sols[0.04]).max())
    e2 = float(np.abs(sols[0.04] - sols[0.02]).max())
    order = math.log2(e1 / e2)
    out.append(CheckResult("ETD self-convergence order >= 3.5",
                           order >= 3.5, order, 3.5,
                           detail=f"(refinement ratio {e1 / e2:.2f})"))
    return out


# ---------------------------------------------------------------------------
# Suite 4: linear decay rates (0.01 s on a 2-vCPU VM)

def suite_rates() -> list:
    out = []
    p = _params()
    grid = make_grid(200.0, 4096)
    f = Field(grid, np.exp(-(grid.x**2) / 4.0))
    times = np.geomspace(10.0, 1000.0, 17)
    for l, lo, hi in ((0, -0.85, -0.65), (1, -1.35, -1.15)):
        gaps = np.array([sg.TG_gap(f, t, p, l=l) for t in times])
        es = ErrorSeries(times, gaps, combo="chi", norm="l2", order=l)
        fit = fit_rate(es, (10.0, 1000.0), log_power=0)
        ok = lo <= fit.exponent <= hi
        out.append(CheckResult(
            f"(T-G) decay exponent, derivative order {l}, in [{lo}, {hi}]",
            ok, fit.exponent, hi,
            detail=f"(Theil-Sen {fit.theil_sen:.3f})"))
    return out


SUITES = {
    "identities": suite_identities,
    "semigroup": suite_semigroup,
    "oracles": suite_oracles,
    "rates": suite_rates,
}
