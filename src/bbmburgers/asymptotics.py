"""Profile-subtracted error norms along trajectories, decay-rate fits and
the one table of rate claims.

The profile combinations chi, chi+Z, chi+V, chi+Z+V are subtracted
analytically; the solution itself is differentiated spectrally.  Exponents
come from least squares of log-values against log(1+t), optionally after
dividing out a log(1+t) factor, with a Theil-Sen slope reported alongside.
RATE_CLAIMS states, per alpha branch and combination, the claimed exponent,
its log power and the kind of test; it alone fixes which combinations exist
(COMBOS) and which a run fits.  The harness fits, `bbmburgers rates` and
optimal_rate_report all read it.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import MEASUREMENT_FRACTION, measurement_mask
from .errors import ConfigError, HypothesisViolationError
from .profiles import ProfileSet, V, Z_eval, chi
from .solver import Trajectory

__all__ = [
    "ErrorSeries",
    "RateFit",
    "COMBOS",
    "MEASUREMENT_FRACTION",
    "MIN_FIT_SAMPLES",
    "RATE_CLAIMS",
    "RateClaim",
    "rate_branch",
    "rate_claim",
    "claimed_combos",
    "default_window",
    "error_series_multi",
    "fit_rate",
    "theil_sen_slope",
    "window_stability",
    "optimal_rate_report",
]

@dataclass
class ErrorSeries:
    times: np.ndarray
    values: np.ndarray
    combo: str
    norm: str
    order: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape:
            raise ConfigError("times and values must have matching shapes")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("times must be strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ConfigError("values must be finite and nonnegative")
        self.times = t
        self.values = v


@dataclass
class RateFit:
    exponent: float
    log_power: int
    amplitude: float
    residual_rms: float
    window: tuple
    theil_sen: float
    n_samples: int


def _norm_value(grid, a, norm: str) -> float:
    if norm == "linf":
        return float(np.abs(a).max())
    if norm == "l2":
        return float(math.sqrt(grid.dx * float(a @ a)))
    raise ConfigError(f"unsupported norm '{norm}'; use 'l2' or 'linf'")


def error_series_multi(
    traj: Trajectory,
    ps: ProfileSet,
    combos,
    orders=(0,),
    norms=("linf",),
) -> dict:
    """Error series for several combinations of COMBOS at once.

    Profile fields and the derivatives of the two bases u - chi and
    u - chi - V are evaluated once per snapshot and shared across the
    requested combinations; V and Z only when a combination holds them.
    Norms are taken over core.measurement_mask, outside of which the tail
    taper makes the box solution diverge from the whole-line profiles by
    construction.  Returns {(combo, order, norm): ErrorSeries}.
    """
    p = traj.params
    grid = traj.grid
    x = grid.x
    mask = measurement_mask(grid)
    unknown = [c for c in combos if c not in COMBOS]
    if unknown:
        raise ConfigError(f"unknown profile combinations {unknown}; use {COMBOS}")
    need_z = any("Z" in c for c in combos)
    need_v = any("V" in c for c in combos)
    if need_z and max(orders) > 1:
        raise ConfigError("Z combinations support derivative orders 0 and 1 only")

    acc = {(c, l, nm): [] for c in combos for l in orders for nm in norms}
    for t, snap in zip(traj.times, traj.snapshots):
        chi_t = chi(x, t, p)
        v_t = V(x, t, p, ps) if need_v else None
        z_t = {}
        if need_z and t > 0:
            for l in orders:
                z_t[l] = Z_eval(x[mask], t, p, ps, derivative=l)
        for with_v in (False, True):  # the two bases, u - chi and u - chi - V
            group = [c for c in combos if ("V" in c) == with_v]
            if not group:
                continue
            base = snap.values - chi_t - v_t if with_v else snap.values - chi_t
            for l in orders:
                d_base = grid.deriv(base, l)[mask]
                for combo in group:
                    arr = d_base - z_t[l] if "Z" in combo and t > 0 else d_base
                    for nm in norms:
                        acc[(combo, l, nm)].append(_norm_value(grid, arr, nm))
    out = {}
    for (combo, l, nm), vals in acc.items():
        out[(combo, l, nm)] = ErrorSeries(
            traj.times.copy(), np.asarray(vals), combo, nm, l
        )
    return out


# ---------------------------------------------------------------------------
# Rate fitting

def theil_sen_slope(x, y) -> float:
    """Median of all pairwise slopes; deterministic (no sampling)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    i, j = np.triu_indices(x.size, k=1)
    return float(np.median((y[j] - y[i]) / (x[j] - x[i])))


# the fewest samples in a window that fit_rate fits and optimal_rate_report judges
MIN_FIT_SAMPLES = 8


def _fit_arrays(times, values, window, log_power):
    t0, t1 = window
    sel = (times >= t0) & (times <= t1)
    t = times[sel]
    v = values[sel]
    if t.size < MIN_FIT_SAMPLES:
        raise ConfigError(f"fit window [{t0}, {t1}] holds {t.size} samples; "
                          f"need >= {MIN_FIT_SAMPLES}")
    if np.any(v <= 0):
        raise ConfigError("fit requires strictly positive values in the window")
    tau = np.log1p(t)
    y = np.log(v)
    if log_power == 1:
        y = y - np.log(tau)
    elif log_power != 0:
        raise ConfigError("log_power must be 0 or 1")
    return tau, y, t.size


def fit_rate(es: ErrorSeries, window, log_power: int = 0) -> RateFit:
    """Fit value ~ A (1+t)^e log(1+t)^log_power on the window by least squares."""
    tau, y, n = _fit_arrays(es.times, es.values, window, log_power)
    A = np.vstack([tau, np.ones_like(tau)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * tau + intercept)
    return RateFit(
        exponent=float(slope),
        log_power=log_power,
        amplitude=float(math.exp(intercept)),
        residual_rms=float(math.sqrt(np.mean(resid**2))),
        window=(float(window[0]), float(window[1])),
        theil_sen=theil_sen_slope(tau, y),
        n_samples=n,
    )


def window_stability(es: ErrorSeries, full: RateFit) -> float:
    """Exponent change of the fit `full` of es when its window is shrunk by 10%
    (in log t) at both ends; only the shrunk window is fitted."""
    a = math.log1p(full.window[0])
    b = math.log1p(full.window[1])
    pad = 0.1 * (b - a)
    shrunk = (math.expm1(a + pad), math.expm1(b - pad))
    inner = fit_rate(es, shrunk, full.log_power)
    return abs(inner.exponent - full.exponent)


# ---------------------------------------------------------------------------
# Rate claims and the optimal-rate decision report

@dataclass(frozen=True)
class RateClaim:
    """Claimed law ||d_x^l (u - profiles)|| ~ (1+t)^exponent log(1+t)^log_power,
    in the norm it was made for (see rate_claim), judged after scaling the
    error by its inverse.  The kind owns the test:

    band      two-sided: scaled ratio max/min <= 10, |Theil-Sen slope| <= 0.1
    improves  the refinement decays faster: slope <= -0.05
    bounded   the scaled error does not grow: slope <= 0.05
    """

    exponent: float
    log_power: int
    kind: str

    BAND_SLOPE_TOL: ClassVar[float] = 0.1  # reported with band fits in report.json

    def scale(self, t):
        """The inverse of the claimed law at times t,
        (1+t)^(-exponent) / log(1+t)^log_power; nan where the log vanishes."""
        scale = (1.0 + t) ** (-self.exponent)
        if self.log_power:
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(t > 0, scale / np.log1p(t), np.nan)
        return scale

    def judge(self, ratio: float, slope: float) -> dict:
        if self.kind == "band":
            return {"ratio_ok": ratio <= 10.0,
                    "slope_ok": abs(slope) <= self.BAND_SLOPE_TOL}
        if self.kind == "improves":
            return {"slope_ok": slope <= -0.05}
        if self.kind == "bounded":
            return {"slope_ok": slope <= 0.05, "bounded": slope <= 0.05}
        raise ConfigError(f"unknown claim kind '{self.kind}'")


def _tail_rate(alpha):
    return -0.5 * alpha


def _diffusive_rate(alpha):
    return -1.0


# (alpha branch, combo) -> (exponent at l = 0 as a function of alpha, log power,
# kind); derivative order l shifts the exponent by -l/2
RATE_CLAIMS = {
    ("alpha_lt_2", "chi"): (_tail_rate, 0, "band"),
    ("alpha_lt_2", "chi+Z"): (_tail_rate, 0, "improves"),
    ("alpha_eq_2", "chi"): (_diffusive_rate, 1, "band"),
    ("alpha_eq_2", "chi+Z+V"): (_diffusive_rate, 1, "improves"),
    ("alpha_gt_2", "chi"): (_diffusive_rate, 1, "band"),
    ("alpha_gt_2", "chi+V"): (_diffusive_rate, 0, "bounded"),
}

# every claimed combination, in table order
COMBOS = tuple(dict.fromkeys(combo for _, combo in RATE_CLAIMS))


def rate_branch(alpha: float) -> str:
    """The RATE_CLAIMS branch of a tail exponent alpha > 1."""
    if alpha < 2.0:
        return "alpha_lt_2"
    return "alpha_eq_2" if alpha == 2.0 else "alpha_gt_2"


def claimed_combos(alpha: float) -> list:
    """The combinations RATE_CLAIMS holds for the branch of alpha, in table order."""
    branch = rate_branch(alpha)
    return [c for b, c in RATE_CLAIMS if b == branch]


# Every claimed law is (1+t)^e f(x / sqrt(1+t)), up to a log factor, whose L2
# norm carries (1+t)^(e + 1/4): the exponent shift of each norm
_NORM_EXPONENT_SHIFT = {"linf": 0.0, "l2": 0.25}


def rate_claim(alpha: float, combo: str, l: int = 0, norm: str = "linf") -> RateClaim:
    """The RATE_CLAIMS entry for one combination, derivative order and norm."""
    branch = rate_branch(alpha)
    if (branch, combo) not in RATE_CLAIMS:
        raise ConfigError(f"no rate claim for '{combo}' at alpha={alpha:g}; "
                          f"claimed: {claimed_combos(alpha)}")
    if norm not in _NORM_EXPONENT_SHIFT:
        raise ConfigError(f"unsupported norm '{norm}'; use 'l2' or 'linf'")
    exponent, log_power, kind = RATE_CLAIMS[(branch, combo)]
    return RateClaim(exponent(alpha) - 0.5 * l + _NORM_EXPONENT_SHIFT[norm], log_power, kind)


def default_window(times) -> tuple:
    """The default fit window: the first positive sample time to the last.
    ConfigError when no sample time is positive."""
    positive = times[times > 0]
    if positive.size == 0:
        raise ConfigError("no positive sample time: there is no window to fit")
    return float(positive[0]), float(times[-1])


_DEGENERATE_FLOOR = 1e-13


def _scaled_entry(es: ErrorSeries, window, claim: RateClaim) -> dict:
    """Scale the error by the inverse of its claimed law on the window and judge it.
    A window with fewer than MIN_FIT_SAMPLES positive sample times is not judged:
    its status is "insufficient_samples", with their count."""
    label = f"(1+t)^{-claim.exponent:g}" + ("/log(1+t)" if claim.log_power else "")
    entry = {"combo": es.combo, "scaling": label}
    sel = (es.times >= window[0]) & (es.times <= window[1]) & (es.times > 0)
    t = es.times[sel]
    if t.size < MIN_FIT_SAMPLES:
        entry.update(status="insufficient_samples", n_samples=int(t.size))
        return entry
    r = es.values[sel] * claim.scale(t)
    if np.any(r <= _DEGENERATE_FLOOR):
        entry["status"] = "degenerate"
        return entry
    ratio = float(r.max() / r.min())
    slope = theil_sen_slope(np.log1p(t), np.log(r))
    entry.update(status="ok", ratio=ratio, ts_slope=slope,
                 scaled_first=float(r[0]), scaled_last=float(r[-1]))
    entry.update(claim.judge(ratio, slope))
    return entry


def optimal_rate_report(
    traj: Trajectory, ps: ProfileSet, window=None, l: int = 0
) -> dict:
    """Decide the RATE_CLAIMS of one trajectory and derivative order.

    The branch's first-profile error (kind band) and its refinement (kind
    improves or bounded) are scaled by their claimed laws and judged by
    their kinds.  A log-corrected band also needs the log lower bound
    (kappa != 0, mu1 != 0); without it the band is marked not-applicable.
    A window too short for fit_rate is marked insufficient_samples, not judged.
    """
    p = traj.params
    alpha = p.alpha
    if window is None:
        window = default_window(traj.times)
    if p.mass == 0.0:
        raise HypothesisViolationError("optimal-rate claims require M != 0")
    branch = rate_branch(alpha)
    if branch == "alpha_lt_2" and (not math.isfinite(ps.mu0) or ps.mu0 == 0.0):
        raise HypothesisViolationError("1 < alpha < 2 branch requires mu0 != 0")

    report = {
        "alpha": alpha,
        "l": l,
        "window": [float(window[0]), float(window[1])],
        "hypotheses": {
            "mass": p.mass,
            "kappa": ps.kappa,
            "mu0": None if not math.isfinite(ps.mu0) else ps.mu0,
            "mu1": ps.mu1,
        },
        "branch": branch,
    }

    claims = {combo: rate_claim(alpha, combo, l) for combo in claimed_combos(alpha)}
    series = error_series_multi(traj, ps, list(claims), orders=(l,), norms=("linf",))
    log_applicable = ps.kappa != 0.0 and ps.mu1 != 0.0
    for combo, claim in claims.items():
        key = "band" if claim.kind == "band" else "refinement"
        if claim.kind == "band" and claim.log_power and not log_applicable:
            report[key] = {
                "combo": combo,
                "status": "not_applicable",
                "reason": "kappa = 0 or mu1 = 0: no log lower bound",
            }
        else:
            report[key] = _scaled_entry(series[(combo, l, "linf")], window, claim)

    checks = []
    for entry in (report["band"], report["refinement"]):
        if entry["status"] == "ok":
            checks.extend(v for k, v in entry.items() if k.endswith("_ok"))
    report["passed"] = bool(checks) and all(checks)
    return report
