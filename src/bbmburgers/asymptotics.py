"""Profile-subtracted error norms along trajectories, decay-rate fits and
the one table of rate claims.

The profile combinations chi, chi+Z, chi+V, chi+Z+V are subtracted
analytically (Z and Z_x are the rows of one Z_eval call per sample time); the
solution is differentiated spectrally.  Exponents come from least squares of
log-values against log(1+t), optionally after dividing out a log(1+t) factor,
with a Theil-Sen slope reported alongside.  RATE_CLAIMS states, per alpha
branch and combination, the claimed exponent, its log power and the kind of
test; it alone fixes which combinations exist (COMBOS) and which a run fits.
optimal_rate_report(series, p, ps, window) is the one route from the series
error_series_multi returned to a run's report["fits"]: one entry per series
holding its claim, its fit and its verdict.  `bbmburgers rates` prints an entry.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import MEASUREMENT_FRACTION, measurement_mask
from .errors import ConfigError
from .profiles import ModelParams, ProfileSet, V, Z_eval, chi
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
    requested combinations; V and Z (all orders in one call) only when a
    combination holds them.  Norms are taken over core.measurement_mask,
    outside of which the tail taper makes the box solution diverge from the
    whole-line profiles by construction.  Returns {(combo, order, norm): ErrorSeries}.
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
        z_t = Z_eval(x[mask], t, p, ps, max(orders)) if need_z and t > 0 else None
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
    return {(combo, l, nm): ErrorSeries(traj.times.copy(), np.asarray(vals), combo, nm, l)
            for (combo, l, nm), vals in acc.items()}


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


def _in_window(times, window):
    """The samples that fit_rate fits and optimal_rate_report judges: those in
    the window at t > 0, where log(1+t) and its log are finite."""
    return (times >= window[0]) & (times <= window[1]) & (times > 0)


def _fit_arrays(times, values, window, log_power):
    sel = _in_window(times, window)
    t = times[sel]
    v = values[sel]
    if t.size < MIN_FIT_SAMPLES:
        raise ConfigError(f"fit window [{window[0]}, {window[1]}] holds {t.size} samples; "
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
    """Fit value ~ A (1+t)^e log(1+t)^log_power by least squares on the samples
    of the window at t > 0."""
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
# Rate claims and the optimal-rate report

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
                    "slope_ok": abs(slope) <= 0.1}
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


def _hypothesis_violation(p: ModelParams, ps: ProfileSet):
    """Why the claimed rates degenerate for these parameters, or None."""
    if p.mass == 0.0:
        return "optimal-rate claims require M != 0"
    if rate_branch(p.alpha) == "alpha_lt_2" and (not math.isfinite(ps.mu0)
                                                 or ps.mu0 == 0.0):
        return "1 < alpha < 2 branch requires mu0 != 0"
    return None


def _verdict(es: ErrorSeries, window, claim: RateClaim, fit: RateFit) -> dict:
    """Scale the error by the inverse of its claimed law on the window and judge
    it by the claim's kind.  A window that fit_rate refuses for its sample count
    is "insufficient_samples" (with the count); a scaled error at round-off is
    "degenerate".  The slope is the fit's Theil-Sen slope less the claimed
    exponent: the Theil-Sen slope of the scaled log series."""
    sel = _in_window(es.times, window)
    t = es.times[sel]
    if t.size < MIN_FIT_SAMPLES:
        return {"status": "insufficient_samples", "n_samples": int(t.size)}
    r = es.values[sel] * claim.scale(t)
    if np.any(r <= _DEGENERATE_FLOOR):
        return {"status": "degenerate"}
    ratio = float(r.max() / r.min())
    slope = fit.theil_sen - claim.exponent
    flags = claim.judge(ratio, slope)
    return {"status": "ok", "ratio": ratio, "ts_slope": slope,
            "scaled_first": float(r[0]), "scaled_last": float(r[-1]),
            **flags, "passed": all(flags.values())}


def optimal_rate_report(series: dict, p: ModelParams, ps: ProfileSet, window=None) -> dict:
    """Fit and judge every error series of one run against its RATE_CLAIMS entry:
    {"combo|norm|l<l>": entry} for `series`, error_series_multi's output.

    Each entry holds the claim in the series' own norm (claimed_exponent,
    claim_kind, log_power, scaling), the fit_rate fields, window_stability and
    resolved (null and false, with a reason, when the shrunk window is too short
    to refit), and the verdict: status, and for status "ok" the scaled max/min
    ratio, ts_slope, the first and last scaled values and the kind's flags.
    passed is null unless the entry is judged.  Only a window that fit_rate
    refuses carries its error.  Entries are not judged where the claims
    degenerate (M = 0, or mu0 = 0 on the 1 < alpha < 2 branch:
    "hypothesis_violation") or where a log-corrected band lacks its log lower
    bound (kappa = 0 or mu1 = 0: "not_applicable"); both give their reason.
    """
    if window is None:
        window = default_window(next(iter(series.values())).times)
    violation = _hypothesis_violation(p, ps)
    log_applicable = ps.kappa != 0.0 and ps.mu1 != 0.0
    report = {}
    for (combo, l, nm), es in series.items():
        claim = rate_claim(p.alpha, combo, l, nm)
        entry = {"combo": combo, "norm": nm, "l": l, "claimed_exponent": claim.exponent,
                 "claim_kind": claim.kind, "log_power": claim.log_power,
                 "scaling": f"(1+t)^{-claim.exponent:g}"
                            + ("/log(1+t)" if claim.log_power else "")}
        reasons = []
        try:
            fit = fit_rate(es, window, claim.log_power)
        except ConfigError as exc:
            fit = None
            entry["error"] = str(exc)
        else:
            entry.update(asdict(fit))
            try:
                stability = window_stability(es, fit)
                entry.update(window_stability=stability, resolved=stability < 0.05)
            except ConfigError as exc:
                # the shrunk window is too short to refit; the full-window fit stands
                entry.update(window_stability=None, resolved=False)
                reasons.append(f"window stability not measured: {exc}")
        if violation:
            entry["status"] = "hypothesis_violation"
            reasons.append(violation)
        elif claim.kind == "band" and claim.log_power and not log_applicable:
            entry["status"] = "not_applicable"
            reasons.append("kappa = 0 or mu1 = 0: no log lower bound")
        else:
            entry.update(_verdict(es, window, claim, fit))
        entry.setdefault("passed", None)
        if reasons:
            entry["reason"] = "; ".join(reasons)
        report[f"{combo}|{nm}|l{l}"] = entry
    return report
