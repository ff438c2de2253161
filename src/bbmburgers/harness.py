"""Scenario construction, experiment orchestration and bundle output.

A scenario is a single JSON document; the output bundle is written under
out/<scenario-hash>/ so that reruns of the same configuration land in the
same place and must reproduce report.json byte for byte.
"""

import hashlib
import json
import math
import os
import shutil
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import asymptotics as asy
from .core import Field, GridSpec, lp_norm, make_grid, measurement_mask, smoothstep, \
    smoothstep_deriv, tail_taper, tail_taper_deriv
from .errors import ConfigError, HypothesisViolationError
from .profiles import (
    ModelParams,
    chi_star,
    constants,
    eta_star,
    extract_c_alpha_detailed,
    r0_eval,
)
from .semigroup import T_apply
from .solver import integrate, validity_horizon

__all__ = [
    "Scenario",
    "scenario_from_json",
    "scenario_hash",
    "default_t_samples",
    "make_initial_data",
    "run_experiment",
    "write_csv",
]

_DATA_KINDS = ("gaussian", "power_tail", "prescribed_r0", "custom_table")

# the prescribed-r0 tail profile reaches its pure power law beyond this |x|
# (well inside the required onset of 10; a short ramp keeps the primitive
# mismatch near the origin small so the tail signal dominates early)
_RAMP_WIDTH = 4.0
_TAIL_ONSET = 10.0


@dataclass
class Scenario:
    name: str
    beta: float
    gamma: float
    alpha: float
    mass: float
    data_kind: str
    amplitude: float = 0.0
    c_plus: float = 0.0
    c_minus: float = 0.0
    L: float = 400.0
    N: int = 16384
    t_samples: list | None = None
    norms: list = field(default_factory=lambda: ["linf"])
    derivative_orders: list = field(default_factory=lambda: [0])
    table_path: str | None = None

    def __post_init__(self):
        if self.data_kind not in _DATA_KINDS:
            raise ConfigError(f"unknown data_kind '{self.data_kind}'")
        for nm in self.norms:
            if nm not in ("l2", "linf"):
                raise ConfigError(f"unknown norm '{nm}'")

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.beta, self.gamma, self.alpha, self.mass)

    @property
    def grid(self) -> GridSpec:
        return make_grid(self.L, self.N)

    def samples(self) -> np.ndarray:
        if self.t_samples is not None:
            return np.asarray(self.t_samples, dtype=np.float64)
        return default_t_samples(self.grid)

    def canonical_json(self) -> str:
        doc = {k: getattr(self, k) for k in _CONFIG_KEYS}
        if self.table_path is not None:
            doc["table_path"] = self.table_path
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# every field is hashed, table_path only when set; the fields without a
# default are required
_CONFIG_KEYS = [f.name for f in fields(Scenario) if f.name != "table_path"]
_REQUIRED_KEYS = {f.name for f in fields(Scenario)
                  if f.default is MISSING and f.default_factory is MISSING}


def scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(s.canonical_json().encode()).hexdigest()[:12]


def scenario_from_json(doc) -> Scenario:
    """Build a Scenario from a parsed JSON document, rejecting unknown keys."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    extra = set(doc) - {f.name for f in fields(Scenario)}
    if extra:
        raise ConfigError(f"unknown scenario keys: {sorted(extra)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ConfigError(f"scenario is missing keys: {sorted(missing)}")
    return Scenario(**doc)


def default_t_samples(grid: GridSpec) -> np.ndarray:
    """32 geometric sample times from 1 to the grid's validity horizon."""
    return np.geomspace(1.0, validity_horizon(grid), 32)


# ---------------------------------------------------------------------------
# Initial data

def _power_ramp(x, c_plus: float, c_minus: float, alpha: float):
    """Smooth function equal to c+- (1+|x|)^{1-alpha} beyond |x| = _RAMP_WIDTH
    (hence well before the required onset _TAIL_ONSET) and vanishing to
    infinite order at the origin; returns (rho, rho')."""
    w_plus = smoothstep(x / _RAMP_WIDTH)
    w_minus = smoothstep(-x / _RAMP_WIDTH)
    dw_plus = smoothstep_deriv(x / _RAMP_WIDTH) / _RAMP_WIDTH
    dw_minus = -smoothstep_deriv(-x / _RAMP_WIDTH) / _RAMP_WIDTH
    mix = c_plus * w_plus + c_minus * w_minus
    dmix = c_plus * dw_plus + c_minus * dw_minus
    tail = (1.0 + np.abs(x)) ** (1.0 - alpha)
    dtail = (1.0 - alpha) * np.sign(x) * (1.0 + np.abs(x)) ** (-alpha)
    return mix * tail, dmix * tail + mix * dtail


def make_initial_data(s: Scenario) -> Field:
    """Construct u0 for the scenario.  dx sum(u0) matches s.mass up to round-off,
    except for prescribed_r0 (chi_star + d/dx(eta_star rho)): the aliasing of
    its _RAMP_WIDTH smoothstep leaves about 1.4e-12 at the production spacing
    dx = 0.049 and up to 1.5e-8 at dx = 0.098."""
    grid = s.grid
    p = s.params
    x = grid.x
    dx = grid.dx
    if s.data_kind in ("power_tail", "prescribed_r0") and 0.5 * s.L < 2.0 * _TAIL_ONSET:
        raise ConfigError(f"L={s.L} too small to resolve the {s.data_kind} tail")

    if s.data_kind == "gaussian":
        base = s.amplitude * np.exp(-(x**2) / 4.0)
        m = dx * base.sum()
        if m == 0.0:
            if s.mass != 0.0:
                raise ConfigError("gaussian data with amplitude 0 cannot carry mass")
            return Field(grid, base)
        return Field(grid, base * (s.mass / m))

    if s.data_kind == "power_tail":
        taper = tail_taper(grid)
        # smooth even bump with (1 + |x|)^{-alpha}-class tails; the solution
        # must be spectrally resolvable, which rules out a kink at the origin
        pert = s.amplitude * taper * (1.0 + x**2) ** (-0.5 * s.alpha)
        bump = np.exp(-(x**2) / 2.0)
        core = chi_star(x, p)
        correction = (dx * (core + pert).sum() - s.mass) / (dx * bump.sum())
        u0 = core + pert - correction * bump
        return Field(grid, u0)

    if s.data_kind == "prescribed_r0":
        rho, drho = _power_ramp(x, s.c_plus, s.c_minus, s.alpha)
        taper = tail_taper(grid)
        dtaper = tail_taper_deriv(grid)
        rho_t = rho * taper
        drho_t = drho * taper + rho * dtaper
        es = eta_star(x, p)
        # d/dx (eta* rho) with eta*' = (beta/2) chi* eta*
        pert = 0.5 * p.beta * chi_star(x, p) * es * rho_t + es * drho_t
        u0 = chi_star(x, p) + pert
        return Field(grid, u0)

    if s.data_kind == "custom_table":
        if not s.table_path:
            raise ConfigError("custom_table scenarios need table_path")
        data = np.loadtxt(s.table_path, delimiter=",", skiprows=1)
        if data.shape != (grid.n_points, 2) or not np.allclose(
            data[:, 0], x, atol=1e-9
        ):
            raise ConfigError("custom table grid does not match the scenario grid")
        return Field(grid, data[:, 1])

    raise ConfigError(f"unknown data_kind '{s.data_kind}'")


def data_report(s: Scenario, u0: Field) -> dict:
    """Constructive checks on the initial data: mass match, tail bound constant,
    and the norms that stand in for the smallness hypothesis."""
    grid = u0.grid
    x = grid.x
    mass = u0.mass()
    untapered = measurement_mask(grid)
    weight = (1.0 + np.abs(x[untapered])) ** s.alpha
    C_tail = float((np.abs(u0.values[untapered]) * weight).max())
    du = grid.deriv(u0.values, 1)
    return {
        "mass": mass,
        "mass_error": abs(mass - s.mass),
        "tail_bound_constant": C_tail,
        "norm_l1": lp_norm(u0, 1),
        "norm_l2": lp_norm(u0, 2),
        "norm_linf": lp_norm(u0, np.inf),
        "norm_dx_l2": float(math.sqrt(grid.dx * float(du @ du))),
    }


# ---------------------------------------------------------------------------
# Experiment pipeline

def run_experiment(s: Scenario, out_root: str | None = "out"):
    """Run one scenario end to end and write the bundle unless out_root is None.

    The bundle under out_root/<scenario-hash>/ holds report.json, one
    series/<combo>_<norm>_l<order>.csv per error series and snapshots.npy,
    the len(times) x N float64 array of the solution samples (x follows from
    the scenario).  The directory is cleared first, so reruns reproduce every
    file byte for byte and leave nothing else.  The fitted combinations are
    the RATE_CLAIMS combinations of the scenario's alpha branch; chi+Z is
    dropped when both tail constants c_alpha are zero (mu0 = 0 then stops the
    rate report).  One error_series_multi pass feeds the fits and CSVs (the
    scenario's norms) and optimal_rate_report (linf).

    Returns a dict with the report, the trajectory and the fitted error series.
    Raises ConfigError for invalid scenarios (no positive sample, which leaves
    no fit window, up front; samples beyond the validity window from integrate)
    and propagates solver errors with the failing stage named.
    """
    grid = s.grid
    p = s.params
    t_samples = s.samples()
    window = asy.default_window(t_samples)

    u0 = make_initial_data(s)
    dreport = data_report(s, u0)

    r0 = r0_eval(u0, p)
    c_detail = extract_c_alpha_detailed(r0, p)
    ps = constants(p, c_alpha=(c_detail["c_plus"], c_detail["c_minus"]))

    traj = integrate(u0, p, t_samples)

    has_tail = ps.c_alpha_plus != 0.0 or ps.c_alpha_minus != 0.0
    combos = [c for c in asy.claimed_combos(s.alpha) if has_tail or c != "chi+Z"]
    orders = tuple(s.derivative_orders)
    every = asy.error_series_multi(traj, ps, combos, orders=orders,
                                   norms=tuple(dict.fromkeys([*s.norms, "linf"])))
    series = {key: es for key, es in every.items() if key[2] in s.norms}

    fits = {}
    for (combo, l, nm), es in series.items():
        key = f"{combo}|{nm}|l{l}"
        claim = asy.rate_claim(s.alpha, combo, l, nm)
        try:
            fit = asy.fit_rate(es, window, log_power=claim.log_power)
        except ConfigError as exc:
            fits[key] = {"combo": combo, "norm": nm, "l": l, "error": str(exc)}
            continue
        entry = {"combo": combo, "norm": nm, "l": l, "claimed_exponent": claim.exponent,
                 "claim_kind": claim.kind, **asdict(fit)}
        if claim.kind == "band":
            entry["exponent_tolerance"] = claim.BAND_SLOPE_TOL
        try:
            stability = asy.window_stability(es, fit)
            entry.update(window_stability=stability, resolved=stability < 0.05)
        except ConfigError as exc:
            # the shrunk window is too short to refit; the full-window fit stands
            entry.update(window_stability=None, resolved=False,
                         reason=f"window stability not measured: {exc}")
        fits[key] = entry

    rate_reports = {}
    for l in orders:
        try:
            rate_reports[f"l{l}"] = asy.optimal_rate_report(every, p, ps, window, l=l)
        except HypothesisViolationError as exc:
            rate_reports[f"l{l}"] = {"status": "hypothesis_violation", "reason": str(exc)}

    cross_checks = {
        "mass_drift": float(np.abs(traj.mass_log - traj.mass_log[0]).max()),
        "nyquist_fraction_max": float(traj.nyquist_fraction.max()),
    }
    if s.beta == 0.0:
        gap = 0.0
        for t, snap in zip(traj.times, traj.snapshots):
            ref = T_apply(u0, t, p)
            gap = max(gap, float(np.abs(snap.values - ref.values).max()))
        cross_checks["linear_oracle_gap"] = gap

    report = {
        "scenario": json.loads(s.canonical_json()),
        "scenario_hash": scenario_hash(s),
        "constants": {
            "kappa": ps.kappa,
            "d": ps.d,
            "mu0": None if not math.isfinite(ps.mu0) else ps.mu0,
            "mu1": ps.mu1,
            "c_alpha": c_detail,
        },
        "initial_data": dreport,
        "solver": {
            "segments": len(traj.step_stats),
            "steps_accepted": traj.steps_accepted,
            "steps_rejected": traj.steps_rejected,
            "dt_final": float(traj.step_stats[-1].dt),
            "n_points_final": traj.step_stats[-1].n_points,
            "times": [float(t) for t in traj.times],
        },
        "fits": fits,
        "optimal_rate": rate_reports,
        "cross_checks": cross_checks,
    }

    paths = {}
    if out_root is not None:
        bundle_dir = os.path.join(out_root, scenario_hash(s))
        if os.path.isdir(bundle_dir):
            shutil.rmtree(bundle_dir)
        os.makedirs(os.path.join(bundle_dir, "series"), exist_ok=True)
        report_path = os.path.join(bundle_dir, "report.json")
        with open(report_path, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
        paths["report"] = report_path
        for (combo, l, nm), es in series.items():
            scale = asy.rate_claim(s.alpha, combo, l, nm).scale(es.times)
            fname = f"{combo.replace('+', '_')}_{nm}_l{l}.csv"
            fpath = os.path.join(bundle_dir, "series", fname)
            write_csv(fpath, "t,value,scaled_value",
                       (es.times, es.values, es.values * scale))
            paths[fname] = fpath
        # the bytes of np.save(np.stack(...)), streamed row by row: no stacked copy
        snap_path = os.path.join(bundle_dir, "snapshots.npy")
        with open(snap_path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False,
                "shape": (len(traj.snapshots), grid.n_points)})
            for snap in traj.snapshots:
                snap.values.astype("<f8", copy=False).tofile(fh)
        paths["snapshots"] = snap_path
        paths["bundle_dir"] = bundle_dir

    return {
        "report": report,
        "trajectory": traj,
        "series": series,
        "profile_set": ps,
        "paths": paths,
    }


def write_csv(path: str, header: str, columns):
    """Write float64 columns as one CSV.  Every cell is the shortest round-trip
    repr of its float, so the file reloads exactly and reruns are byte-identical."""
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(",".join(r) + "\n" for r in rows))
