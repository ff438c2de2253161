"""The benchmark workloads: inputs made from a seed, one operation, its check.

Each workload has eight input variants.  The seed picks the variant, and the
variant fixes every generated parameter (mass, tail constants or amplitude,
dispersion, and a +-1 % jitter of the interior sample times), so a finite
table in `reference.json` holds the fitted exponents every seed must
reproduce.  The first and last sample times never move: all variants of a
workload do the same amount of work.

Two sizes exist.  `full` is what the benchmark measures; `smoke` shrinks the
grids so that the benchmark's own tests can run every workload in seconds.
"""

import itertools
import json
import math
import os
import shutil

import numpy as np

N_VARIANTS = 8
N_SAMPLES = 12  # window_stability drops one sample at each end; fits need >= 8
EXPONENT_TOLERANCE = 1e-3
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def variant_of(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(N_VARIANTS))


def _choices(options: dict, variant: int) -> dict:
    """The variant-th combination of the two-valued options."""
    combos = list(itertools.product(*options.values()))
    return dict(zip(options, combos[variant]))


def _jittered(t0: float, t1: float, variant: int) -> list:
    t = np.geomspace(t0, t1, N_SAMPLES)
    jitter = np.random.default_rng(variant).uniform(-0.01, 0.01, N_SAMPLES - 2)
    t[1:-1] *= 1.0 + jitter
    return [float(v) for v in t]


class Workload:
    name = ""
    pinned = True  # reference.json holds its fitted exponents
    # size -> grid and horizon of the measured operation
    sizes = {}
    options = {}

    def inputs(self, bb, size: str, variant: int):
        raise NotImplementedError

    def run(self, bb, inputs, tracer, out_dir):
        raise NotImplementedError

    def exponents(self, bb, result) -> dict:
        """Fitted exponents the reference pins; empty when none apply."""
        return {}

    def check(self, bb, inputs, result, state) -> list:
        """Problems with one operation's output; `state` persists across ops."""
        return []

    def bundle_stats(self, result):
        return 0, 0


class _Experiment(Workload):
    """run_experiment on one generated scenario, bundle written."""

    def run(self, bb, scenario, tracer, out_dir):
        with tracer.span("harness.run_experiment"):
            return bb.harness.run_experiment(scenario, out_root=out_dir)

    def exponents(self, bb, result):
        out = {}
        for (combo, l, norm), es in sorted(result["series"].items()):
            window = (float(es.times[0]), float(es.times[-1]))
            fit = bb.asymptotics.fit_rate(es, window, log_power=0)
            out[f"{combo}|{norm}|l{l}"] = fit.exponent
        return out

    def check(self, bb, scenario, result, state):
        problems = [f"report fit {k}: {v['error']}"
                    for k, v in result["report"]["fits"].items() if "error" in v]
        with open(result["paths"]["report"], "rb") as fh:
            blob = fh.read()
        first = state.setdefault("report_json", blob)
        if blob != first:
            problems.append("report.json differs from the first operation's bytes")
        return problems

    def bundle_stats(self, result):
        n_files = n_bytes = 0
        for root, _, files in os.walk(result["paths"]["bundle_dir"]):
            for f in files:
                n_files += 1
                n_bytes += os.path.getsize(os.path.join(root, f))
        return n_files, n_bytes


class SlowTail(_Experiment):
    name = "slowtail"
    # production spacing dx = 800/16384 on a box 1/8 as wide: one operation on
    # the production box evaluates Z on 8x the points and takes about a minute
    sizes = {"full": dict(L=50.0, N=2048, t0=2.0, t1=36.0),
             "smoke": dict(L=50.0, N=1024, t0=2.0, t1=36.0)}
    options = {"mass": (0.3, 0.25), "c_plus": (1.0, 0.8), "c_minus": (-1.0, -0.6)}

    def inputs(self, bb, size, variant):
        g = self.sizes[size]
        c = _choices(self.options, variant)
        return bb.harness.Scenario(
            name=f"bench-slowtail-v{variant}", beta=1.0, gamma=1.0, alpha=1.5,
            mass=c["mass"], data_kind="prescribed_r0", c_plus=c["c_plus"],
            c_minus=c["c_minus"], L=g["L"], N=g["N"],
            t_samples=_jittered(g["t0"], g["t1"], variant), derivative_orders=[0, 1])


class FastTail(_Experiment):
    name = "fasttail"
    sizes = {"full": dict(L=400.0, N=16384, t0=1.0, t1=40.0),
             "smoke": dict(L=50.0, N=1024, t0=1.0, t1=36.0)}
    options = {"mass": (0.3, 0.25), "amplitude": (0.1, 0.08), "gamma": (1.0, 0.8)}

    def inputs(self, bb, size, variant):
        g = self.sizes[size]
        c = _choices(self.options, variant)
        return bb.harness.Scenario(
            name=f"bench-fasttail-v{variant}", beta=1.0, gamma=c["gamma"], alpha=3.0,
            mass=c["mass"], data_kind="power_tail", amplitude=c["amplitude"],
            L=g["L"], N=g["N"], t_samples=_jittered(g["t0"], g["t1"], variant),
            derivative_orders=[0, 1])


class Linearized(Workload):
    """solve_second_aux, then the v - V and d_x(v - V) gap series."""

    name = "linearized"
    sizes = {"full": dict(L=200.0, N=8192, t0=1.0, t1=12.0),
             "smoke": dict(L=50.0, N=1024, t0=1.0, t1=12.0)}
    options = {"mass": (0.5, 0.4), "gamma": (1.0, 0.8), "beta": (1.0, 0.9)}

    def inputs(self, bb, size, variant):
        g = self.sizes[size]
        c = _choices(self.options, variant)
        p = bb.ModelParams(beta=c["beta"], gamma=c["gamma"], alpha=3.0, mass=c["mass"])
        return p, bb.make_grid(g["L"], g["N"]), _jittered(g["t0"], g["t1"], variant)

    def run(self, bb, inputs, tracer, out_dir):
        p, grid, times = inputs
        pr = bb.profiles
        traj = bb.solver.solve_second_aux(p, grid, times)
        ps = pr.constants(p)
        mask = np.abs(grid.x) <= bb.asymptotics.MEASUREMENT_FRACTION * grid.half_width
        gaps = {0: [], 1: []}
        for t, snap in zip(traj.times, traj.snapshots):
            gap0 = snap.values - pr.V(grid.x, t, p, ps)
            dv = np.fft.ifft(1j * grid.xi_odd * np.fft.fft(snap.values)).real
            gap1 = dv - pr.V_x(grid.x, t, p, ps)
            gaps[0].append(float(np.abs(gap0[mask]).max()))
            gaps[1].append(float(np.abs(gap1[mask]).max()))
        return {"times": traj.times, "gaps": gaps}

    def exponents(self, bb, result):
        t = result["times"]
        out = {}
        for l, vals in result["gaps"].items():
            es = bb.asymptotics.ErrorSeries(t, np.asarray(vals), combo="V",
                                            norm="linf", order=l)
            fit = bb.asymptotics.fit_rate(es, (float(t[0]), float(t[-1])), log_power=0)
            out[f"v-V|linf|l{l}"] = fit.exponent
        return out


class Oracles(Workload):
    """The four checks suites, the work of `bbmburgers verify` for each suite.

    The suites fix their own inputs, so the seed selects nothing here."""

    name = "oracles"
    pinned = False
    sizes = {"full": {}, "smoke": {}}
    suites = ("identities", "semigroup", "oracles", "rates")

    def inputs(self, bb, size, variant):
        return None

    def run(self, bb, inputs, tracer, out_dir):
        results = {}
        for suite in self.suites:
            fn = getattr(bb.checks, f"suite_{suite}")
            with tracer.span(f"checks.suite_{suite}"):
                results[suite] = fn()
        return results

    def check(self, bb, inputs, result, state):
        return [f"{suite}: {r.line()}" for suite, rows in result.items()
                for r in rows if not r.passed]


WORKLOADS = {w.name: w for w in (SlowTail(), FastTail(), Linearized(), Oracles())}


def describe(inputs) -> dict:
    """The generated parameters, for the record of a run."""
    if inputs is None:
        return {}
    if isinstance(inputs, tuple):
        p, grid, times = inputs
        return {"beta": p.beta, "gamma": p.gamma, "alpha": p.alpha, "mass": p.mass,
                "L": grid.half_width, "N": grid.n_points, "t_samples": times}
    return json.loads(inputs.canonical_json())


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_key(workload: str, size: str, variant: int) -> str:
    return f"{workload}/{size}/v{variant}"


def exponent_shift(measured: dict, expected: dict) -> tuple:
    """(largest |measured - expected|, problems) over the pinned exponents."""
    problems = []
    if set(measured) != set(expected):
        problems.append(f"fitted series {sorted(measured)} != "
                        f"reference {sorted(expected)}")
    shift = 0.0
    for key in sorted(set(measured) & set(expected)):
        d = abs(measured[key] - expected[key])
        if not math.isfinite(d) or d > EXPONENT_TOLERANCE:
            problems.append(f"exponent {key}: {measured[key]!r} vs reference "
                            f"{expected[key]!r} (tolerance {EXPONENT_TOLERANCE})")
        shift = max(shift, d) if math.isfinite(d) else math.inf
    return shift, problems


def clear_dir(path: str):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
