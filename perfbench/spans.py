"""In-memory spans recorded around calls into the bbmburgers layers.

The package imports most public functions by name, so a wrapper only sees a
call when it replaces the attribute that the *caller* looks up.  `HOOKS`
lists, for every traced layer function, each module attribute it is reached
through.  `Tracer.installed()` swaps the wrappers in for the duration of one
traced operation and always restores the originals.

`np.fft.rfft` / `np.fft.irfft` are not spans: each call inside an open
solver span adds to that span's `fft_calls` and `fft_busy_s` counters, so a
step of the integrator costs two counter updates rather than eight records.
"""

import contextlib
import functools
import json
import time

import numpy as np

# span name -> (module, attribute) pairs it is looked up through
HOOKS = {
    "profiles.Z_eval": [("asymptotics", "Z_eval")],
    "profiles.chi": [("solver", "chi")],
    "profiles.constants": [("harness", "constants")],
    "harness.make_initial_data": [("harness", "make_initial_data")],
    "solver.integrate": [("harness", "integrate"), ("solver", "integrate")],
    "solver.solve_aux": [("solver", "solve_aux")],
    "asymptotics.error_series_multi": [("asymptotics", "error_series_multi")],
    "asymptotics.optimal_rate_report": [("asymptotics", "optimal_rate_report")],
    "asymptotics.fit_rate": [("asymptotics", "fit_rate"), ("checks", "fit_rate")],
    "semigroup.T_apply": [("semigroup", "T_apply"), ("harness", "T_apply")],
    "semigroup.U_apply": [("semigroup", "U_apply")],
    "semigroup.helmholtz_inv_direct": [("semigroup", "helmholtz_inv_direct")],
}

SOLVER_SPANS = ("solver.integrate", "solver.solve_aux")


def _z_attrs(args, kwargs, result):
    derivative = kwargs.get("derivative", args[4] if len(args) > 4 else 0)
    return {"t": float(args[1]), "derivative": int(derivative)}


def _trajectory_attrs(args, kwargs, traj):
    return {
        "steps": sum(s.n_steps for s in traj.step_stats),
        "segments": len(traj.step_stats),
    }


ATTRS = {
    "profiles.Z_eval": _z_attrs,
    "solver.integrate": _trajectory_attrs,
    "solver.solve_aux": _trajectory_attrs,
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, sid, name, start, parent, run):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.attrs = {}

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "attrs": self.attrs}


class NullTracer:
    """Stands in for a Tracer in untraced operations."""

    def span(self, name):
        return contextlib.nullcontext()

    def installed(self, modules, run):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._run = None
        self._solver = None  # innermost open solver span, owner of fft counters

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent, self._run)
        self.spans.append(sp)
        self._stack.append(sp)
        outer_solver = self._solver
        if name in SOLVER_SPANS:
            self._solver = sp
            sp.attrs.update(fft_calls=0, fft_busy_s=0.0)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._solver = outer_solver

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    sp.attrs.update(attrs(args, kwargs, result))
                return result

        return traced

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            owner = self._solver
            if owner is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                owner.attrs["fft_calls"] += 1
                owner.attrs["fft_busy_s"] += time.perf_counter() - t0

        return counted

    @contextlib.contextmanager
    def installed(self, modules, run):
        """Swap the wrappers in for one operation with run id `run`."""
        saved = []
        try:
            for name, sites in HOOKS.items():
                original = getattr(modules[sites[0][0]], sites[0][1])
                wrapper = self._wrap(name, original)
                for mod, attr in sites:
                    saved.append((modules[mod], attr, getattr(modules[mod], attr)))
                    setattr(modules[mod], attr, wrapper)
            for attr in ("rfft", "irfft"):
                saved.append((np.fft, attr, getattr(np.fft, attr)))
                setattr(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))
            self._run = run
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)
            self._run = None

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.record(), sort_keys=True) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    out = {sp.id: sp.end - sp.start for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.end - sp.start
    return out


def self_by_name(spans) -> dict:
    """Span name -> total self time of its spans."""
    selfs = self_times(spans)
    out = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + selfs[sp.id]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced operation (the spans of one run id)."""
    selfs = self_by_name(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def busy(name):
        return sum(sp.end - sp.start for sp in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def attr_sum(names, key):
        return sum(sp.attrs.get(key, 0) for n in names for sp in by_name.get(n, []))

    m = {}
    z = by_name.get("profiles.Z_eval", [])
    m["profiles.Z_eval.calls"] = len(z)
    m["profiles.Z_eval.busy_s"] = busy("profiles.Z_eval")
    t_first = min((sp.attrs["t"] for sp in z), default=None)
    m["profiles.Z_eval.first_t_s"] = sum(
        sp.end - sp.start for sp in z if sp.attrs["t"] == t_first)
    distinct = {(sp.attrs["t"], sp.attrs["derivative"]) for sp in z}
    m["profiles.Z_eval.distinct_ratio"] = len(distinct) / len(z) if z else 0.0

    m["asymptotics.error_series_multi.calls"] = calls("asymptotics.error_series_multi")
    m["asymptotics.error_series_multi.busy_s"] = busy("asymptotics.error_series_multi")
    m["asymptotics.error_series_multi.self_s"] = selfs.get(
        "asymptotics.error_series_multi", 0.0)
    m["asymptotics.optimal_rate_report.busy_s"] = busy("asymptotics.optimal_rate_report")
    m["asymptotics.fit_rate.busy_s"] = busy("asymptotics.fit_rate")

    for name in SOLVER_SPANS:
        steps = attr_sum([name], "steps")
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.steps"] = steps
        m[f"{name}.ms_per_step"] = 1e3 * busy(name) / steps if steps else 0.0
    m["solver.integrate.segments"] = attr_sum(["solver.integrate"], "segments")
    fft_calls = attr_sum(SOLVER_SPANS, "fft_calls")
    all_steps = attr_sum(SOLVER_SPANS, "steps")
    m["solver.fft_calls"] = fft_calls
    m["solver.fft_busy_s"] = attr_sum(SOLVER_SPANS, "fft_busy_s")
    m["solver.fft_per_step"] = fft_calls / all_steps if all_steps else 0.0

    m["profiles.chi.calls"] = calls("profiles.chi")
    m["profiles.chi.busy_s"] = busy("profiles.chi")
    m["harness.run_experiment.busy_s"] = busy("harness.run_experiment")
    m["harness.run_experiment.self_s"] = selfs.get("harness.run_experiment", 0.0)
    m["harness.make_initial_data.busy_s"] = busy("harness.make_initial_data")
    m["profiles.constants.busy_s"] = busy("profiles.constants")
    m["semigroup.T_apply.calls"] = calls("semigroup.T_apply")
    m["semigroup.T_apply.busy_s"] = busy("semigroup.T_apply")
    m["semigroup.U_apply.busy_s"] = busy("semigroup.U_apply")
    m["semigroup.helmholtz_inv_direct.busy_s"] = busy("semigroup.helmholtz_inv_direct")
    for suite in ("identities", "semigroup", "oracles", "rates"):
        m[f"checks.suite_{suite}.busy_s"] = busy(f"checks.suite_{suite}")
    return m
