import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import bbmburgers

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
# scipy subpackages the production path must not load; only the oracle routes
# (checks.suite_identities, helmholtz_inv_direct, U_apply, fM_check) import
# scipy.integrate or scipy.interpolate, and only when they are called
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse",
         "scipy.linalg")

PROGRAM = f"""
import sys

import numpy as np

import bbmburgers
import bbmburgers.checks
import bbmburgers.cli
from bbmburgers import ModelParams, make_grid
from bbmburgers import harness, solver

s = harness.Scenario(name="guard", beta=1.0, gamma=1.0, alpha=1.5, mass=0.3,
                     data_kind="prescribed_r0", amplitude=0.0, c_plus=1.0,
                     c_minus=-1.0, L=50.0, N=1024,
                     t_samples=list(np.geomspace(1.0, 36.0, 9)),
                     norms=["linf"], derivative_orders=[0, 1])
harness.run_experiment(s, out_root=None)
solver.solve_second_aux(ModelParams(1.0, 1.0, 3.0, 0.5), make_grid(40.0, 512),
                        [1.0, 2.0])
print(",".join(m for m in {HEAVY!r} if m in sys.modules))
"""


def test_production_path_loads_no_heavy_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbmburgers.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""


def _bench_module(name):
    """perfbench/<name>.py, loaded from its path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_resolve():
    # the benchmark's tracer wraps these attributes by name; a renamed target
    # would otherwise surface only in the benchmark's own smoke run
    spans = _bench_module("spans")
    assert spans.HOOKS
    for span, hooks in spans.HOOKS.items():
        # each hooked attribute is the function its span is named after, so a
        # caller that stops reaching it through the hook shows up here
        home, _, name = span.rpartition(".")
        origin = getattr(importlib.import_module(f"bbmburgers.{home}"), name)
        assert callable(origin) and hooks, span
        for module, attr in hooks:
            target = getattr(importlib.import_module(f"bbmburgers.{module}"), attr, None)
            assert target is origin, f"bbmburgers.{module}.{attr} is not {span}"


wls = _bench_module("workloads")


@pytest.mark.parametrize("name", [n for n, w in wls.WORKLOADS.items() if w.pinned])
def test_bench_smoke_routes_reproduce_reference(name, tmp_path):
    # every smoke variant of a pinned workload, run in process as the benchmark's
    # worker runs it: a signature or numerics drift in what it calls shows here
    # rather than only in a benchmark run
    wl, null = wls.WORKLOADS[name], _bench_module("spans").NullTracer()
    reference = wls.load_reference()
    for variant in range(wls.N_VARIANTS):
        inputs = wl.inputs(bbmburgers, "smoke", variant)
        entry = reference[wls.reference_key(name, "smoke", variant)]
        assert entry["params"] == wls.describe(inputs), variant
        result = wl.run(bbmburgers, inputs, null, str(tmp_path / f"v{variant}"))
        problems = wl.check(bbmburgers, inputs, result, {})
        _, more = wls.exponent_shift(wl.exponents(bbmburgers, result),
                                     entry["exponents"])
        assert not problems + more, (variant, problems + more)
