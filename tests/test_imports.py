import importlib
import importlib.util
import os
import subprocess
import sys

import bbmburgers

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


def test_bench_hooks_resolve():
    # the benchmark's tracer wraps these attributes by name; a renamed target
    # would otherwise surface only in the benchmark's own smoke run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pairs = [pair for hooks in spans.HOOKS.values() for pair in hooks]
    assert pairs
    for module, attr in pairs:
        target = getattr(importlib.import_module(f"bbmburgers.{module}"), attr, None)
        assert callable(target), f"bbmburgers.{module}.{attr}"
