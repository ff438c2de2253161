import numpy as np
import pytest

from bbmburgers import Field, InstabilityError, ModelParams, make_grid
from bbmburgers import profiles as pr
from bbmburgers import solver as sv
from bbmburgers.core import measurement_mask


@pytest.fixture
def grid40():
    return make_grid(40.0, 2048)


@pytest.fixture
def grid60():
    return make_grid(60.0, 2048)


@pytest.fixture
def params():
    return ModelParams(beta=1.0, gamma=1.0, alpha=1.5, mass=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def flaky_march(monkeypatch):
    """Call with n to make the solver's ETD-RK4 step, which the fixed-dt and
    step-doubling routes share, raise InstabilityError on its first n calls, as
    the blow-up sentinel would.  Returns the list that collects the step size
    of each injected failure."""

    def install(failures=1):
        real = sv._step
        failed_dts = []

        def step(uhat, t, t_half, t_end, coeffs, nl, Nu=None):
            if len(failed_dts) < failures:
                failed_dts.append(coeffs.dt)
                raise InstabilityError("injected blow-up")
            return real(uhat, t, t_half, t_end, coeffs, nl, Nu)

        monkeypatch.setattr(sv, "_step", step)
        return failed_dts

    return install


@pytest.fixture(scope="session")
def second_aux_bundle():
    """solve_second_aux at beta = gamma = 1, alpha = 3, M = 0.5 on L = 200,
    N = 8192, 21 samples on [1, 400], with the v - V gaps: max|d_x^l (v - V)|
    on the measurement window for l = 0, 1 and max|v - V| on the whole box."""
    p = ModelParams(beta=1.0, gamma=1.0, alpha=3.0, mass=0.5)
    grid = make_grid(200.0, 8192)
    times = np.geomspace(1.0, 400.0, 21)
    traj = sv.solve_second_aux(p, grid, times)
    ps = pr.constants(p)
    mask = measurement_mask(grid)
    gaps = {0: [], 1: []}
    full_gap = []
    for t, snap in zip(traj.times, traj.snapshots):
        gap0 = snap.values - pr.V(grid.x, t, p, ps)
        gap1 = grid.deriv(snap.values, 1) - pr.V_x(grid.x, t, p, ps)
        gaps[0].append(np.abs(gap0[mask]).max())
        gaps[1].append(np.abs(gap1[mask]).max())
        full_gap.append(np.abs(gap0).max())
    return {"traj": traj, "gaps": {l: np.asarray(v) for l, v in gaps.items()},
            "full_gap": np.asarray(full_gap)}


def band_limited(grid, rng, n_modes=16, amplitude=1.0):
    """Random real band-limited field (modes 1..n_modes)."""
    vals = np.zeros(grid.n_points)
    k0 = np.pi / grid.half_width
    for k in range(1, n_modes + 1):
        a, b = rng.standard_normal(2) / k
        vals += a * np.cos(k * k0 * grid.x) + b * np.sin(k * k0 * grid.x)
    return Field(grid, amplitude * vals)
