import numpy as np
import pytest

from bbmburgers import Field, InstabilityError, ModelParams, make_grid
from bbmburgers import solver as sv


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
    """Call with n to make the solver's step loop raise InstabilityError on
    its first n calls, as the blow-up sentinel would."""

    def install(failures=1):
        real = sv._march
        calls = {"n": 0}

        def march(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise InstabilityError("injected blow-up")
            return real(*args, **kwargs)

        monkeypatch.setattr(sv, "_march", march)

    return install


def band_limited(grid, rng, n_modes=16, amplitude=1.0):
    """Random real band-limited field (modes 1..n_modes)."""
    vals = np.zeros(grid.n_points)
    k0 = np.pi / grid.half_width
    for k in range(1, n_modes + 1):
        a, b = rng.standard_normal(2) / k
        vals += a * np.cos(k * k0 * grid.x) + b * np.sin(k * k0 * grid.x)
    return Field(grid, amplitude * vals)
