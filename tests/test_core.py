import ast
import importlib
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmburgers import ConfigError, Field, lp_norm, make_grid
from bbmburgers.core import (
    cumulative_trapezoid,
    half_spectrum_energy,
    smoothstep,
    smoothstep_deriv,
    tail_taper,
)
from conftest import band_limited

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bbmburgers"


class TestMakeGrid:
    def test_small_grid_arithmetic(self):
        g = make_grid(16.0, 64)
        assert g.dx == 0.5
        assert g.dx * g.n_points == 2.0 * g.half_width
        # wavenumbers are multiples of pi/16
        ratios = g.xi / (np.pi / 16.0)
        assert np.allclose(ratios, np.round(ratios), atol=1e-12)

    def test_production_grid_spacing(self):
        g = make_grid(400.0, 16384)
        assert abs(g.dx - 0.048828125) < 1e-12

    @pytest.mark.parametrize("L,N", [(16.0, 63), (16.0, 100), (-1.0, 64), (0.0, 64), (16.0, 8)])
    def test_rejects_bad_arguments(self, L, N):
        with pytest.raises(ConfigError):
            make_grid(L, N)

    def test_wavenumbers_antisymmetric_except_nyquist(self):
        g = make_grid(16.0, 64)
        for k in range(1, g.n_points // 2):
            assert g.xi[k] == -g.xi[-k]
        assert g.xi[g.n_points // 2] < 0  # lone Nyquist mode


class TestTransforms:
    def test_cosine_has_two_modes(self):
        # the +-k pair is one half-spectrum coefficient, counted twice
        g = make_grid(16.0, 64)
        hat = np.fft.rfft(np.cos(np.pi * g.x / g.half_width))
        assert hat.size == g.xi_half.size == g.n_points // 2 + 1
        nz = np.abs(hat) > 1e-9 * g.n_points
        assert nz.sum() == 1
        assert np.round(g.xi_half[nz] / (np.pi / 16.0)).astype(int).tolist() == [1]
        e = half_spectrum_energy(hat)
        assert e[nz][0] == pytest.approx(2.0 * (g.n_points / 2) ** 2, rel=1e-12)

    def test_half_spectrum_arrays(self):
        g = make_grid(16.0, 64)
        assert np.array_equal(g.xi_half[:-1], g.xi[: g.n_points // 2])
        assert g.xi_half[-1] == -g.xi[g.n_points // 2] > 0  # Nyquist, sign flipped
        assert g.xi_half_odd[-1] == 0.0
        assert np.array_equal(g.xi_half_odd[:-1], g.xi_half[:-1])
        assert np.array_equal(g.dealias, np.arange(g.xi_half.size) < g.n_points // 3)
        assert np.array_equal(g.nyquist_band, ~g.dealias)

    def test_roundtrip_random(self, grid40, rng):
        v = rng.standard_normal(grid40.n_points)
        back = np.fft.irfft(np.fft.rfft(v), n=grid40.n_points)
        assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()

    def test_parseval(self, grid40, rng):
        # random samples carry Nyquist content, which counts once
        f = Field(grid40, rng.standard_normal(grid40.n_points))
        lhs = lp_norm(f, 2) ** 2
        energy = half_spectrum_energy(np.fft.rfft(f.values)).sum()
        rhs = grid40.dx / grid40.n_points * float(energy)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    def test_non_finite_rejected(self, grid40):
        v = np.zeros(grid40.n_points)
        v[3] = np.nan
        with pytest.raises(Exception):
            Field(grid40, v)


class TestDerivative:
    def test_sine(self):
        g = make_grid(16.0, 512)
        k = np.pi / g.half_width
        out = g.deriv(np.sin(k * g.x), 1)
        assert np.abs(out - k * np.cos(k * g.x)).max() < 1e-10

    def test_constant(self, grid40):
        v = np.full(grid40.n_points, 3.7)
        for l in (1, 2, 3):
            assert np.abs(grid40.deriv(v, l)).max() < 1e-12

    def test_gaussian_second_derivative(self):
        g = make_grid(40.0, 2048)
        v = np.exp(-g.x**2 / 4.0)
        exact = (g.x**2 / 4.0 - 0.5) * np.exp(-g.x**2 / 4.0)
        assert np.abs(g.deriv(v, 2) - exact).max() < 1e-8

    def test_composition(self, grid40, rng):
        v = band_limited(grid40, rng).values
        twice = grid40.deriv(grid40.deriv(v, 1), 1)
        once = grid40.deriv(v, 2)
        scale = max(1.0, np.abs(once).max())
        assert np.abs(twice - once).max() <= 1e-10 * scale

    def test_negative_order_rejected(self, grid40):
        with pytest.raises(ConfigError):
            grid40.deriv(np.zeros(grid40.n_points), -1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(0, 3),
           log2_n=st.integers(4, 9), nyquist=st.floats(-1.0, 1.0))
    def test_matches_full_spectrum_route(self, seed, l, log2_n, nyquist):
        # the full complex FFT route with Nyquist zeroed only for odd l
        g = make_grid(10.0, 2**log2_n)
        v = np.random.default_rng(seed).standard_normal(g.n_points)
        v += nyquist * np.cos(np.pi * np.arange(g.n_points))
        xi = g.xi_odd if l % 2 else g.xi
        ref = np.fft.ifft((1j * xi) ** l * np.fft.fft(v)).real
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(g.deriv(v, l) - ref).max() <= 1e-12 * scale


class TestNorms:
    def test_box_l1(self):
        g = make_grid(16.0, 256)
        vals = np.where(np.abs(g.x) <= 1.0, 1.0, 0.0)
        assert abs(lp_norm(Field(g, vals), 1) - 2.0) <= g.dx

    def test_zero(self, grid40):
        f = Field(grid40, np.zeros(grid40.n_points))
        assert lp_norm(f, 1) == lp_norm(f, 2) == lp_norm(f, np.inf) == 0.0

    def test_gaussian_l2(self):
        # ||e^{-x^2}||_2 = (pi/2)^{1/4}, frozen from the analytic integral
        g = make_grid(40.0, 4096)
        f = Field(g, np.exp(-g.x**2))
        assert abs(lp_norm(f, 2) - (math.pi / 2.0) ** 0.25) < 1e-6

    def test_monotone_under_domination(self, grid40, rng):
        small = np.abs(rng.standard_normal(grid40.n_points))
        big = small + np.abs(rng.standard_normal(grid40.n_points))
        fs, fb = Field(grid40, small), Field(grid40, big)
        for p in (1, 2, np.inf):
            assert lp_norm(fs, p) <= lp_norm(fb, p)

    def test_unknown_p_rejected(self, grid40):
        with pytest.raises(ConfigError):
            lp_norm(Field(grid40, np.zeros(grid40.n_points)), 3)

    def test_cumulative_trapezoid_matches_scipy(self, grid40, rng):
        # the same arithmetic as scipy's, so the primitives agree bit for bit
        from scipy.integrate import cumulative_trapezoid as scipy_cumtrapz

        for n in (2, 3, grid40.n_points):
            y = rng.standard_normal(n)
            ours = cumulative_trapezoid(y, grid40.dx)
            ref = scipy_cumtrapz(y, dx=grid40.dx, initial=0.0)
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


class TestCutoffs:
    def test_smoothstep_endpoints(self):
        s = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        out = smoothstep(s)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[3] == 1.0 and out[4] == 1.0
        assert 0.0 < out[2] < 1.0

    def test_smoothstep_monotone(self):
        s = np.linspace(-0.5, 1.5, 401)
        assert np.all(np.diff(smoothstep(s)) >= 0)

    def test_smoothstep_deriv_matches_fd(self):
        s = np.linspace(0.05, 0.95, 91)
        h = 1e-6
        fd = (smoothstep(s + h) - smoothstep(s - h)) / (2 * h)
        assert np.abs(smoothstep_deriv(s) - fd).max() < 1e-6

    def test_taper_flat_and_zero(self, grid40):
        t = tail_taper(grid40)
        flat = np.abs(grid40.x) <= 0.8 * grid40.half_width
        assert np.all(t[flat] == 1.0)
        assert t[0] == 0.0  # x = -L


class _FullFftFinder(ast.NodeVisitor):
    """Records `<x>.fft.fft` / `<x>.fft.ifft` uses with their enclosing function."""

    def __init__(self):
        self.where = ["<module>"]
        self.hits = []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Attribute(self, node):
        if (node.attr in ("fft", "ifft") and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"):
            self.hits.append((node.lineno, self.where[-1]))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if (node.module or "").endswith("fft") and \
                {a.name for a in node.names} & {"fft", "ifft"}:
            self.hits.append((node.lineno, self.where[-1]))


class TestSpectralLayer:
    ALLOWED = {("semigroup.py", "helmholtz_inv_direct")}  # the interpolation oracle

    def test_full_complex_fft_only_in_core(self):
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "core.py":
                continue
            finder = _FullFftFinder()
            finder.visit(ast.parse(path.read_text()))
            offenders += [f"{path.name}:{line} in {func}" for line, func in finder.hits
                          if (path.name, func) not in self.ALLOWED]
        assert not offenders, offenders


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _foreign_private_uses(tree) -> list:
    """`from .m import _x` and `m._x`, for m a module of the package: the uses of
    another module's private names in one module's syntax tree."""
    modules, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("bbmburgers")):
            for alias in node.names:
                if node.module in (None, "bbmburgers"):  # binds a module
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    hits.append((node.lineno, f"{node.module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.asname and a.name.startswith("bbmburgers."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return hits


class TestModuleBoundaries:
    def test_no_module_reaches_into_another_modules_private_names(self):
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            offenders += [f"{path.name}:{line} {name}"
                          for line, name in _foreign_private_uses(ast.parse(path.read_text()))]
        assert not offenders, offenders


class _OuterDifferenceFinder(ast.NodeVisitor):
    """Records the functions that call `np.subtract.outer`."""

    def __init__(self):
        self.where = ["<module>"]
        self.hits = set()

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Attribute(self, node):
        if (node.attr == "outer" and isinstance(node.value, ast.Attribute)
                and node.value.attr == "subtract"):
            self.hits.add(self.where[-1])
        self.generic_visit(node)


class TestHeatKernelSums:
    def test_one_function_forms_point_node_differences(self):
        # the U-operator and Z oracles share one eta-weighted heat-kernel sum
        owners = []
        for path in sorted(SRC.glob("*.py")):
            finder = _OuterDifferenceFinder()
            finder.visit(ast.parse(path.read_text()))
            owners += [f"{path.name}: {func}" for func in sorted(finder.hits)]
        assert owners == ["profiles.py: dx_eta_heat"], owners


class TestPublicNames:
    def test_every_all_entry_exists(self):
        # a name deleted from a module but left in its __all__ breaks star imports
        stale = []
        for path in sorted(SRC.glob("*.py")):
            module = importlib.import_module(f"bbmburgers.{path.stem}")
            stale += [f"{path.name}: {name}" for name in getattr(module, "__all__", ())
                      if not hasattr(module, name)]
        assert not stale, stale
