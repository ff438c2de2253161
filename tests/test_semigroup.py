import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from bbmburgers import (ConfigError, Field, MassMismatchError, ModelParams, NumericsError,
                        make_grid)
from bbmburgers import profiles as pr
from bbmburgers import semigroup as sg
from bbmburgers.core import lp_norm
from conftest import band_limited

P = ModelParams(beta=1.0, gamma=1.0, alpha=1.5, mass=0.5)


class TestTApply:
    def test_identity_at_t_zero(self, grid40, rng):
        f = band_limited(grid40, rng)
        out = sg.T_apply(f, 0.0, P)
        assert np.abs(out.values - f.values).max() < 1e-14

    def test_mass_preserved(self, grid40, rng):
        f = band_limited(grid40, rng)
        for t in (0.5, 7.0, 300.0):
            drift = abs(sg.T_apply(f, t, P).mass() - f.mass())
            assert drift <= 1e-13 * max(1.0, abs(f.mass()))

    def test_semigroup_property(self, grid40, rng):
        f = band_limited(grid40, rng)
        one = sg.T_apply(sg.T_apply(f, 0.7, P), 1.3, P)
        two = sg.T_apply(f, 2.0, P)
        scale = max(1.0, np.abs(two.values).max())
        assert np.abs(one.values - two.values).max() <= 1e-10 * scale

    def test_l2_decay_bound_calibrated(self):
        # ||T(t) f||_2 <= C (1+t)^{-1/4} ||f||_1 + e^{-t/2} ||f||_2,
        # C calibrated at t = 1, then the bound is checked at later times
        g = make_grid(200.0, 4096)
        f = Field(g, np.exp(-g.x**2 / 4.0))
        C = lp_norm(sg.T_apply(f, 1.0, P), 2) * 2.0**0.25 / lp_norm(f, 1)
        for t in (1.0, 10.0, 100.0):
            lhs = lp_norm(sg.T_apply(f, t, P), 2)
            rhs = C * (1.0 + t) ** -0.25 * lp_norm(f, 1) + math.exp(-t / 2) * lp_norm(f, 2)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_overflow_guard_at_huge_time(self, grid40, rng):
        out = sg.T_apply(band_limited(grid40, rng), 1e6, P)
        assert np.all(np.isfinite(out.values))

    def test_negative_time_rejected(self, grid40, rng):
        with pytest.raises(ConfigError):
            sg.T_apply(band_limited(grid40, rng), -1.0, P)


class TestGApply:
    def test_identity_at_t_zero(self, grid40, rng):
        f = band_limited(grid40, rng)
        assert np.abs(sg.G_apply(f, 0.0).values - f.values).max() < 1e-14

    def test_gaussian_variance_addition(self):
        g = make_grid(40.0, 2048)
        s0, t = 0.5, 2.0
        f = Field(g, np.exp(-g.x**2 / (4 * s0)) / math.sqrt(4 * math.pi * s0))
        out = sg.G_apply(f, t)
        ref = np.exp(-g.x**2 / (4 * (s0 + t))) / math.sqrt(4 * math.pi * (s0 + t))
        assert np.abs(out.values - ref).max() < 1e-8

    def test_max_principle(self, grid40, rng):
        f = band_limited(grid40, rng)
        for t in (0.1, 1.0, 10.0):
            out = sg.G_apply(f, t).values
            assert out.min() >= f.values.min() - 1e-12
            assert out.max() <= f.values.max() + 1e-12


class TestTGGap:
    def test_band_limited_smallness_without_dispersion(self):
        p0 = ModelParams(beta=1.0, gamma=0.0, alpha=1.5, mass=0.5)
        g = make_grid(400.0, 1024)
        f = Field(g, np.cos(np.pi * g.x / g.half_width))  # xi = pi/400 < 0.01
        assert sg.TG_gap(f, 1.0, p0) < 1e-3 * lp_norm(f, 2)

    def test_zero_field(self, grid40):
        f = Field(grid40, np.zeros(grid40.n_points))
        assert sg.TG_gap(f, 5.0, P) == 0.0

    def test_matches_direct_subtraction(self, grid40, rng):
        f = band_limited(grid40, rng)
        t = 3.0
        direct = Field(grid40, sg.T_apply(f, t, P).values - sg.G_apply(f, t).values)
        assert abs(sg.TG_gap(f, t, P) - lp_norm(direct, 2)) < 1e-12


class TestHelmholtz:
    def test_cosine_eigenfunction(self):
        g = make_grid(16.0, 256)
        k = 3 * np.pi / g.half_width
        f = Field(g, np.cos(k * g.x))
        out = sg.helmholtz_inv(f)
        assert np.abs(out.values - np.cos(k * g.x) / (1 + k**2)).max() < 1e-12

    def test_dual_implementations_agree(self, rng):
        g = make_grid(20.0, 1024)
        f = band_limited(g, rng, n_modes=12)
        idx = np.arange(0, g.n_points, g.n_points // 32)
        direct = sg.helmholtz_inv_direct(f, x_eval=g.x[idx])
        spectral = sg.helmholtz_inv(f).values[idx]
        assert np.abs(direct - spectral).max() < 1e-8

    def test_direct_route_interpolates_from_one_fft(self, rng, monkeypatch):
        g = make_grid(16.0, 128)
        f = band_limited(g, rng, n_modes=6)
        calls = []
        real_fft = np.fft.fft

        def counting_fft(*args, **kwargs):
            calls.append(1)
            return real_fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        direct = sg.helmholtz_inv_direct(f, x_eval=g.x[[0, 40, 90]])
        assert len(calls) == 1
        assert np.abs(direct - sg.helmholtz_inv(f).values[[0, 40, 90]]).max() < 1e-8

    def test_direct_route_cosine_closed_form(self):
        # (e^{-|u|}/2 on |u| <= c) * cos(k x) has a closed form; the points are off-grid
        g = make_grid(16.0, 256)
        k = 5 * np.pi / g.half_width
        c = sg._HELMHOLTZ_CUTOFF
        x0 = np.array([-15.3, -2.71, 0.05, 3.3, 11.123])
        direct = sg.helmholtz_inv_direct(Field(g, np.cos(k * g.x)), x0)
        exact = (np.cos(k * x0) * (1 + math.exp(-c) * (k * math.sin(k * c) - math.cos(k * c)))
                 / (1 + k**2))
        assert np.abs(direct - exact).max() < 1e-10

    def test_direct_route_up_to_nyquist(self, rng):
        g = make_grid(16.0, 256)
        f = Field(g, rng.standard_normal(g.n_points))  # content up to the Nyquist mode
        idx = np.arange(0, g.n_points, 7)
        direct = sg.helmholtz_inv_direct(f, g.x[idx])
        assert np.abs(direct - sg.helmholtz_inv(f).values[idx]).max() < 1e-10

    def test_direct_route_raises_when_quadrature_fails(self, rng, monkeypatch):
        g = make_grid(16.0, 128)
        f = band_limited(g, rng, n_modes=6)
        monkeypatch.setattr(sg, "_QUAD_LIMIT", 1)
        with pytest.raises(NumericsError, match="quadrature failed"):
            sg.helmholtz_inv_direct(f, g.x[[0, 40, 90]])

    def test_l2_contraction(self, grid40, rng):
        f = band_limited(grid40, rng)
        assert lp_norm(sg.helmholtz_inv(f), 2) <= lp_norm(f, 2)

    def test_positivity_preserved(self, grid40):
        f = Field(grid40, np.exp(-grid40.x**2 / 4.0))
        assert sg.helmholtz_inv(f).values.min() >= -1e-12

    def test_multipliers_commute(self, grid40, rng):
        f = band_limited(grid40, rng)
        a = sg.helmholtz_inv(sg.T_apply(sg.G_apply(f, 1.0), 2.0, P))
        b = sg.T_apply(sg.G_apply(sg.helmholtz_inv(f), 1.0), 2.0, P)
        assert np.abs(a.values - b.values).max() < 1e-10


class TestUOperator:
    def _mass_zero(self, grid, vals):
        return Field(grid, vals - grid.dx * vals.sum() / (2 * grid.half_width))

    def test_zero_input(self, grid60):
        h = Field(grid60, np.zeros(grid60.n_points))
        out = sg.U_apply(h, 2.0, 0.0, P)
        assert np.abs(out.values).max() < 1e-15

    def test_reduces_to_heat_flow_without_wave(self):
        p0 = ModelParams(beta=1.0, gamma=1.0, alpha=1.5, mass=0.0)
        g = make_grid(60.0, 4096)
        h = self._mass_zero(g, 0.1 * (g.x / 2) * np.exp(-g.x**2 / 4.0))
        out = sg.U_apply(h, 2.0, 0.0, p0)
        ref = sg.G_apply(h, 2.0)
        assert np.abs(out.values - ref.values).max() < 1e-6

    def test_output_has_zero_mass(self, grid60):
        h = self._mass_zero(grid60, 0.2 * np.sin(grid60.x) * np.exp(-grid60.x**2 / 8))
        out = sg.U_apply(h, 4.0, 1.0, P)
        assert abs(out.mass()) < 1e-7

    def test_rejects_bad_times_and_mass(self, grid60):
        h = self._mass_zero(grid60, 0.1 * np.exp(-grid60.x**2))
        with pytest.raises(ConfigError):
            sg.U_apply(h, 1.0, 1.0, P)
        bad = Field(grid60, 0.1 * np.exp(-grid60.x**2))
        with pytest.raises(MassMismatchError):
            sg.U_apply(bad, 2.0, 0.0, P)

    def _oracles_input(self):
        """The z0 of the U-operator check in checks.suite_oracles."""
        g = make_grid(60.0, 4096)
        return self._mass_zero(g, 0.1 * (g.x / 2.0) * np.exp(-g.x**2 / 4.0))

    @staticmethod
    def _nodes(g, dt):
        y, wq = pr.panel_gauss_nodes(g.x[0], g.x[-1], min(max(math.sqrt(dt), 0.5), 25.0))
        keep = (y >= g.x[0]) & (y <= g.x[-1])
        return y[keep], wq[keep]

    @pytest.mark.parametrize("t", [1.0, 4.0, 16.0])
    def test_matches_dense_node_sum(self, t):
        # the U-operator quadrature with the kernel summed over every node
        h = self._oracles_input()
        g = h.grid
        prim = cumulative_trapezoid(h.values, dx=g.dx, initial=0.0)
        y, wq = self._nodes(g, t)
        weighted = wq * CubicSpline(g.x, prim / pr.eta(g.x, 0.0, P))(y)
        b = 0.5 * P.beta * pr.chi(g.x, t, P)
        dense = np.empty(g.n_points)
        for i in range(0, g.n_points, 256):
            z = g.x[i : i + 256, None] - y[None, :]
            kern = np.exp(-z * z / (4.0 * t)) * (b[i : i + 256, None] - z / (2.0 * t))
            dense[i : i + 256] = kern @ weighted
        dense *= pr.eta(g.x, t, P) / math.sqrt(4.0 * math.pi * t)
        out = sg.U_apply(h, t, 0.0, P).values
        assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_kernel_sums_only_reachable_nodes(self, monkeypatch):
        # at t - tau = 1 the Gaussian is below 1e-17 on 80 % of the
        # (grid point, node) pairs; the blocks must skip most of them
        h = self._oracles_input()
        real = pr._gauss_bands
        pairs = []

        def spy(x, y, s):
            for rows, nodes in real(x, y, s):
                pairs.append(len(x[rows]) * len(y[nodes]))
                yield rows, nodes

        monkeypatch.setattr(pr, "_gauss_bands", spy)
        sg.U_apply(h, 1.0, 0.0, P)
        n_nodes = self._nodes(h.grid, 1.0)[0].size
        assert 0 < sum(pairs) <= 0.3 * h.grid.n_points * n_nodes


class TestKernelTableConsistency:
    def test_multiplier_is_hermitian(self, grid40):
        m = sg.t_multiplier(grid40.xi, grid40.xi_odd, 2.0, 1.0)
        for k in range(1, grid40.n_points // 2):
            assert abs(m[k] - np.conj(m[-k])) < 1e-15

    def test_multiplier_at_origin_is_one(self, grid40):
        m = sg.t_multiplier(grid40.xi, grid40.xi_odd, 123.0, 1.0)
        assert m[0] == 1.0 + 0.0j
