import math

import numpy as np
import pytest
from scipy import integrate as spi

from bbmburgers import (ConfigError, Field, MassMismatchError, ModelParams, NumericsError,
                        make_grid)
from bbmburgers import profiles as pr
from bbmburgers.core import lp_norm, measurement_mask, tail_taper, tail_taper_deriv

P = ModelParams(beta=1.0, gamma=1.0, alpha=1.5, mass=0.5)


class TestChiStar:
    def test_zero_mass_vanishes(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.0)
        x = np.linspace(-30, 30, 101)
        assert np.all(pr.chi_star(x, p) == 0.0)

    def test_mass_conservation_by_quadrature(self):
        val, _ = spi.quad(lambda y: pr.chi_star(np.array([y]), P)[0], -60, 60,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abs(val - 0.5) < 1e-8

    def test_small_mass_linearization(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.01)
        x = np.linspace(-30, 30, 2001)
        lin = (p.mass / (2.0 * math.sqrt(math.pi))) * np.exp(-x**2 / 4.0)
        assert np.abs(pr.chi_star(x, p) - lin).max() < 1e-4

    def test_derivative_recurrences_against_fd(self):
        x = np.linspace(-8, 8, 161)
        h = 1e-5
        fd1 = (pr.chi_star(x + h, P) - pr.chi_star(x - h, P)) / (2 * h)
        assert np.abs(pr.chi_star_deriv(x, P) - fd1).max() < 1e-9
        fd2 = (pr.chi_star_deriv(x + h, P) - pr.chi_star_deriv(x - h, P)) / (2 * h)
        assert np.abs(pr.chi_and_chi_xx(x, 0.0, P)[1] - fd2).max() < 1e-9

    @pytest.mark.parametrize("beta, mass", [(1.0, 0.5), (-1.0, 0.5), (1.0, -0.5),
                                            (0.9, 0.4), (0.0, 0.3), (2.0, 1.0),
                                            (1.0, 3.0)])
    def test_sup_matches_dense_grid(self, beta, mass):
        # the dense grid samples the extremum to within (5e-6)^2 |chi_star''|
        p = ModelParams(beta, 1.0, 1.5, mass)
        dense = np.abs(pr.chi_star(np.linspace(-5.0, 5.0, 2_000_001), p)).max()
        sup = pr.chi_star_sup(p)
        assert dense <= sup * (1.0 + 1e-15)
        assert sup - dense <= 1e-11 * sup

    def test_sup_iteration_not_converged_raises(self, monkeypatch):
        monkeypatch.setattr(pr, "_SUP_ITERATIONS", 1)
        with pytest.raises(NumericsError, match="did not converge"):
            pr.chi_star_sup(P)


class TestChi:
    def test_t_zero_equals_generator(self):
        x = np.linspace(-20, 20, 401)
        assert np.abs(pr.chi(x, 0.0, P) - pr.chi_star(x, P)).max() == 0.0

    @pytest.mark.parametrize("t", [0.5, 3.0, 25.0])
    def test_mass_at_all_times(self, t):
        X = 60.0 * math.sqrt(1.0 + t)
        val, _ = spi.quad(lambda y: pr.chi(np.array([y]), t, P)[0], -X, X,
                          epsabs=1e-12, epsrel=1e-12, limit=400)
        assert abs(val - P.mass) < 1e-8

    def test_burgers_residual_spectral(self):
        g = make_grid(60.0, 2048)
        t = 1.0
        c = pr.chi(g.x, t, P)
        c_hat = np.fft.fft(c)
        cx = np.fft.ifft(1j * g.xi_odd * c_hat).real
        cxx = np.fft.ifft(-(g.xi**2) * c_hat).real
        residual = pr.chi_t(g.x, t, P) + P.beta * c * cx - cxx
        assert np.abs(residual).max() < 1e-6

    def test_decay_exponents_lemma_fits(self):
        # ||d_x^l chi(t)||_p should decay like (1+t)^{-(1-1/p)/2 - l/2}
        g = make_grid(400.0, 8192)
        times = np.array([1.0, 10.0, 100.0, 1000.0])
        for l, p_norm, expo in [(0, 1, 0.0), (0, 2, -0.25), (0, np.inf, -0.5),
                                (1, 2, -0.75), (1, np.inf, -1.0), (2, 2, -1.25)]:
            norms = []
            for t in times:
                vals = pr.chi(g.x, t, P)
                if l:
                    xi = g.xi_odd if l % 2 else g.xi
                    vals = np.fft.ifft((1j * xi) ** l * np.fft.fft(vals)).real
                norms.append(lp_norm(Field(g, vals), p_norm))
            slope = np.polyfit(np.log1p(times), np.log(norms), 1)[0]
            assert abs(slope - expo) < 0.05, (l, p_norm, slope)


class TestEta:
    def test_limits(self):
        lo = pr.eta_star(np.array([-50.0]), P)[0]
        hi = pr.eta_star(np.array([50.0]), P)[0]
        assert abs(lo - 1.0) < 1e-10
        assert abs(hi - math.exp(0.25)) < 1e-10

    def test_trivial_at_zero_mass(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.0)
        assert np.all(pr.eta_star(np.linspace(-9, 9, 33), p) == 1.0)

    def test_bounds_hold_pointwise(self):
        x = np.linspace(-200, 200, 20001)
        for M in (0.5, -0.7, 1.0):
            p = ModelParams(1.0, 1.0, 1.5, M)
            e = pr.eta_star(x, p)
            lo, hi = sorted((1.0, math.exp(0.5 * M)))
            assert e.min() >= lo - 1e-12 and e.max() <= hi + 1e-12

    def test_log_derivative_identity(self):
        # d/dx log eta* = (beta/2) chi*, checked by 4th-order finite differences
        x = np.linspace(-12, 12, 481)
        h = 1e-2
        log_eta = lambda z: np.log(pr.eta_star(z, P))
        fd = (-log_eta(x + 2 * h) + 8 * log_eta(x + h)
              - 8 * log_eta(x - h) + log_eta(x - 2 * h)) / (12 * h)
        assert np.abs(fd - 0.5 * P.beta * pr.chi_star(x, P)).max() < 1e-7


class TestVProfiles:
    def test_two_closed_forms_agree(self):
        x = np.linspace(-20, 20, 4001)
        dev = np.abs(pr.V_star(x, P) - pr.V_star_from_derivative(x, P)).max()
        assert dev <= 1e-10

    def test_V_at_t_zero(self):
        ps = pr.constants(P)
        assert np.all(pr.V(np.linspace(-5, 5, 11), 0.0, P, ps) == 0.0)

    def test_V_vanishes_without_dispersion(self):
        p = ModelParams(1.0, 0.0, 1.5, 0.5)
        ps = pr.constants(p)
        assert ps.kappa == 0.0
        assert np.all(pr.V(np.linspace(-5, 5, 11), 7.0, p, ps) == 0.0)

    def test_V_star_deriv_matches_fd(self):
        x = np.linspace(-10, 10, 201)
        h = 1e-5
        fd = (pr.V_star(x + h, P) - pr.V_star(x - h, P)) / (2 * h)
        assert np.abs(pr.V_star_deriv(x, P) - fd).max() < 1e-9


class TestZ:
    def setup_method(self):
        self.ps = pr.constants(P, c_alpha=(1.0, -1.0))

    def test_zero_tails_give_zero(self):
        ps0 = pr.constants(P, c_alpha=(0.0, 0.0))
        x = np.linspace(-50, 50, 101)
        for derivative in (0, 1):
            z = pr.Z_eval(x, 5.0, P, ps0, derivative=derivative)
            assert z.shape == (derivative + 1, x.size) and np.all(z == 0.0)

    def test_linearity_in_tail_constants(self):
        x = np.linspace(-40, 40, 201)
        base = pr.Z_eval(x, 7.0, P, self.ps, derivative=1)
        ps2 = pr.constants(P, c_alpha=(2.0, -2.0))
        assert np.array_equal(pr.Z_eval(x, 7.0, P, ps2, derivative=1), 2.0 * base)

    def test_rejects_bad_time_and_alpha(self):
        with pytest.raises(ConfigError):
            pr.Z_eval(np.zeros(3), 0.0, P, self.ps)
        p_fast = ModelParams(1.0, 1.0, 3.0, 0.5)
        with pytest.raises(ConfigError):
            pr.Z_eval(np.zeros(3), 1.0, p_fast, self.ps)

    def test_zero_integral_symmetric_case(self):
        # with M = 0 and even tails, Z is odd: its integral over [-X, X] vanishes
        p0 = ModelParams(1.0, 1.0, 1.5, 0.0)
        ps = pr.constants(p0, c_alpha=(1.0, 1.0))
        x = np.linspace(-400.0, 400.0, 4097)
        z = pr.Z_eval(x, 10.0, p0, ps)[0]
        assert abs(np.trapezoid(z, x)) < 1e-7

    def test_integral_matches_boundary_term(self):
        # on a finite window the x-integral of Z equals [eta (G*rho)] at the ends
        t, X = 10.0, 300.0
        x = np.linspace(-X, X, 24001)
        z = pr.Z_eval(x, t, P, self.ps)[0]
        integral = np.trapezoid(z, x)

        def g_conv_rho(x0):
            def f(y):
                c = self.ps.c_alpha_plus if y >= 0 else self.ps.c_alpha_minus
                return (c * (1.0 + abs(y)) ** (1.0 - P.alpha)
                        * math.exp(-((x0 - y) ** 2) / (4 * t))
                        / math.sqrt(4 * math.pi * t))
            val, _ = spi.quad(f, x0 - 60 * math.sqrt(t), x0 + 60 * math.sqrt(t),
                              points=[0.0] if abs(x0) < 60 * math.sqrt(t) else None,
                              epsabs=1e-12, epsrel=1e-12, limit=400)
            return val

        boundary = (pr.eta(np.array([X]), t, P)[0] * g_conv_rho(X)
                    - pr.eta(np.array([-X]), t, P)[0] * g_conv_rho(-X))
        assert abs(integral - boundary) < 1e-7

    def test_scaling_band(self):
        x = np.linspace(-400, 400, 4001)
        scaled = []
        for t in (10.0, 100.0, 1000.0):
            z = pr.Z_eval(x, t, P, self.ps)[0]
            scaled.append(np.abs(z).max() * (1.0 + t) ** (P.alpha / 2.0))
        assert max(scaled) / min(scaled) < 2.0

    # the O(h^4) remainder grows with the jump of rho''' at y = 0, largest at alpha = 2
    @pytest.mark.parametrize("alpha, c_alpha, tol",
                             [(1.5, (1.0, -1.0), 1e-8), (2.0, (1.0, 1.0), 5e-8)])
    def test_heat_route_matches_quadrature(self, alpha, c_alpha, tol):
        p = ModelParams(1.0, 1.0, alpha, 0.5)
        ps = pr.constants(p, c_alpha=c_alpha)
        x = np.linspace(-400.0, 400.0, 4001)  # dx = 0.2: lattice step dx/4
        for t in (1.0, 30.0):
            for l, z in enumerate(pr.Z_eval(x, t, p, ps, derivative=1)):
                ref = pr.Z_eval_quadrature(x[::5], t, p, ps, derivative=l)
                assert np.abs(z[::5] - ref).max() <= tol * np.abs(z).max()

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
    def test_quadrature_derivative_matches_dense_node_sum(self, t):
        # Z_x by the second-derivative kernel summed over every node, on the
        # points of the Z check in checks.suite_identities
        x = np.linspace(-20.0, 20.0, 801)
        lo, hi = pr._z_window(t, P.alpha, x[0], x[-1])
        y, w = pr.panel_gauss_nodes(lo, hi, min(math.sqrt(1.0 + t), pr._Z_PANEL_CAP))
        rho_w = w * np.where(y >= 0.0, 1.0, -1.0) * (1.0 + np.abs(y)) ** (1.0 - P.alpha)
        b = 0.5 * P.beta * pr.chi(x, t, P)[:, None]
        b1 = 0.5 * P.beta * pr.chi_x(x, t, P)[:, None]
        z = x[:, None] - y[None, :]
        gz = -z / (2.0 * t)
        kern = np.exp(-z * z / (4.0 * t)) * (gz * gz - 0.5 / t + 2.0 * b * gz + b1 + b * b)
        dense = pr.eta(x, t, P) * (kern @ rho_w) / math.sqrt(4.0 * math.pi * t)
        out = pr.Z_eval_quadrature(x, t, P, self.ps, derivative=1)
        assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_padding_just_above_a_power_of_two_matches_quadrature(self):
        # the convolution length is the smallest fast one >= n_rho, the lattice
        # points covered by rho; here n_rho exceeds 4096 by a few points, where
        # a power-of-two length would nearly double it
        x = np.linspace(-36.8, 36.8, 369)  # dx = 0.2: lattice step 0.05
        t = 30.0
        h, k = pr._z_lattice(x)
        J = math.ceil(pr._Z_KERNEL_REACH * math.sqrt(t) / h)
        n_rho = int(k.max() - k.min()) + 2 * J + 1
        assert 4096 < n_rho <= 4096 + 16
        for l, z in enumerate(pr.Z_eval(x, t, P, self.ps, derivative=1)):
            ref = pr.Z_eval_quadrature(x, t, P, self.ps, derivative=l)
            assert np.abs(z - ref).max() <= 1e-8 * np.abs(z).max()

    def test_fast_len_is_the_next_five_smooth_length(self):
        from scipy.fft import next_fast_len
        for n in list(range(1, 3000)) + [4103, 8205, 33290, 65537]:
            assert pr._fast_len(n) == next_fast_len(n, real=True), n

    @pytest.mark.parametrize("t", [0.3, 2.0, 30.0])
    def test_two_rows_are_the_first_rows_of_three(self, t):
        # Z_eval of order 0 asks for w and w' only; they must not depend on w''
        x = np.linspace(-20.0, 20.0, 201)
        h, k = pr._z_lattice(x)
        for m in (1, 2):
            two = pr._heat_lattice_terms(m * k, h / m, t, P, self.ps, 2)
            three = pr._heat_lattice_terms(m * k, h / m, t, P, self.ps, 3)
            assert two.shape == (2, k.size)
            assert np.array_equal(two, three[:2])
        # so the Z row of one derivative=1 call is the order-0 result, bit for bit
        rows = pr.Z_eval(x, t, P, self.ps, derivative=1)
        assert rows.shape == (2, x.size)
        assert np.array_equal(rows[0], pr.Z_eval(x, t, P, self.ps)[0])

    def _lattice_terms(self, k, m, p=P, ps=None, kink=False):
        # w, w', w'' at t = 2 on the lattice of step 0.4 / m through the points k 0.4
        ps = self.ps if ps is None else ps
        h = 0.4 / m
        raw = pr._heat_lattice_terms(m * k, h, 2.0, p, ps, 3)
        return raw + pr._kink_terms(0.4 * k, h, 2.0, p, ps, 3) if kink else raw

    def test_lattice_sum_is_second_order_before_extrapolation(self):
        # halving h cuts the error 4x only because rho takes the mean of its
        # jump at y = 0; the raw one-sided value would leave an O(h) error
        k = np.arange(-50, 51)
        ref = self._lattice_terms(k, 32, kink=True)
        err = [np.abs(self._lattice_terms(k, m) - ref).max(axis=1) for m in (4, 8)]
        assert np.all(np.abs(err[0] / err[1] - 4.0) < 0.1)

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_kink_terms_make_the_lattice_sum_sixth_order(self, alpha):
        # the h^2 and h^4 Euler-Maclaurin terms leave the O(h^6) remainder:
        # each halving of h (0.2, 0.1, 0.05) cuts the error 64x
        p = ModelParams(1.0, 1.0, alpha, 0.5)
        ps = pr.constants(p, c_alpha=(1.0, -1.0))
        k = np.arange(-50, 51)
        ref = self._lattice_terms(k, 64, p, ps, kink=True)
        err = [np.abs(self._lattice_terms(k, m, p, ps, kink=True) - ref).max(axis=1)
               for m in (2, 4, 8)]
        for coarse, fine in zip(err, err[1:]):
            assert np.all(np.abs(coarse / fine - 64.0) < 6.4)

    def test_rejects_times_below_four_lattice_steps_squared(self):
        # below t = 4 h^2 the heat multiplier's aliasing exceeds e^(-4 pi^2)
        x = np.linspace(-1.0, 1.0, 41)  # lattice step 0.05
        pr.Z_eval(x, 0.0101, P, self.ps)
        with pytest.raises(ConfigError):
            pr.Z_eval(x, 0.0099, P, self.ps)

    def test_matches_quadrature_across_alpha_and_tail_limits(self):
        # the suite's 1e-8 bound of max|Z| over alpha near 1 and 2, c+ = c- and
        # c+ != -c-, t in {1, 10, 100} and both orders, on every 10th point
        x = np.linspace(-20.0, 20.0, 801)
        for alpha in (1.05, 1.2, 1.5, 1.9, 1.99, 2.0):
            p = ModelParams(1.0, 1.0, alpha, 0.5)
            for c_alpha in ((1.0, -1.0), (1.0, 1.0), (0.7, -0.2)):
                ps = pr.constants(p, c_alpha=c_alpha)
                for t in (1.0, 10.0, 100.0):
                    for l, z in enumerate(pr.Z_eval(x, t, p, ps, derivative=1)):
                        ref = pr.Z_eval_quadrature(x[::10], t, p, ps, derivative=l)
                        assert np.abs(z[::10] - ref).max() <= 1e-8 * np.abs(z).max(), (
                            alpha, c_alpha, t, l)

    def test_matches_quadrature_on_the_production_window(self):
        # the suite's 1e-8 bound of max|Z| out to t = 1000 on the measurement
        # window of the production grid, every 40th point; the quadrature's
        # panels next to the kink are capped at 5 wide, about 1e-12 of error
        grid = make_grid(400.0, 16384)
        x = grid.x[measurement_mask(grid)]
        for c_alpha in ((1.0, -1.0), (1.0, 1.0)):
            ps = pr.constants(P, c_alpha=c_alpha)
            for t in (100.0, 354.0, 1000.0):
                for l, z in enumerate(pr.Z_eval(x, t, P, ps, derivative=1)):
                    ref = pr.Z_eval_quadrature(x[::40], t, P, ps, derivative=l)
                    assert np.abs(z[::40] - ref).max() <= 1e-8 * np.abs(z).max(), (
                        c_alpha, t, l)

    @pytest.mark.parametrize("x0, spacing", [(0.3, 0.3), (-0.7, 0.35), (0.0, 0.05)])
    def test_single_point_matches_a_lattice_through_it(self, x0, spacing):
        # a single point is spaced by its distance to 0 (0.05 at x = 0)
        lattice = spacing * np.arange(-20, 21)
        i = int(np.argmin(np.abs(lattice - x0)))
        assert lattice[i] == x0
        assert pr._z_lattice(np.array([x0]))[0] == pr._z_lattice(lattice)[0]
        for l in (0, 1):
            for t in (0.5, 5.0, 50.0):
                z = pr.Z_eval(lattice, t, P, self.ps, derivative=l)[l]
                one = pr.Z_eval(np.array([x0]), t, P, self.ps, derivative=l)[l]
                assert one.shape == (1,)
                assert abs(one[0] - z[i]) <= 1e-13 * np.abs(z).max()

    def test_rejects_points_off_a_lattice_through_zero(self):
        uneven = np.array([-1.0, 0.0, 0.5, 2.0])
        shifted = np.linspace(-10.03, 9.97, 101)  # dx = 0.2, 0 not on the lattice
        for x in (uneven, shifted):
            with pytest.raises(ConfigError):
                pr.Z_eval(x, 1.0, P, self.ps)


class TestR0:
    def test_r0_of_chi_star_is_zero(self):
        g = make_grid(100.0, 2048)
        u0 = Field(g, pr.chi_star(g.x, P))
        r0 = pr.r0_eval(u0, P)
        assert np.abs(r0.values).max() < 1e-10
        tails = pr.extract_c_alpha_detailed(r0, P)
        cp, cm = tails["c_plus"], tails["c_minus"]
        assert abs(cp) < 1e-10 and abs(cm) < 1e-10

    def test_odd_compact_perturbation_has_no_tails(self):
        g = make_grid(100.0, 2048)
        psi0 = 0.1 * g.x * np.exp(-g.x**2)
        u0 = Field(g, pr.chi_star(g.x, P) + psi0)
        tails = pr.extract_c_alpha_detailed(pr.r0_eval(u0, P), P)
        # the right window mean is round-off of the cumulative trapezoid: zeroed
        # on record, with its bound
        assert tails["c_plus"] == tails["c_minus"] == 0.0
        zeroed = tails["zeroed_below_roundoff"]
        assert 0.0 < abs(zeroed["c_plus"]) < zeroed["bound"] < 1e-10

    def test_prescribed_tail_roundtrip(self):
        # build psi0 with primitive eta*(x) rho(x); r0 then equals rho exactly
        from bbmburgers.harness import _power_ramp

        g = make_grid(100.0, 4096)
        rho, drho = _power_ramp(g.x, 1.0, 1.0, P.alpha)
        taper = tail_taper(g)
        dtaper = tail_taper_deriv(g)
        rho_t = rho * taper
        drho_t = drho * taper + rho * dtaper
        es = pr.eta_star(g.x, P)
        psi0 = 0.5 * P.beta * pr.chi_star(g.x, P) * es * rho_t + es * drho_t
        u0 = Field(g, pr.chi_star(g.x, P) + psi0)
        tails = pr.extract_c_alpha_detailed(pr.r0_eval(u0, P), P)
        cp, cm = tails["c_plus"], tails["c_minus"]
        assert abs(cp - 1.0) < 0.02
        assert abs(cm - 1.0) < 0.02
        assert "zeroed_below_roundoff" not in tails

    def test_mass_mismatch_rejected(self):
        g = make_grid(100.0, 2048)
        u0 = Field(g, pr.chi_star(g.x, P) + 0.05 * np.exp(-g.x**2))
        with pytest.raises(MassMismatchError):
            pr.r0_eval(u0, P)


class TestConstants:
    def test_kappa_arithmetic(self):
        ps = pr.constants(ModelParams(1.0, 1.0, 1.5, 0.5))
        assert ps.kappa == 0.125

    def test_zero_mass_degenerates(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.0)
        ps = pr.constants(p, c_alpha=(0.3, 0.7))
        assert ps.d == 0.0
        assert ps.mu1 == 0.5

    def test_d_matches_adaptive_quadrature(self):
        # d = int chi_star^3 / eta_star by panel Gauss-Legendre on [-16, 16]
        # against adaptive quadrature over the whole line
        for beta in (0.0, 0.5, 0.9, 1.0, 2.0):
            for mass in (-1.0, -0.3, 0.3, 1.0, 3.0):
                p = ModelParams(beta, 1.0, 1.5, mass)
                ref, err = spi.quad(lambda y: pr.chi_star(y, p) ** 3 / pr.eta_star(y, p),
                                    -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
                assert err <= 1e-12 * abs(ref)
                assert abs(pr.constants(p).d - ref) <= 1e-13 * abs(ref), (beta, mass)

    def test_gamma_function_reference_values(self):
        assert abs(math.gamma(0.5) - math.sqrt(math.pi)) < 1e-12
        assert math.gamma(1.0) == 1.0
        assert abs(math.gamma(1.5) - 0.5 * math.sqrt(math.pi)) < 1e-12

    def test_mu0_formula(self):
        ps = pr.constants(P, c_alpha=(1.0, -1.0))
        assert abs(ps.mu0 - 2.0 * math.gamma(0.75)) < 1e-12
        ps2 = pr.constants(P, c_alpha=(1.0, 1.0))
        chi0 = pr.chi_star(np.array([0.0]), P)[0]
        expected = 2.0 * chi0 / 0.5 * math.gamma(1.25)
        assert abs(ps2.mu0 - expected) < 1e-12

    def test_mu0_undefined_for_fast_decay(self):
        ps = pr.constants(ModelParams(1.0, 1.0, 3.0, 0.5))
        assert math.isnan(ps.mu0)


class TestFMIdentities:
    def test_deviations_small(self):
        fm = pr.fM_check(P)
        assert fm["max_dev_fM"] < 1e-8
        assert fm["max_dev_fM_tilde"] < 1e-8

    def test_zero_mass_trivial(self):
        fm = pr.fM_check(ModelParams(1.0, 1.0, 1.5, 0.0))
        assert fm["max_dev_fM"] == 0.0
        assert fm["max_dev_fM_tilde"] == 0.0

    def test_zero_gamma_trivial(self):
        fm = pr.fM_check(ModelParams(1.0, 0.0, 1.5, 0.5))
        assert fm["max_dev_fM_tilde"] == 0.0

    def test_requires_unit_beta(self):
        with pytest.raises(ConfigError):
            pr.fM_check(ModelParams(2.0, 1.0, 1.5, 0.5))
