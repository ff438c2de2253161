"""The equation's two discrete symmetries as properties of the production routes.

Sign flip: (u, beta, M, c+-) -> (-u, -beta, -M, -c+-) maps chi, V, Z and the
solution to their negatives.  Reflection: x -> -x with (beta, gamma) ->
(-beta, -gamma) maps the solution to its mirror image; because eta_star is
normalized at -infinity, the constants change under it as
c+- -> -e^{beta M / 2} c-+, d -> e^{beta M / 2} d, kappa -> -kappa and
mu1 -> -e^{beta M / 2} mu1, and then chi, V and Z are mirrored too (Z_x
changes sign).  On the periodic grid the mirror image is the index map
j -> (N - j) mod N.  Together these check the side assignment of c+-, the
normalization of eta_star, the symmetry of the Z lattice window and the
grid's mirror map.

Tolerances sit two to three orders of magnitude above the measured round-off
(reflection: chi 6e-17, V 1.3e-15 relative, Z 3.4e-15 of max|Z|, the solution
6e-17 at |u| <= 0.15).  The flip is exact for chi, Z and the solution; V
carries d, whose vectorized cube is not odd to the last bit, so its flip is
exact only to round-off.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmburgers import Field, ModelParams, harness, make_grid
from bbmburgers import profiles as pr
from bbmburgers import solver as sv

X = 0.25 * np.arange(-80, 81)  # symmetric lattice through 0: X[::-1] == -X


def _coef(bound):
    return st.floats(-bound, bound, allow_subnormal=False)


PROFILE_CASES = dict(beta=_coef(2.0), gamma=_coef(2.0), mass=_coef(1.0),
                     c_plus=_coef(2.0), c_minus=_coef(2.0),
                     alpha=st.floats(1.05, 2.0), t=st.floats(0.5, 50.0))


class TestSignFlip:
    @settings(max_examples=30, deadline=None)
    @given(**PROFILE_CASES)
    def test_profiles(self, beta, gamma, mass, c_plus, c_minus, alpha, t):
        p = ModelParams(beta, gamma, alpha, mass)
        q = ModelParams(-beta, gamma, alpha, -mass)
        ps = pr.constants(p, c_alpha=(c_plus, c_minus))
        qs = pr.constants(q, c_alpha=(-c_plus, -c_minus))
        assert np.array_equal(pr.chi(X, t, q), -pr.chi(X, t, p))
        z = pr.Z_eval(X, t, p, ps, derivative=1)
        assert np.array_equal(pr.Z_eval(X, t, q, qs, derivative=1), -z)
        v = pr.V(X, t, p, ps)
        assert np.abs(pr.V(X, t, q, qs) + v).max() <= 1e-13 * np.abs(v).max()

    @settings(max_examples=15, deadline=None)
    @given(beta=_coef(2.0), gamma=_coef(2.0), amp=_coef(0.15),
           shift=st.floats(-5.0, 5.0), t=st.floats(0.5, 5.0))
    def test_integrate(self, beta, gamma, amp, shift, t):
        grid = make_grid(30.0, 256)
        u0 = amp * np.exp(-((grid.x - shift) ** 2) / 4.0)
        a = sv.integrate(Field(grid, u0), ModelParams(beta, gamma, 1.5, 0.3), [t / 3, t])
        b = sv.integrate(Field(grid, -u0), ModelParams(-beta, gamma, 1.5, -0.3),
                         [t / 3, t])
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sb.values, -sa.values)


class TestReflection:
    @settings(max_examples=30, deadline=None)
    @given(**PROFILE_CASES)
    def test_profiles_and_constants(self, beta, gamma, mass, c_plus, c_minus, alpha, t):
        p = ModelParams(beta, gamma, alpha, mass)
        q = ModelParams(-beta, -gamma, alpha, mass)
        e = math.exp(0.5 * beta * mass)
        ps = pr.constants(p, c_alpha=(c_plus, c_minus))
        qs = pr.constants(q, c_alpha=(-e * c_minus, -e * c_plus))

        assert abs(qs.d - e * ps.d) <= 1e-12 * e * abs(ps.d)
        assert qs.kappa == -ps.kappa
        scale = e * (0.5 * (abs(c_plus) + abs(c_minus)) + abs(ps.kappa * ps.d))
        assert abs(qs.mu1 + e * ps.mu1) <= 1e-12 * scale

        assert np.abs(pr.chi(X, t, q)[::-1] - pr.chi(X, t, p)).max() <= 1e-14
        v = pr.V(X, t, p, ps)
        assert np.abs(pr.V(X, t, q, qs)[::-1] - v).max() <= 1e-12 * np.abs(v).max()
        zq = pr.Z_eval(X, t, q, qs, derivative=1)
        for l, z in enumerate(pr.Z_eval(X, t, p, ps, derivative=1)):
            mirrored = (-1) ** l * zq[l][::-1]
            assert np.abs(mirrored - z).max() <= 1e-12 * np.abs(z).max()

    @settings(max_examples=15, deadline=None)
    @given(beta=_coef(2.0), gamma=_coef(2.0), amp=_coef(0.15),
           shift=st.floats(-5.0, 5.0), t=st.floats(0.5, 5.0))
    def test_integrate(self, beta, gamma, amp, shift, t):
        grid = make_grid(30.0, 256)
        mirror = -np.arange(grid.n_points) % grid.n_points  # x_j -> -x_j
        assert np.array_equal(grid.x[mirror][1:], -grid.x[1:])  # x_0 = -L is L
        u0 = amp * np.exp(-((grid.x - shift) ** 2) / 4.0)
        a = sv.integrate(Field(grid, u0), ModelParams(beta, gamma, 1.5, 0.3), [t / 3, t])
        b = sv.integrate(Field(grid, u0[mirror]), ModelParams(-beta, -gamma, 1.5, 0.3),
                         [t / 3, t])
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.abs(sb.values[mirror] - sa.values).max() <= 1e-14

    @pytest.mark.parametrize("beta, gamma, alpha, mass, c_plus, c_minus",
                             [(1.0, 1.0, 1.5, 0.3, 1.0, -1.0),
                              (-0.8, 0.5, 1.8, 0.5, 0.7, 0.2),
                              (1.5, -1.0, 1.2, -0.4, -0.5, 1.0)])
    def test_extracted_tail_limits(self, beta, gamma, alpha, mass, c_plus, c_minus):
        # the trapezoid primitive of the mirrored deviation is m - P(-x), with
        # m = dx sum(u0 - chi_star) the discrete mass residual, and eta_star
        # mirrors to e^{-beta M/2} eta_star(-x): so each limit of the mirrored
        # data is -e^{beta M/2} c-+ plus e^{beta M/2} m times a window mean of
        # (1 + |x|)^(alpha-1) / eta_star, up to the round-off of the sums
        s = harness.Scenario(name="mirror", beta=beta, gamma=gamma, alpha=alpha,
                             mass=mass, data_kind="prescribed_r0", c_plus=c_plus,
                             c_minus=c_minus, L=100.0, N=2048, t_samples=[1.0])
        u0 = harness.make_initial_data(s)
        g, p = u0.grid, s.params
        q = ModelParams(-beta, -gamma, alpha, mass)
        mirror = -np.arange(g.n_points) % g.n_points
        a = pr.extract_c_alpha_detailed(pr.r0_eval(u0, p), p)
        b = pr.extract_c_alpha_detailed(pr.r0_eval(Field(g, u0.values[mirror]), q), q)

        e = math.exp(0.5 * beta * mass)
        dev = u0.values - pr.chi_star(g.x, p)
        weight = (1.0 + np.abs(g.x)) ** (alpha - 1.0) / pr.eta_star(g.x, p)
        lo, hi = a["window"]
        w_max = weight[(np.abs(g.x) >= lo) & (np.abs(g.x) <= hi)].max()
        roundoff = g.n_points * np.finfo(np.float64).eps * g.dx * np.abs(dev).sum()
        tol = e * (abs(g.dx * dev.sum()) + 2.0 * roundoff) * w_max
        assert abs(b["c_plus"] + e * a["c_minus"]) <= tol
        assert abs(b["c_minus"] + e * a["c_plus"]) <= tol
        # the profile properties cannot see the sides; swapped, they miss
        assert abs(b["c_plus"] + e * a["c_plus"]) > 1e3 * tol
