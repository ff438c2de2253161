import math

import numpy as np
import pytest

from bbmburgers import ConfigError, Field, InstabilityError, ModelParams, make_grid
from bbmburgers import profiles as pr
from bbmburgers import etd
from bbmburgers import semigroup as sg
from bbmburgers import solver as sv
from bbmburgers.core import lp_norm, measurement_mask

P = ModelParams(beta=1.0, gamma=1.0, alpha=1.5, mass=0.3)


def gaussian_data(grid, amp=0.3):
    return Field(grid, amp * np.exp(-grid.x**2 / 4.0))


def nonlinear_term(u, p):
    """The integrator's nonlinear term -(beta/2) d_x (1 - d_xx)^{-1} (u^2) at u."""
    g = u.grid
    flow = sv._BbmbFlow(g, p, math.inf, math.inf)
    return np.fft.irfft(flow.nl(np.fft.rfft(u.values), 0.0), n=g.n_points)


class TestRhsNonlinear:
    def test_constant_input_gives_zero(self, grid60):
        u = Field(grid60, np.full(grid60.n_points, 0.4))
        assert np.abs(nonlinear_term(u, P)).max() < 1e-14

    def test_zero_mean_output(self, grid60, rng):
        u = Field(grid60, 0.3 * rng.standard_normal(grid60.n_points))
        assert abs(grid60.dx * nonlinear_term(u, P).sum()) < 1e-13

    def test_single_harmonic_closed_form(self):
        g = make_grid(60.0, 1024)
        k = 5 * np.pi / g.half_width
        u = Field(g, np.sin(k * g.x))
        out = nonlinear_term(u, P)
        expect = -(P.beta / 2.0) * k * np.sin(2 * k * g.x) / (1.0 + 4.0 * k**2)
        assert np.abs(out - expect).max() < 1e-10

    def test_beta_zero_gives_zero(self, grid60, rng):
        p0 = ModelParams(0.0, 1.0, 1.5, 0.3)
        u = Field(grid60, 0.3 * rng.standard_normal(grid60.n_points))
        assert np.all(nonlinear_term(u, p0) == 0.0)


class TestStepEtdrk4:
    def test_linear_step_matches_propagator(self, grid60):
        p0 = ModelParams(0.0, 1.0, 1.5, 0.3)
        u = gaussian_data(grid60)
        traj = sv.integrate(u, p0, [0.05], dt=0.05)
        assert traj.steps_accepted == 1
        ref = sg.T_apply(u, 0.05, p0)
        assert np.abs(traj.snapshots[-1].values - ref.values).max() < 1e-12

    def test_zero_state_stays_zero(self, grid60):
        u = Field(grid60, np.zeros(grid60.n_points))
        traj = sv.integrate(u, P, [0.05], dt=0.05)
        assert traj.steps_accepted == 1
        assert np.all(traj.snapshots[-1].values == 0.0)

    def test_oversized_dt_rejected(self, grid60):
        with pytest.raises(ConfigError, match="stability guard"):
            sv.integrate(gaussian_data(grid60), P, [1.0], dt=1e4)

    def test_refinement_ratio_fourth_order(self):
        g = make_grid(60.0, 1024)
        u0 = Field(g, pr.chi_star(g.x, P) + 0.2 * np.exp(-g.x**2 / 2.0))
        final = {}
        for dt in (0.08, 0.04, 0.02):
            final[dt] = sv.integrate(u0, P, [1.0], dt=dt).snapshots[-1].values
        e1 = np.abs(final[0.08] - final[0.04]).max()
        e2 = np.abs(final[0.04] - final[0.02]).max()
        assert 12.0 <= e1 / e2 <= 20.0


class TestIntegrate:
    def test_linear_limit_equals_semigroup(self):
        p0 = ModelParams(0.0, 0.5, 2.0, 0.3)
        g = make_grid(100.0, 2048)
        u0 = gaussian_data(g)
        traj = sv.integrate(u0, p0, list(np.geomspace(1.0, 100.0, 7)))
        for t, snap in zip(traj.times, traj.snapshots):
            ref = sg.T_apply(u0, t, p0)
            assert np.abs(snap.values - ref.values).max() < 1e-10

    def test_zero_data_stays_zero(self, grid60):
        u0 = Field(grid60, np.zeros(grid60.n_points))
        traj = sv.integrate(u0, P, [1.0, 2.0])
        assert all(np.all(s.values == 0.0) for s in traj.snapshots)

    def test_mass_log_constant(self):
        g = make_grid(100.0, 2048)
        traj = sv.integrate(gaussian_data(g), P, [0.5, 5.0, 50.0])
        drift = np.abs(traj.mass_log - traj.mass_log[0]).max()
        assert drift <= 1e-10 * max(1.0, abs(traj.mass_log[0]))

    def test_translation_equivariance(self):
        g = make_grid(60.0, 1024)
        u0 = gaussian_data(g, amp=0.25)
        shift = 37
        u0_shifted = Field(g, np.roll(u0.values, shift))
        a = sv.integrate(u0, P, [2.0]).snapshots[-1].values
        b = sv.integrate(u0_shifted, P, [2.0]).snapshots[-1].values
        assert np.abs(np.roll(a, shift) - b).max() < 1e-10

    def test_amplitude_cap_enforced(self, grid60):
        with pytest.raises(ConfigError):
            sv.integrate(gaussian_data(grid60, amp=0.8), P, [1.0])

    def test_validity_window_enforced(self, grid60):
        # (L/8)^2 = 56.25 for L = 60
        with pytest.raises(ConfigError):
            sv.integrate(gaussian_data(grid60), P, [100.0])

    def test_non_increasing_samples_rejected(self, grid60):
        with pytest.raises(ConfigError):
            sv.integrate(gaussian_data(grid60), P, [2.0, 1.0])

    def test_mass_drift_beyond_tolerance_raises(self, grid60):
        # the tolerance is 1e-8 max(1, |m0|)
        times = np.array([1.0, 2.0])
        ok = sv.Trajectory(P, grid60, times, [], np.array([1.0, 1.0 + 0.5e-8]), np.zeros(2))
        assert ok.validate() is ok
        drifted = sv.Trajectory(P, grid60, times, [], np.array([1.0, 1.0 + 2e-8]),
                                np.zeros(2))
        with pytest.raises(InstabilityError, match="mass drift"):
            drifted.validate()

    def test_snapshot_at_zero_included(self, grid60):
        u0 = gaussian_data(grid60)
        traj = sv.integrate(u0, P, [0.0, 1.0])
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.snapshots[0].values, u0.values)

    @pytest.mark.slow
    def test_decay_rates_of_small_solution(self):
        # sup-norm decays ~ t^{-1/2}, L2 norm ~ t^{-1/4} for mass-carrying data
        p = ModelParams(1.0, 0.5, 2.0, 0.3)
        g = make_grid(200.0, 8192)
        u0 = Field(g, pr.chi_star(g.x, p))
        times = np.geomspace(1.0, 400.0, 17)
        traj = sv.integrate(u0, p, times)
        sel = traj.times >= 10.0
        logt = np.log1p(traj.times[sel])
        sup = [lp_norm(s, np.inf) for s, m in zip(traj.snapshots, sel) if m]
        l2 = [lp_norm(s, 2) for s, m in zip(traj.snapshots, sel) if m]
        slope_inf = np.polyfit(logt, np.log(sup), 1)[0]
        slope_l2 = np.polyfit(logt, np.log(l2), 1)[0]
        assert -0.6 <= slope_inf <= -0.4
        assert abs(slope_l2 - (-0.25)) <= 0.1


def counting_chi_and_chi_xx(monkeypatch):
    """The times at which the solver evaluates chi_and_chi_xx, in call order."""
    calls = []
    real = sv.chi_and_chi_xx

    def counted(x, t, p):
        calls.append(t)
        return real(x, t, p)

    monkeypatch.setattr(sv, "chi_and_chi_xx", counted)
    return calls


class TestSolveAux:
    def test_zero_everything(self, grid60):
        z0 = Field(grid60, np.zeros(grid60.n_points))
        traj = sv.solve_aux(z0, ModelParams(1.0, 0.0, 1.5, 0.3), [1.0, 4.0])
        assert all(np.all(s.values == 0.0) for s in traj.snapshots)

    def test_heat_reduction_at_zero_mass(self):
        p0 = ModelParams(1.0, 0.0, 1.5, 0.0)
        g = make_grid(60.0, 1024)
        vals = 0.1 * np.exp(-g.x**2 / 4.0)
        z0 = Field(g, vals - vals.mean())
        traj = sv.solve_aux(z0, p0, [1.0, 4.0])
        for t, snap in zip(traj.times, traj.snapshots):
            ref = sg.G_apply(z0, t)
            assert np.abs(snap.values - ref.values).max() < 1e-10

    def test_matches_u_operator(self):
        # Lemma-level oracle at moderate resolution; acceptance runs it finer
        p = ModelParams(1.0, 0.0, 1.5, 0.5)
        g = make_grid(60.0, 4096)
        vals = 0.1 * (g.x / 2.0) * np.exp(-g.x**2 / 4.0)
        z0 = Field(g, vals - g.dx * vals.sum() / (2 * g.half_width))
        traj = sv.solve_aux(z0, p, [1.0, 4.0])
        for t, snap in zip(traj.times, traj.snapshots):
            ref = sg.U_apply(z0, t, 0.0, p)
            assert np.abs(snap.values - ref.values).max() < 1e-4

    def test_superposition_of_data_and_forcing(self, grid60):
        # the problem is linear: the forced flow from z0 is the unforced flow from
        # z0 plus the forced flow from zero data.  Each of the three runs leaves
        # at most its tolerance, (_RTOL + _ROUNDOFF) of its max, per segment,
        # which the flow does not amplify
        p = ModelParams(1.0, 1.0, 3.0, 0.5)
        z0 = Field(grid60, 0.05 * np.exp(-(grid60.x - 2.0) ** 2 / 4.0))
        times = [1.0, 2.0, 4.0, 8.0]
        runs = (sv.solve_aux(z0, p, times),
                sv.solve_aux(z0, ModelParams(1.0, 0.0, 3.0, 0.5), times),
                sv.solve_second_aux(p, grid60, times))
        for i, (a, b, c) in enumerate(zip(*(r.snapshots for r in runs))):
            peak = max(np.abs(s.values).max() for s in (a, b, c))
            gap = np.abs(a.values - b.values - c.values).max()
            assert gap <= 3 * (i + 1) * (sv._RTOL + sv._ROUNDOFF) * peak

    def test_forcing_evaluated_once_per_stage_time(self, grid60, monkeypatch):
        # a step's four stages share three times, the last one with the next step,
        # and every coarse stage time is a fine one: 2 n + 1 distinct times for n
        # fine steps, the ladder's lookup at the segment start included.
        # Count the wave's evaluations up to the end of each segment's doubling (a
        # rejected trial re-marches, so only segments without one are bounded)
        calls, ends = counting_chi_and_chi_xx(monkeypatch), []
        real = sv._Flow.doubling

        def doubling(self, *args):
            out = real(self, *args)
            ends.append(len(calls))
            return out

        monkeypatch.setattr(sv._Flow, "doubling", doubling)
        traj = sv.solve_second_aux(P, grid60, [1.0, 2.0, 4.0])
        per_segment = np.diff([0] + ends)
        assert len(per_segment) == len(traj.step_stats)
        clean = [(seg, n) for seg, n in zip(traj.step_stats, per_segment)
                 if seg.n_rejected == 0]
        assert len(clean) >= 2
        for seg, n_calls in clean:
            assert n_calls <= 2 * seg.n_steps + 1


class TestSolveSecondAux:
    def test_no_dispersion_gives_zero(self, grid60):
        p0 = ModelParams(1.0, 0.0, 1.5, 0.5)
        traj = sv.solve_second_aux(p0, grid60, [1.0, 4.0])
        assert all(np.all(s.values == 0.0) for s in traj.snapshots)

    def test_mass_stays_zero(self, grid60):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        traj = sv.solve_second_aux(p, grid60, [1.0, 4.0])
        assert np.abs(traj.mass_log).max() < 1e-12

    @pytest.mark.parametrize("gamma, mass", [(1.0, 0.5), (-0.7, 0.3)])
    def test_beta_zero_matches_exact_solution(self, gamma, mass):
        # at beta = 0, chi = M G(x, 1+t) and v = -gamma M t d_x^3 G(x, 1+t)
        # = gamma M t H_3(u) G(x, 1+t) / (4(1+t))^(3/2), u = x / sqrt(4(1+t)),
        # H_3 = 8u^3 - 12u.  Each of the 9 segments leaves at most its tolerance,
        # (_RTOL + _ROUNDOFF) max|v|, which the heat flow does not amplify; the
        # non-periodic forcing adds the periodic image e^{-L^2/4(1+t)}
        grid = make_grid(50.0, 1024)
        mask = measurement_mask(grid)
        times = np.geomspace(1.0, 36.0, 9)
        traj = sv.solve_second_aux(ModelParams(0.0, gamma, 3.0, mass), grid, times)
        x = grid.x[mask]
        errs, peaks = [], []
        for t, snap in zip(traj.times, traj.snapshots):
            u = x / math.sqrt(4.0 * (1.0 + t))
            g = np.exp(-u * u) / math.sqrt(4.0 * math.pi * (1.0 + t))
            v = gamma * mass * t * (8.0 * u**3 - 12.0 * u) * g / (4.0 * (1.0 + t)) ** 1.5
            errs.append(np.abs(snap.values[mask] - v).max())
            peaks.append(np.abs(v).max())
        image = math.exp(-grid.half_width**2 / (4.0 * (1.0 + times[-1])))
        tol = len(times) * (sv._RTOL + sv._ROUNDOFF) + image
        assert max(errs) <= tol * max(peaks)

    def test_large_mass_rejected(self, grid60):
        p = ModelParams(1.0, 1.0, 1.5, 1.5)
        with pytest.raises(ConfigError, match="mass"):
            sv.solve_second_aux(p, grid60, [1.0])
        # the forced flow refuses it from any data; the unforced flow needs no bound
        z0 = gaussian_data(grid60, 0.01)
        with pytest.raises(ConfigError, match="mass"):
            sv.solve_aux(z0, p, [1.0])
        sv.solve_aux(z0, ModelParams(1.0, 0.0, 1.5, 1.5), [1.0])

    def test_convection_guard_follows_decaying_wave(self, grid60):
        # the coarse step is capped per segment by max|chi| at its start, so late
        # steps exceed the guard of t = 0 while staying within their own guard
        p = ModelParams(1.0, 1.0, 3.0, 0.5)
        xi_max = grid60.xi_half[-1]

        def guard(t):
            peak = np.abs(pr.chi(grid60.x, t, p)).max()
            return sv._NONLINEAR_STABILITY / (p.beta * peak * xi_max)

        traj = sv.solve_second_aux(p, grid60, np.geomspace(1.0, 50.0, 8))
        last = traj.step_stats[-1]
        assert 2.0 * last.dt > guard(0.0)
        for seg in traj.step_stats:
            assert 2.0 * seg.dt <= guard(seg.t_start) * (1 + 1e-12)

    def test_halved_flow_keeps_the_guard(self, grid60, monkeypatch):
        # a coarse grid samples chi up to 5e-4 below its peak; the cap of every
        # segment, on whatever grid, is the full-grid one from sup|chi| itself
        p = ModelParams(1.0, 1.0, 3.0, 0.5)
        seen = []
        real = sv._Flow.doubling

        def doubling(self, uhat, t0, *args):
            seen.append((self.grid.n_points, t0, self.guard(t0)))
            return real(self, uhat, t0, *args)

        monkeypatch.setattr(sv._Flow, "doubling", doubling)
        sv.solve_second_aux(p, grid60, [1.0, 4.0, 16.0])
        assert any(n < grid60.n_points for n, _, _ in seen)
        peak = np.abs(pr.chi_star(np.linspace(-5.0, 5.0, 2_000_001), p)).max()
        xi_max = grid60.xi_half[-1]
        for _, t, guard in seen:
            full = sv._NONLINEAR_STABILITY * math.sqrt(1.0 + t) / (p.beta * peak * xi_max)
            assert guard == pytest.approx(full, rel=1e-10)

    @pytest.mark.slow
    def test_tracks_log_profile(self, second_aux_bundle):
        # (1+t) ||v - V||_inf stays bounded (no growth trend)
        traj = second_aux_bundle["traj"]
        vals = second_aux_bundle["full_gap"]
        sel = traj.times >= 10.0
        scaled = (1.0 + traj.times[sel]) * vals[sel]
        from bbmburgers.asymptotics import theil_sen_slope
        slope = theil_sen_slope(np.log1p(traj.times[sel]), np.log(scaled))
        assert slope <= 0.05


class TestGuards:
    def test_instability_reported(self):
        # the stability guard for this state is 0.28: dt = 5 is refused before
        # any step (TestStepControl covers a blow-up under a fixed dt)
        g = make_grid(60.0, 512)
        u0 = Field(g, 0.5 * np.sin(8 * np.pi * g.x / g.half_width))
        p_hot = ModelParams(40.0, 0.0, 1.5, 0.0)
        with pytest.raises(ConfigError):
            sv.integrate(u0, p_hot, [50.0], dt=5.0)


class TestStepControl:
    def test_adaptive_matches_fixed_step(self, grid60):
        u0 = gaussian_data(grid60)
        adaptive = sv.integrate(u0, P, [1.0, 2.0, 4.0])
        fixed = sv.integrate(u0, P, [1.0, 2.0, 4.0], dt=0.01)
        assert adaptive.steps_rejected == 0
        assert all(s.err_est is not None for s in adaptive.step_stats)
        assert all(s.err_est is None for s in fixed.step_stats)
        for a, b in zip(adaptive.snapshots, fixed.snapshots):
            assert np.abs(a.values - b.values).max() < 1e-8

    def test_tolerance_bounds_error(self, grid60, monkeypatch):
        # at _RTOL = 1e-11 the first trial step is too coarse and is rejected
        monkeypatch.setattr(sv, "_RTOL", 1e-11)
        u0 = gaussian_data(grid60)
        tight = sv.integrate(u0, P, [1.0, 2.0, 4.0])
        fixed = sv.integrate(u0, P, [1.0, 2.0, 4.0], dt=0.01)
        assert tight.steps_rejected >= 1
        for a, b in zip(tight.snapshots, fixed.snapshots):
            assert np.abs(a.values - b.values).max() < 1e-10

    def test_blowup_rejected_then_step_grows(self, grid60, flaky_march):
        failed_dts = flaky_march(1)
        traj = sv.integrate(gaussian_data(grid60), P, [1.0, 2.0])
        assert traj.steps_rejected == 1
        assert [s.n_rejected for s in traj.step_stats] == [1, 0]
        assert traj.step_stats[1].dt > failed_dts[0]

    def test_consecutive_blowups_raise(self, grid60, flaky_march):
        flaky_march(sv._MAX_REJECTIONS)
        with pytest.raises(InstabilityError):
            sv.integrate(gaussian_data(grid60), P, [1.0])

    def test_fixed_dt_blowup_raises(self, grid60, flaky_march):
        flaky_march(1)
        with pytest.raises(InstabilityError):
            sv.integrate(gaussian_data(grid60), P, [1.0, 2.0], dt=0.1)

    def test_real_sentinel_trips_fixed_and_doubling(self, grid60):
        # a sentinel threshold below the state's own spectrum: the sentinel itself,
        # not an injected failure, trips after the first step of every march
        u0 = gaussian_data(grid60)
        uhat = np.fft.rfft(u0.values)
        flow = sv._BbmbFlow(grid60, P, math.inf,
                            0.5 * np.abs(uhat).max() / grid60.n_points)
        with pytest.raises(InstabilityError, match="spectral magnitude"):
            flow.fixed(uhat, 0.0, 1.0, 0.1)

        real, trips = flow._sentinel, []

        def sentinel(hat, t):
            try:
                real(hat, t)
            except InstabilityError:
                trips.append(t)
                raise

        flow._sentinel = sentinel
        with pytest.raises(InstabilityError,
                           match=f"^{sv._MAX_REJECTIONS} consecutive rejected steps"):
            flow.doubling(uhat, 0.0, 1.0, 0.1, math.inf, float(np.abs(u0.values).max()))
        assert len(trips) == sv._MAX_REJECTIONS

    def test_steps_grow_as_solution_decays(self):
        g = make_grid(100.0, 2048)
        times = np.geomspace(1.0, 50.0, 12)
        traj = sv.integrate(gaussian_data(g), P, times)
        # the former fixed step: min(0.1, 0.5 dx / max(1, ||u0||_inf)) on every segment
        dt_fixed = min(0.1, 0.5 * g.dx)
        spans = np.diff(np.concatenate([[0.0], times]))
        fixed_steps = sum(math.ceil(span / dt_fixed - 1e-12) for span in spans)
        assert traj.steps_rejected == 0
        assert traj.steps_accepted <= fixed_steps / 5
        dts = [s.dt for s in traj.step_stats]
        assert dts[-1] > 10 * dts[0]


def seed_march(uhat, t0, n, co, nl):
    """n ETD-RK4 steps of co.dt (a one-row tableau) from the one-row uhat, each
    with its own first stage and the formula's out-of-place arithmetic."""
    t = t0
    for _ in range(n):
        Nu = nl(uhat, (t,))
        a = co.E2 * uhat + co.Q * Nu
        Na = nl(a, (t + 0.5 * co.dt,))
        b = co.E2 * uhat + co.Q * Na
        Nb = nl(b, (t + 0.5 * co.dt,))
        c = co.E2 * a + co.Q * (2.0 * Nb - Nu)
        Nc = nl(c, (t + co.dt,))
        uhat = co.E * uhat + co.f1 * Nu + co.f2 * (Na + Nb) + co.f3 * Nc
        t += co.dt
    return uhat


def seed_phi(z, j):
    """phi_j(z) by the closed form, with the series at |z| < etd._PHI_SMALL."""
    ez = np.exp(z)
    out = np.empty_like(z)
    small = np.abs(z) < etd._PHI_SMALL
    zs = z[small]
    acc = np.full_like(zs, 1.0 / math.factorial(etd._PHI_TERMS - 1 + j))
    for n in range(etd._PHI_TERMS - 2, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(n + j)
    out[small] = acc
    zb, ez = z[~small], ez[~small]
    out[~small] = [(ez - 1.0) / zb, (ez - 1.0 - zb) / zb**2,
                   (ez - 1.0 - zb - 0.5 * zb**2) / zb**3][j - 1]
    return out


def seed_tableau(lin, dt):
    """The one-step tableau at dt, each coefficient by its own formula."""
    z = dt * lin
    p1, p2, p3 = (seed_phi(z, j) for j in (1, 2, 3))
    return {"E": np.exp(z), "E2": np.exp(0.5 * z),
            "Q": dt * 0.5 * seed_phi(0.5 * z, 1),
            "f1": dt * (p1 - 3.0 * p2 + 4.0 * p3), "f2": 2.0 * (dt * (p2 - 2.0 * p3)),
            "f3": dt * (-p2 + 4.0 * p3)}


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


COEFFS = ("E", "E2", "Q", "f1", "f2", "f3")


class TestBatchedTransforms:
    @pytest.mark.parametrize("n", [2**k for k in range(4, 15)])
    def test_rows_of_a_two_row_transform_equal_one_row_transforms(self, n, rng):
        # a trial's fine and coarse states share each transform as the rows of
        # one array; their trajectories are those of separate marches only while
        # every row of a two-row transform has the bits of a one-row transform
        x = rng.standard_normal((2, n))
        xhat = np.fft.rfft(x)
        for row in range(2):
            assert same_bits(xhat[row], np.fft.rfft(x[row]))
            assert same_bits(np.fft.irfft(xhat, n=n)[row], np.fft.irfft(xhat[row], n=n))


class TestLockstepTrial:
    @pytest.mark.parametrize("kind", ["bbm", "heat"])
    def test_tableau_pair_equals_separate_tableaux(self, grid60, kind, monkeypatch):
        if kind == "bbm":
            lin, dt = sv._BbmbFlow(grid60, P, math.inf, math.inf).linear, 0.05
        else:
            lin, dt = -grid60.xi_half**2 + 0j, 1e-4
        for z in (dt * lin, 2.0 * dt * lin):
            small = np.abs(z) < etd._PHI_SMALL
            assert small.any() and not small.all()
        exps = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            exps.append(x.size)
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        pair = etd.tableaux(lin, dt, True)
        assert sum(exps) == 3 * lin.size  # exp(z/2), exp(z), exp(2z), once each
        monkeypatch.undo()
        assert np.shares_memory(pair.E[0], pair.E2[1])  # the coarse E2 is the fine E
        assert pair.dt == dt and isinstance(pair.dt, float)
        for row, step in enumerate((dt, 2.0 * dt)):
            apart, seed = etd.tableaux(lin, step, False), seed_tableau(lin, step)
            assert apart.dt == step
            for name in COEFFS:
                assert same_bits(getattr(pair, name)[row], getattr(apart, name)[0]), name
                assert same_bits(getattr(apart, name)[0], seed[name]), name

    def test_integrate_trial_equals_separate_marches(self, grid60):
        flow = sv._BbmbFlow(grid60, P, math.inf, math.inf)
        uhat = np.fft.rfft(gaussian_data(grid60).values)
        fine = etd.tableaux(flow.linear, 0.05, False)
        pair = etd.tableaux(flow.linear, 0.05, True)
        fine_hat, coarse_hat = flow.march(uhat, 0.3, 10, pair)
        assert same_bits(fine_hat, seed_march(uhat[None], 0.3, 10, fine, flow.nl)[0])
        coarse = etd.tableaux(flow.linear, 0.1, False)
        assert same_bits(coarse_hat, seed_march(uhat[None], 0.3, 5, coarse, flow.nl)[0])
        # the fixed-dt route marches the same fine chain
        assert same_bits(flow.march(uhat, 0.3, 10, fine)[0], fine_hat)

    def test_solve_aux_trial_equals_separate_marches(self, grid60):
        # the coarse stage times are the fine march's accumulated times, which
        # may differ from the coarse march's own by an ulp
        p = ModelParams(1.0, 1.0, 3.0, 0.5)
        flow = sv._AuxFlow(grid60, p, 0.0, math.inf)
        uhat = np.fft.rfft(0.01 * grid60.x * np.exp(-grid60.x**2 / 4.0))
        fine = etd.tableaux(flow.linear, 0.03, False)
        pair = etd.tableaux(flow.linear, 0.03, True)
        fine_hat, coarse_hat = flow.march(uhat, 1.1, 14, pair)
        assert same_bits(fine_hat, seed_march(uhat[None], 1.1, 14, fine, flow.nl)[0])
        ref = seed_march(uhat[None], 1.1, 7, etd.tableaux(flow.linear, 0.06, False),
                         flow.nl)[0]
        assert np.abs(coarse_hat - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 4])
    def test_trial_of_2n_fine_steps_makes_8n_stages(self, grid60, n):
        # the coarse chain rides in the fine chain's transforms: four stages per
        # fine step, the shared first stage included
        flow = sv._BbmbFlow(grid60, P, math.inf, math.inf)
        real_nl, calls = flow.nl, []

        def nl(uhat, t, *args):
            calls.append(len(t))
            return real_nl(uhat, t, *args)

        flow.nl = nl
        flow.march(np.fft.rfft(gaussian_data(grid60).values), 0.0, 2 * n,
                   etd.tableaux(flow.linear, 0.05, True))
        assert len(calls) == 8 * n
        # the transform rows: n two-row and n one-row steps, less one shared row
        assert sum(calls) == 12 * n - 1


def ladder_scenario(kind):
    from bbmburgers import harness as hn
    extra = {"gaussian": dict(alpha=2.0, amplitude=0.3),
             "power_tail": dict(alpha=3.0, amplitude=0.1),
             "prescribed_r0": dict(alpha=1.5, c_plus=1.0, c_minus=-1.0)}[kind]
    s = hn.Scenario(name=f"ladder-{kind}", beta=1.0, gamma=1.0, mass=0.3,
                    data_kind=kind, L=50.0, N=1024, **extra)
    return s, hn.make_initial_data(s)


class TestTransformLadder:
    TIMES = [1.0, 4.0, 16.0, 25.0, 30.0, 36.0]

    def test_halve_then_pad_is_exact_interpolation(self, rng):
        from conftest import band_limited
        g = make_grid(60.0, 256)
        f = band_limited(g, rng, n_modes=40)
        hat = np.fft.rfft(f.values)
        half = sv._halve_spectrum(hat)
        assert half.size == 65 and half[-1] == 0.0
        coarse = np.fft.irfft(half, n=128)
        assert np.abs(coarse - f.values[::2]).max() < 1e-13
        assert np.abs(sv._pad_values(half, 256) - f.values).max() < 1e-13

    @pytest.mark.parametrize("kind", ["gaussian", "power_tail", "prescribed_r0"])
    def test_laddered_run_matches_full_grid_routes(self, kind, monkeypatch):
        # at the default _RTOL the first prescribed_r0 segment, still on the full
        # grid, carries a step error of 1.7e-8; at 1e-9 the step error sits well
        # below TestStepControl's bound, so the comparison sees the ladder
        monkeypatch.setattr(sv, "_RTOL", 1e-9)
        s, u0 = ladder_scenario(kind)
        N = s.N
        laddered = sv.integrate(u0, s.params, self.TIMES)
        fixed = sv.integrate(u0, s.params, self.TIMES, dt=0.02)
        monkeypatch.setattr(sv, "_MIN_POINTS", 2 * N)
        held = sv.integrate(u0, s.params, self.TIMES)
        assert any(seg.n_points < N for seg in laddered.step_stats)
        assert all(seg.n_points == N for seg in fixed.step_stats)
        assert all(seg.n_points == N for seg in held.step_stats)
        for a, b, c in zip(laddered.snapshots, fixed.snapshots, held.snapshots):
            assert a.values.shape == (N,)
            assert np.abs(a.values - b.values).max() < 1e-8
            assert np.abs(a.values - c.values).max() < 1e-15

    def test_grid_only_narrows(self):
        _, u0 = ladder_scenario("power_tail")
        sizes = [seg.n_points for seg in sv.integrate(u0, P, self.TIMES).step_stats]
        assert sizes == sorted(sizes, reverse=True)

    def test_fixed_step_route_never_coarsens(self, grid60):
        u0 = gaussian_data(grid60)
        assert sv.integrate(u0, P, [1.0, 2.0]).step_stats[0].n_points < 2048
        fixed = sv.integrate(u0, P, [1.0, 2.0], dt=0.05)
        assert [seg.n_points for seg in fixed.step_stats] == [2048, 2048]

    def test_state_up_to_nyquist_not_coarsened(self, grid60):
        # BBM damps the Nyquist mode only like exp(-t): it stays far above the floor
        nyquist = 1e-7 * (-1.0) ** np.arange(grid60.n_points)
        u0 = Field(grid60, gaussian_data(grid60).values + nyquist)
        traj = sv.integrate(u0, P, [0.5, 1.0])
        assert [seg.n_points for seg in traj.step_stats] == [2048, 2048]

    def test_second_aux_coarsens_with_the_wave(self, grid60):
        p = ModelParams(1.0, 1.0, 3.0, 0.5)
        traj = sv.solve_second_aux(p, grid60, [1.0, 4.0, 16.0])
        sizes = [seg.n_points for seg in traj.step_stats]
        assert sizes[-1] < 2048 and sizes == sorted(sizes, reverse=True)
        assert all(snap.values.shape == (2048,) for snap in traj.snapshots)

    @pytest.mark.parametrize("flow", ["integrate", "solve_second_aux"])
    def test_too_coarse_grid_trips_nyquist_guard(self, grid60, flow, monkeypatch):
        # a floor that lets every state pass halves to the smallest grid, which
        # cannot hold the solution: the coarse grid's guard raises
        monkeypatch.setattr(sv, "_LADDER_FLOOR", 1.0)
        with pytest.raises(InstabilityError, match="Nyquist-band energy fraction"):
            if flow == "integrate":
                sv.integrate(gaussian_data(grid60), P, [1.0, 2.0])
            else:
                sv.solve_second_aux(ModelParams(1.0, 1.0, 3.0, 0.5), grid60, [1.0, 2.0])

    def test_segments_end_at_sample_times(self, grid60, monkeypatch):
        # the last fine step of a segment ends at the sample time itself, so the
        # next segment's first stage finds it in the cache
        calls = counting_chi_and_chi_xx(monkeypatch)
        samples = np.geomspace(1.0, 8.0, 6)
        sv.solve_second_aux(ModelParams(1.0, 1.0, 3.0, 0.5), grid60, samples)
        calls = np.asarray(calls)
        for t in samples:
            near = np.abs(calls - t) < 1e-9
            assert np.all(calls[near] == t)


class _BurgersFlow(sv._BbmbFlow):
    """u_t + beta u u_x = u_xx: the full flow without the BBM smoothing and the
    dispersion, whose exact self-similar solution is chi (Cole-Hopf)."""

    def __init__(self, grid, p, dt_guard, threshold):
        sv._Flow.__init__(self, grid, p, threshold)
        self.dt_guard = dt_guard
        self.linear = -(grid.xi_half**2) + 0.0j
        self.mult = np.where(grid.dealias, -(0.5 * p.beta) * 1j * grid.xi_half_odd, 0.0)

    def halved(self, grid, t):
        return _BurgersFlow(grid, self.p, self.dt_guard, self.threshold)


class TestBurgersLimit:
    @pytest.mark.parametrize("beta, mass", [(1.0, 0.3), (-2.0, 0.5)])
    def test_chi_start_tracks_the_exact_wave(self, beta, mass):
        # the production stepper, step control and ladder on the Burgers flow,
        # started from chi(., 0), against the exact chi(., t) on the whole line.
        # Two errors remain, relative to max|chi(., t)|: the periodic image, the
        # neighbouring copies of chi at distance 2L, at most
        # e^(|beta M|/2) e^(-L^2/4(1+t)) at the box edge (chi_star's denominator
        # moves its tails by up to e^(|beta M|/2) against the Gaussian); and the
        # time steps, at most _RTOL of max|u| per accepted segment, summed over
        # the segments so far without credit for the damping
        p = ModelParams(beta, 1.0, 1.5, mass)
        L = 100.0
        grid = make_grid(L, 2048)
        u0 = Field(grid, pr.chi(grid.x, 0.0, p))
        # the convection term beta u u_x at the largest wavenumber inside the
        # stability interval of ETD-RK4 on the imaginary axis, about 2.8
        guard = 2.8 / (abs(beta) * np.abs(u0.values).max() * grid.xi_half.max())
        times = np.geomspace(1.0, 156.0, 17)
        traj = sv._run_trajectory(lambda thr: _BurgersFlow(grid, p, guard, thr),
                                  u0, times, None)
        for i, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
            exact = pr.chi(grid.x, t, p)
            rel = np.abs(snap.values - exact).max() / np.abs(exact).max()
            image = math.exp(0.5 * abs(beta * mass) - L * L / (4.0 * (1.0 + t)))
            assert rel <= image + (i + 1) * sv._RTOL, (t, rel)
