import math

import numpy as np
import pytest

from bbmburgers import (
    ConfigError,
    Field,
    HypothesisViolationError,
    ModelParams,
    make_grid,
)
from bbmburgers import asymptotics as asy
from bbmburgers import profiles as pr
from bbmburgers import solver as sv


def synthetic_trajectory(grid, p, times, field_fn):
    snaps = [Field(grid, field_fn(t)) for t in times]
    masses = np.array([f.mass() for f in snaps])
    return sv.Trajectory(p, grid, np.asarray(times, dtype=float), snaps, masses,
                         np.zeros(len(times)))


P = ModelParams(beta=1.0, gamma=1.0, alpha=1.5, mass=0.3)


class TestErrorSeries:
    def test_exact_wave_gives_zero_series(self):
        g = make_grid(100.0, 1024)
        times = [1.0, 5.0, 25.0]
        traj = synthetic_trajectory(g, P, times, lambda t: pr.chi(g.x, t, P))
        ps = pr.constants(P)
        es = asy.error_series_multi(traj, ps, ["chi"])[("chi", 0, "linf")]
        assert np.all(es.values < 1e-12)

    def test_mass_mismatch_leaves_floor(self):
        g = make_grid(100.0, 1024)
        times = np.geomspace(1.0, 100.0, 9)
        # solution snapshots carry mass 0.3 but chi is evaluated with mass 0.45
        traj_params = ModelParams(1.0, 1.0, 1.5, 0.45)
        traj = synthetic_trajectory(g, traj_params, times,
                                    lambda t: pr.chi(g.x, t, P))
        ps = pr.constants(traj_params)
        es = asy.error_series_multi(traj, ps, ["chi"])[("chi", 0, "linf")]
        wave_scale = np.array([np.abs(pr.chi(g.x, t, traj_params)).max()
                               for t in times])
        # the relative error does not decay: wrong-mass wave is a detector
        assert (es.values / wave_scale).min() > 0.1

    def test_triangle_inequality_with_Z(self):
        g = make_grid(100.0, 1024)
        times = [2.0, 8.0, 32.0]
        ps = pr.constants(P, c_alpha=(1.0, -1.0))
        rng = np.random.default_rng(3)
        bump = 0.01 * np.exp(-g.x**2 / 9.0) * rng.standard_normal()
        traj = synthetic_trajectory(g, P, times,
                                    lambda t: pr.chi(g.x, t, P) + bump)
        series = asy.error_series_multi(traj, ps, ["chi", "chi+Z"])
        chi_series = series[("chi", 0, "linf")]
        z_series = series[("chi+Z", 0, "linf")]
        mask = np.abs(g.x) <= 0.8 * g.half_width
        for i, t in enumerate(times):
            z_norm = np.abs(pr.Z_eval(g.x[mask], t, P, ps)[0]).max()
            assert z_series.values[i] <= chi_series.values[i] + z_norm + 1e-12

    def test_unknown_combo_rejected(self):
        g = make_grid(100.0, 1024)
        traj = synthetic_trajectory(g, P, [1.0, 2.0], lambda t: pr.chi(g.x, t, P))
        # only the RATE_CLAIMS combinations exist, not every join of chi, Z, V
        for combo in ("chi+Q", "V", "Z+V", "V+chi"):
            with pytest.raises(ConfigError):
                asy.error_series_multi(traj, pr.constants(P), [combo])

    def test_z_high_derivative_rejected(self):
        g = make_grid(100.0, 1024)
        traj = synthetic_trajectory(g, P, [1.0, 2.0], lambda t: pr.chi(g.x, t, P))
        ps = pr.constants(P, c_alpha=(1.0, 0.0))
        with pytest.raises(ConfigError):
            asy.error_series_multi(traj, ps, ["chi+Z"], orders=(2,))


class TestFitRate:
    def _series(self, values, times):
        return asy.ErrorSeries(times, values, combo="chi", norm="linf", order=0)

    def test_pure_power_law_recovered_exactly(self):
        t = np.geomspace(1.0, 1000.0, 25)
        es = self._series(3.0 * (1.0 + t) ** -0.75, t)
        fit = asy.fit_rate(es, (1.0, 1000.0))
        assert abs(fit.exponent + 0.75) < 1e-12
        assert abs(fit.amplitude - 3.0) < 1e-10
        assert fit.residual_rms < 1e-13
        assert abs(fit.theil_sen + 0.75) < 1e-12

    def test_log_corrected_power_law(self):
        t = np.geomspace(2.0, 2000.0, 25)
        es = self._series(2.0 * np.log1p(t) / (1.0 + t), t)
        fit = asy.fit_rate(es, (2.0, 2000.0), log_power=1)
        assert abs(fit.exponent + 1.0) < 1e-12
        assert abs(fit.amplitude - 2.0) < 1e-10

    def test_noisy_power_law_within_tolerance(self):
        rng = np.random.default_rng(11)
        t = np.geomspace(1.0, 1000.0, 33)
        noise = 1.0 + 0.05 * (2.0 * rng.random(t.size) - 1.0)
        es = self._series(1.7 * (1.0 + t) ** -0.6 * noise, t)
        fit = asy.fit_rate(es, (1.0, 1000.0))
        assert abs(fit.exponent + 0.6) < 0.03

    def test_window_too_small_rejected(self):
        t = np.geomspace(1.0, 100.0, 20)
        es = self._series((1.0 + t) ** -1.0, t)
        with pytest.raises(ConfigError):
            asy.fit_rate(es, (90.0, 100.0))

    def test_nonpositive_values_rejected(self):
        t = np.geomspace(1.0, 100.0, 20)
        vals = (1.0 + t) ** -1.0
        vals[5] = 0.0
        es = self._series(vals, t)
        with pytest.raises(ConfigError):
            asy.fit_rate(es, (1.0, 100.0))

    def test_window_stability_on_clean_data(self):
        t = np.geomspace(1.0, 1000.0, 33)
        es = self._series(5.0 * (1.0 + t) ** -0.5, t)
        assert asy.window_stability(es, asy.fit_rate(es, (1.0, 1000.0))) < 1e-10


class TestTheilSen:
    def test_exact_on_affine_data(self):
        x = np.linspace(0.0, 10.0, 20)
        assert abs(asy.theil_sen_slope(x, 3.0 * x - 2.0) - 3.0) < 1e-13

    def test_robust_to_single_outlier(self):
        x = np.linspace(0.0, 10.0, 21)
        y = 2.0 * x.copy()
        y[7] += 50.0
        assert abs(asy.theil_sen_slope(x, y) - 2.0) < 0.1


class TestRateClaims:
    def test_derivative_order_shifts_exponent(self):
        assert asy.rate_claim(1.5, "chi", 1) == asy.RateClaim(-1.25, 0, "band")
        assert asy.rate_claim(3.0, "chi+V", 1) == asy.RateClaim(-1.5, 0, "bounded")
        assert asy.rate_claim(2.0, "chi+Z+V", 0) == asy.RateClaim(-1.0, 1, "improves")

    def test_l2_norm_adds_a_quarter(self):
        # the L2 norm of (1+t)^e f(x/sqrt(1+t)) carries (1+t)^(e+1/4)
        assert asy.rate_claim(1.5, "chi", 0, "l2") == asy.RateClaim(-0.5, 0, "band")
        assert asy.rate_claim(2.0, "chi+Z+V", 1, "l2") == asy.RateClaim(-1.25, 1, "improves")
        assert asy.rate_claim(3.0, "chi", 0, "linf") == asy.rate_claim(3.0, "chi")
        with pytest.raises(ConfigError):
            asy.rate_claim(3.0, "chi", 0, "l1")

    def test_unclaimed_combo_rejected(self):
        with pytest.raises(ConfigError):
            asy.rate_claim(1.5, "chi+V")
        with pytest.raises(ConfigError):
            asy.rate_claim(3.0, "chi+Z")

    def test_kinds_own_their_thresholds(self):
        band = asy.RateClaim(-1.0, 1, "band")
        assert band.judge(10.0, -0.1) == {"ratio_ok": True, "slope_ok": True}
        assert band.judge(10.5, 0.0) == {"ratio_ok": False, "slope_ok": True}
        assert asy.RateClaim(-1.0, 1, "improves").judge(1.0, -0.04) == {"slope_ok": False}
        assert asy.RateClaim(-1.0, 0, "bounded").judge(1.0, 0.05) == {
            "slope_ok": True, "bounded": True}
        with pytest.raises(ConfigError, match="unknown claim kind"):
            asy.RateClaim(-1.0, 1, "diagnostic").judge(1e3, 1.0)


class TestOptimalRateReport:
    @staticmethod
    def _report(traj, ps, **kwargs):
        # the report judges the linf series of every claimed combination
        combos = asy.claimed_combos(traj.params.alpha)
        series = asy.error_series_multi(traj, ps, combos, orders=(kwargs.get("l", 0),))
        return asy.optimal_rate_report(series, traj.params, ps, **kwargs)

    def _wave_plus_z_traj(self, ps, times, g, p):
        def field(t):
            vals = pr.chi(g.x, t, p)
            if t > 0:
                vals = vals + pr.Z_eval(g.x, t, p, ps)[0]
            return vals
        return synthetic_trajectory(g, p, times, field)

    def test_band_passes_for_wave_plus_z(self):
        g = make_grid(100.0, 1024)
        ps = pr.constants(P, c_alpha=(1.0, -1.0))
        times = np.geomspace(1.0, 100.0, 15)
        traj = self._wave_plus_z_traj(ps, times, g, P)
        report = self._report(traj, ps, window=(1.0, 100.0))
        assert report["branch"] == "alpha_lt_2"
        assert report["band"]["status"] == "ok"
        assert report["band"]["ratio_ok"]
        assert report["refinement"]["status"] == "degenerate"

    def test_zero_dispersion_marks_log_test_not_applicable(self):
        p = ModelParams(1.0, 0.0, 3.0, 0.3)
        g = make_grid(100.0, 1024)
        ps = pr.constants(p)
        times = np.geomspace(1.0, 100.0, 15)
        traj = synthetic_trajectory(
            g, p, times,
            lambda t: pr.chi(g.x, t, p) + 0.05 * np.exp(-g.x**2 / 4.0) / (1.0 + t))
        report = self._report(traj, ps, window=(1.0, 100.0))
        assert report["band"]["status"] == "not_applicable"
        assert report["refinement"]["status"] == "ok"

    def test_zero_mass_raises(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.0)
        g = make_grid(100.0, 1024)
        ps = pr.constants(p, c_alpha=(1.0, -1.0))
        traj = synthetic_trajectory(g, p, [1.0, 2.0], lambda t: np.zeros(g.n_points))
        with pytest.raises(HypothesisViolationError):
            self._report(traj, ps)

    def test_window_too_short_to_fit_is_not_judged(self):
        # one minimum for both: a window fit_rate refuses is not judged either
        g = make_grid(100.0, 1024)
        ps = pr.constants(P, c_alpha=(1.0, -1.0))
        times = np.geomspace(1.0, 100.0, 15)
        traj = synthetic_trajectory(
            g, P, times,
            lambda t: pr.chi(g.x, t, P) + 0.05 * np.exp(-g.x**2 / 4.0) / (1.0 + t))
        short = (1.0, float(times[asy.MIN_FIT_SAMPLES - 2]))
        with pytest.raises(ConfigError, match=f"need >= {asy.MIN_FIT_SAMPLES}"):
            asy.fit_rate(asy.error_series_multi(traj, ps, ["chi"])[("chi", 0, "linf")],
                         short)
        report = self._report(traj, ps, window=short)
        for key in ("band", "refinement"):
            assert report[key]["status"] == "insufficient_samples"
            assert report[key]["n_samples"] == asy.MIN_FIT_SAMPLES - 1
        assert report["passed"] is False
        enough = (1.0, float(times[asy.MIN_FIT_SAMPLES - 1]))
        assert self._report(traj, ps, window=enough)["band"]["status"] == "ok"

    def test_exact_wave_flags_degenerate(self):
        g = make_grid(100.0, 1024)
        ps = pr.constants(P, c_alpha=(1.0, -1.0))
        times = np.geomspace(1.0, 100.0, 15)
        traj = synthetic_trajectory(g, P, times, lambda t: pr.chi(g.x, t, P))
        report = self._report(traj, ps, window=(1.0, 100.0))
        assert report["band"]["status"] == "degenerate"
        assert report["passed"] is False

    def test_rate_ordering_z_never_worse(self):
        # subtracting Z must not slow the fitted decay for slow tails
        g = make_grid(100.0, 1024)
        ps = pr.constants(P, c_alpha=(1.0, -1.0))
        times = np.geomspace(1.0, 100.0, 15)

        def field(t):
            vals = pr.chi(g.x, t, P) + 0.01 * np.exp(-g.x**2 / 4.0) / (1.0 + t)
            if t > 0:
                vals = vals + pr.Z_eval(g.x, t, P, ps)[0]
            return vals

        traj = synthetic_trajectory(g, P, times, field)
        series = asy.error_series_multi(traj, ps, ["chi", "chi+Z"])
        es_chi = series[("chi", 0, "linf")]
        es_z = series[("chi+Z", 0, "linf")]
        f1 = asy.fit_rate(es_chi, (1.0, 100.0))
        f2 = asy.fit_rate(es_z, (1.0, 100.0))
        assert f2.exponent <= f1.exponent + 1e-9
