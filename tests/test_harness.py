import json
import math
import os

import numpy as np
import pytest
from scipy import integrate as spi

from bbmburgers import ConfigError, NumericsError, make_grid
from bbmburgers import asymptotics as asy
from bbmburgers import checks, cli
from bbmburgers import harness as hn
from bbmburgers import profiles as pr
from bbmburgers import solver as sv


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        beta=1.0,
        gamma=1.0,
        alpha=2.5,
        mass=0.3,
        data_kind="gaussian",
        amplitude=0.3,
        L=80.0,
        N=1024,
        t_samples=list(np.geomspace(1.0, 50.0, 12)),
        norms=["linf"],
        derivative_orders=[0],
    )
    base.update(overrides)
    return hn.Scenario(**base)


class TestScenario:
    def test_json_roundtrip(self):
        s = tiny_scenario()
        doc = json.loads(s.canonical_json())
        s2 = hn.scenario_from_json(doc)
        assert s2.canonical_json() == s.canonical_json()

    def test_unknown_key_rejected(self):
        doc = json.loads(tiny_scenario().canonical_json())
        doc["typo_key"] = 1
        with pytest.raises(ConfigError):
            hn.scenario_from_json(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            hn.scenario_from_json({"name": "x"})

    def test_hash_is_stable_and_content_sensitive(self):
        a = hn.scenario_hash(tiny_scenario())
        b = hn.scenario_hash(tiny_scenario())
        c = hn.scenario_hash(tiny_scenario(mass=0.31))
        assert a == b and a != c and len(a) == 12

    def test_bad_data_kind_rejected(self):
        with pytest.raises(ConfigError):
            tiny_scenario(data_kind="nonsense")

    @pytest.mark.parametrize("key, value", [
        ("N", 1024.0), ("N", "1024"), ("N", True),
        ("derivative_orders", []), ("derivative_orders", [0, 0]),
        ("derivative_orders", [0.5]), ("derivative_orders", [-1]),
        ("derivative_orders", [1.0]), ("derivative_orders", [True]),
        ("derivative_orders", 0),
    ])
    def test_malformed_integers_rejected(self, tmp_path, capsys, key, value):
        doc = json.loads(tiny_scenario().canonical_json())
        doc[key] = value
        with pytest.raises(ConfigError, match=key):
            hn.scenario_from_json(doc)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key}")

    def test_valid_scenarios_keep_their_hash(self):
        # pinned: a valid document hashes as it did before its integers were checked
        assert hn.scenario_hash(tiny_scenario()) == "1004430e961b"
        s = tiny_scenario(derivative_orders=[1, 0], N=2048)
        assert hn.scenario_hash(hn.scenario_from_json(s.canonical_json())) == "41054f1e1a82"

    def test_default_samples_span_validity_window(self):
        ts = hn.default_t_samples(make_grid(400.0, 16384))
        assert ts.size == 32
        assert ts[0] == 1.0
        assert abs(ts[-1] - 2500.0) < 1e-9
        # a scenario without t_samples takes them, up to its own horizon
        s = tiny_scenario(t_samples=None)
        assert np.array_equal(s.samples(), hn.default_t_samples(s.grid))
        assert s.samples()[-1] == sv.validity_horizon(s.grid) == (80.0 / 8.0) ** 2


class TestMakeInitialData:
    def test_gaussian_mass_matched(self):
        s = tiny_scenario()
        u0 = hn.make_initial_data(s)
        assert abs(u0.mass() - s.mass) < 1e-12

    def test_gaussian_zero_amplitude(self):
        with pytest.raises(ConfigError):
            hn.make_initial_data(tiny_scenario(amplitude=0.0))
        u0 = hn.make_initial_data(tiny_scenario(amplitude=0.0, mass=0.0))
        assert np.all(u0.values == 0.0)

    def test_power_tail_bound_constructive(self):
        s = tiny_scenario(data_kind="power_tail", amplitude=0.1, alpha=2.0,
                          L=200.0, N=2048)
        u0 = hn.make_initial_data(s)
        rep = hn.data_report(s, u0)
        x = s.grid.x
        untapered = np.abs(x) <= 0.8 * s.L
        bound = rep["tail_bound_constant"] * (1.0 + np.abs(x[untapered])) ** -s.alpha
        assert np.all(np.abs(u0.values[untapered]) <= bound * (1 + 1e-12))
        assert abs(rep["mass"] - s.mass) < 1e-8

    def test_prescribed_r0_tail_recovery(self):
        s = tiny_scenario(data_kind="prescribed_r0", alpha=1.5,
                          c_plus=1.0, c_minus=1.0, L=200.0, N=4096)
        u0 = hn.make_initial_data(s)
        p = s.params
        tails = pr.extract_c_alpha_detailed(pr.r0_eval(u0, p), p)
        cp, cm = tails["c_plus"], tails["c_minus"]
        assert abs(cp - 1.0) < 0.02
        assert abs(cm - 1.0) < 0.02

    @pytest.mark.parametrize("beta, mass, alpha, c_plus, c_minus",
                             [(1.0, 0.3, 1.5, 1.0, -1.0), (-2.0, -1.0, 1.1, 0.0, -2.0)])
    def test_prescribed_r0_mass_error_at_production_spacing(self, beta, mass, alpha,
                                                            c_plus, c_minus):
        # u0 = chi_star + f', f = eta_star rho, and f vanishes at the box edges,
        # so by Poisson summation dx sum(f') = sum over k != 0 of the transform
        # of f' at 2 pi k / dx (chi_star, a Gaussian, aliases far below eps).
        # Only the two smoothstep ramps of rho, of width w = _RAMP_WIDTH, reach
        # that far: at each of their four ends f ~ A e^(-w/|x - x_p|), with
        # A <= e max|c+-| max(1, e^(beta M/2)) (the smoothstep's e^(-1/s)/e^(-1)
        # times max eta_star).  The saddle point of that transform at
        # xi = 2 pi / dx gives |xi f^(xi)| ~ A sqrt(pi) w^(1/4) xi^(1/4)
        # e^(-sqrt(2 w xi)) per end, counted at k = +-1; pairwise summation adds
        # far less than 64 eps dx sum|u0| of round-off
        s = tiny_scenario(data_kind="prescribed_r0", beta=beta, mass=mass, alpha=alpha,
                          c_plus=c_plus, c_minus=c_minus, L=400.0, N=16384)
        u0 = hn.make_initial_data(s)
        dx, w = s.grid.dx, hn._RAMP_WIDTH
        xi = 2.0 * math.pi / dx
        amp = math.e * max(abs(c_plus), abs(c_minus)) * max(1.0, math.exp(0.5 * beta * mass))
        aliasing = 8.0 * amp * math.sqrt(math.pi) * (w * xi) ** 0.25 * math.exp(
            -math.sqrt(2.0 * w * xi))
        roundoff = 64.0 * np.finfo(np.float64).eps * dx * np.abs(u0.values).sum()
        assert hn.data_report(s, u0)["mass_error"] <= aliasing + roundoff

    def test_custom_table_roundtrip(self, tmp_path):
        s = tiny_scenario()
        u0 = hn.make_initial_data(s)
        path = tmp_path / "table.csv"
        with open(path, "w") as fh:
            fh.write("x,u\n")
            for xi, ui in zip(s.grid.x, u0.values):
                fh.write(f"{float(xi)!r},{float(ui)!r}\n")
        s2 = tiny_scenario(data_kind="custom_table", table_path=str(path))
        u1 = hn.make_initial_data(s2)
        assert np.abs(u1.values - u0.values).max() < 1e-12

    def test_custom_table_grid_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("x,u\n")
            for i in range(64):
                fh.write(f"{float(i)},0.0\n")
        s = tiny_scenario(data_kind="custom_table", table_path=str(path))
        with pytest.raises(ConfigError):
            hn.make_initial_data(s)

    def test_tail_needs_room(self):
        for kind in ("power_tail", "prescribed_r0"):
            s = tiny_scenario(data_kind=kind, amplitude=0.1, c_plus=1.0, c_minus=-1.0,
                              L=30.0, N=512)
            with pytest.raises(ConfigError, match=f"too small to resolve the {kind}"):
                hn.make_initial_data(s)


class TestRunExperiment:
    def test_bundle_and_reproducibility(self, tmp_path):
        s = tiny_scenario()
        out = str(tmp_path / "out")
        bundle = hn.run_experiment(s, out_root=out)
        report_path = bundle["paths"]["report"]
        with open(report_path, "rb") as fh:
            first = fh.read()
        bundle2 = hn.run_experiment(s, out_root=out)
        with open(report_path, "rb") as fh:
            second = fh.read()
        assert first == second
        assert os.path.isdir(os.path.join(out, hn.scenario_hash(s), "series"))
        assert os.path.isfile(os.path.join(out, hn.scenario_hash(s), "snapshots.npy"))
        rep = bundle["report"]
        assert rep["cross_checks"]["mass_drift"] < 1e-10
        assert "chi|linf|l0" in rep["fits"]
        assert not [k for k, fit in rep["fits"].items() if "error" in fit]

    def test_each_window_fitted_once(self, monkeypatch):
        # one fit per full window and one per shrunk window: window_stability
        # reuses the full-window fit instead of refitting it, and the verdict
        # reuses the fit's Theil-Sen slope instead of taking its own
        calls, slopes = [], []
        real, real_slope = asy.fit_rate, asy.theil_sen_slope

        def counting(es, window, log_power=0):
            calls.append((es.combo, es.order, es.norm, tuple(window)))
            return real(es, window, log_power)

        def counting_slope(x, y):
            slopes.append(len(x))
            return real_slope(x, y)

        monkeypatch.setattr(asy, "fit_rate", counting)
        monkeypatch.setattr(asy, "theil_sen_slope", counting_slope)
        fits = hn.run_experiment(tiny_scenario(), out_root=None)["report"]["fits"]
        assert fits and all(fit["window_stability"] is not None for fit in fits.values())
        assert all(fit["status"] == "ok" for fit in fits.values())
        assert len(calls) == 2 * len(fits)
        assert len(set(calls)) == len(calls)
        assert len(slopes) == len(calls)

    @pytest.mark.parametrize("alpha, data, norms", [
        (1.5, dict(data_kind="prescribed_r0", c_plus=1.0, c_minus=-1.0), ["linf"]),
        (1.5, dict(data_kind="gaussian"), ["l2"]),
        (2.0, dict(data_kind="prescribed_r0", c_plus=1.0, c_minus=1.0), ["l2"]),
    ], ids=["tail", "no-tail-l2", "alpha2-l2"])
    def test_rate_report_judges_the_run_series(self, alpha, data, norms):
        # the fits are the report of the run's one series pass, in the scenario's
        # norms only: judging fresh series of the same keys gives the same entries
        s = tiny_scenario(alpha=alpha, L=50.0, N=1024, norms=norms,
                          derivative_orders=[0, 1],
                          t_samples=list(np.geomspace(1.0, 36.0, 12)), **data)
        bundle = hn.run_experiment(s, out_root=None)
        ps = bundle["profile_set"]
        combos = list(dict.fromkeys(combo for combo, _, _ in bundle["series"]))
        fresh = asy.error_series_multi(bundle["trajectory"], ps, combos, orders=(0, 1),
                                       norms=tuple(norms))
        expected = asy.optimal_rate_report(fresh, s.params, ps)
        assert bundle["report"]["fits"] == expected
        assert {nm for _, _, nm in bundle["series"]} == set(norms)
        assert {fit["norm"] for fit in expected.values()} == set(norms)

    def test_one_z_evaluation_per_positive_sample(self, monkeypatch):
        # Z and Z_x come from one Z_eval call per positive sample time, shared
        # by the fits, the CSVs and the rate reports of both orders
        calls = []
        real = asy.Z_eval

        def counting(x, t, p, ps, derivative=0):
            calls.append((t, derivative))
            return real(x, t, p, ps, derivative)

        monkeypatch.setattr(asy, "Z_eval", counting)
        times = [0.0] + list(np.geomspace(1.0, 36.0, 11))
        s = tiny_scenario(alpha=1.5, data_kind="prescribed_r0", c_plus=1.0,
                          c_minus=-1.0, L=50.0, N=1024, t_samples=times,
                          derivative_orders=[0, 1])
        hn.run_experiment(s, out_root=None)
        assert calls == [(t, 1) for t in times[1:]]

    def test_step_counts_reported(self, flaky_march):
        flaky_march(1)
        report = hn.run_experiment(tiny_scenario(), out_root=None)["report"]
        solver = report["solver"]
        assert solver["steps_rejected"] == 1
        assert solver["steps_accepted"] >= 2 * solver["segments"]
        assert type(solver["dt_final"]) is float
        assert type(solver["n_points_final"]) is int
        assert 16 <= solver["n_points_final"] <= tiny_scenario().N
        assert "dt_halvings" not in solver

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_exponent_tolerance_only_on_band_fits(self, alpha):
        # the +-0.1 slope tolerance and the ratio bound are the band test; other
        # kinds judge the slope against their own one-sided bounds
        s = tiny_scenario(alpha=alpha, data_kind="prescribed_r0", c_plus=1.0,
                          c_minus=-1.0, L=50.0, N=1024,
                          t_samples=list(np.geomspace(1.0, 36.0, 12)))
        fits = hn.run_experiment(s, out_root=None)["report"]["fits"]
        kinds = set()
        for fit in fits.values():
            kinds.add(fit["claim_kind"])
            assert fit["status"] == "ok"
            slope = fit["ts_slope"]
            if fit["claim_kind"] == "band":
                assert fit["slope_ok"] == (abs(slope) <= 0.1)
                assert fit["ratio_ok"] == (fit["ratio"] <= 10.0)
                continue
            assert "ratio_ok" not in fit
            bound = -0.05 if fit["claim_kind"] == "improves" else 0.05
            assert fit["slope_ok"] == (slope <= bound)
        assert "band" in kinds and len(kinds) >= 2

    def test_linear_oracle_cross_check(self, tmp_path):
        s = tiny_scenario(beta=0.0, name="lin-oracle")
        bundle = hn.run_experiment(s, out_root=str(tmp_path / "out"))
        assert bundle["report"]["cross_checks"]["linear_oracle_gap"] < 1e-10

    def test_bounded_claim_fitted_without_log(self, tmp_path):
        # alpha > 2 claims (1+t)||u - chi - V|| bounded: exponent -1, no log
        s = tiny_scenario(alpha=3.0, t_samples=list(np.geomspace(1.0, 50.0, 12)))
        bundle = hn.run_experiment(s, out_root=str(tmp_path))
        with open(bundle["paths"]["report"]) as fh:
            fit = json.load(fh)["fits"]["chi+V|linf|l0"]
        assert fit["log_power"] == 0
        assert fit["claim_kind"] == "bounded"
        assert fit["claimed_exponent"] == -1.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_every_emitted_combo_has_a_claim(self, alpha):
        # the emitted combinations are the branch's RATE_CLAIMS combinations for
        # a tail, no tail (gaussian) and a zero tail; chi+Z is dropped only where
        # both tail constants are zero
        for data in (dict(data_kind="prescribed_r0", c_plus=1.0, c_minus=-1.0),
                     dict(data_kind="gaussian"),
                     dict(data_kind="prescribed_r0", c_plus=0.0, c_minus=0.0)):
            s = tiny_scenario(alpha=alpha, L=50.0, N=1024,
                              t_samples=list(np.geomspace(1.0, 36.0, 9)), **data)
            bundle = hn.run_experiment(s, out_root=None)
            ps = bundle["profile_set"]
            no_tail = ps.c_alpha_plus == 0.0 and ps.c_alpha_minus == 0.0
            claimed = [c for b, c in asy.RATE_CLAIMS if b == asy.rate_branch(alpha)
                       and not (no_tail and c == "chi+Z")]
            assert [combo for combo, _, _ in bundle["series"]] == claimed

    def test_gaussian_data_fit_no_tail(self):
        # gaussian data have no tail: their round-off tail constants are zeroed on
        # record, so chi+Z is not fitted and the mu0 != 0 hypothesis fails
        s = tiny_scenario(alpha=1.5, L=50.0, N=1024,
                          t_samples=list(np.geomspace(1.0, 36.0, 9)))
        report = hn.run_experiment(s, out_root=None)["report"]
        c_alpha = report["constants"]["c_alpha"]
        zeroed = c_alpha["zeroed_below_roundoff"]
        assert c_alpha["c_plus"] == c_alpha["c_minus"] == 0.0
        assert 0.0 < abs(zeroed["c_plus"]) < zeroed["bound"]
        assert not [k for k in report["fits"] if k.startswith("chi+Z|")]
        for fit in report["fits"].values():
            assert fit["status"] == "hypothesis_violation" and fit["passed"] is None
            assert fit["reason"].endswith("1 < alpha < 2 branch requires mu0 != 0")

    def test_validity_window_refused_up_front(self):
        s = tiny_scenario(t_samples=[1.0, 1e5])
        with pytest.raises(ConfigError):
            hn.run_experiment(s, out_root=None)

    def test_no_positive_sample_refused_up_front(self, tmp_path, monkeypatch, capsys):
        # no positive sample time leaves no fit window; refused before integrating
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a scenario with no fit window")

        monkeypatch.setattr(hn, "integrate", no_integration)
        s = tiny_scenario(t_samples=[0.0])
        with pytest.raises(ConfigError, match="no positive sample time"):
            hn.run_experiment(s, out_root=None)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(s.canonical_json())
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_z_orders_above_one_refused_up_front(self, tmp_path, monkeypatch, capsys):
        # the Z profile has orders 0 and 1 only; a tail run asking for order 2
        # is refused before integrating, not after
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a scenario whose Z fits cannot run")

        monkeypatch.setattr(hn, "integrate", no_integration)
        s = hn.Scenario(name="z-order", beta=1.0, gamma=1.0, alpha=1.5, mass=0.3,
                        data_kind="prescribed_r0", c_plus=1.0, c_minus=-1.0,
                        L=50.0, N=1024, t_samples=list(np.geomspace(1.0, 30.0, 9)),
                        derivative_orders=[0, 2])
        with pytest.raises(ConfigError, match="orders 0 and 1 only"):
            hn.run_experiment(s, out_root=None)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(s.canonical_json())
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
        assert "orders 0 and 1 only" in capsys.readouterr().err

    def test_short_run_reports_insufficient_samples(self):
        # 3 samples: fit_rate refuses every window, so the rate report judges none
        s = tiny_scenario(t_samples=[1.0, 4.0, 16.0])
        fits = hn.run_experiment(s, out_root=None)["report"]["fits"]
        assert sorted(fits) == ["chi+V|linf|l0", "chi|linf|l0"]
        for fit in fits.values():
            assert "need >= 8" in fit["error"]
            assert fit["status"] == "insufficient_samples"
            assert fit["n_samples"] == 3
            assert not [k for k in fit if k.endswith("_ok")]
            assert fit["passed"] is None

    def test_short_shrunk_window_keeps_the_fit(self):
        # 9 samples fit the full window, but its 10 %-shrunk copy holds 6
        s = tiny_scenario(alpha=3.0, L=60.0, t_samples=list(np.geomspace(1.0, 50.0, 9)))
        report = hn.run_experiment(s, out_root=None)["report"]
        for fit in report["fits"].values():
            assert "error" not in fit and fit["n_samples"] == 9
            assert math.isfinite(fit["exponent"])
            assert fit["window_stability"] is None and fit["resolved"] is False
            assert "holds 6 samples; need >= 8" in fit["reason"]
        assert report["fits"]["chi|linf|l0"]["status"] == "ok"

    def test_l2_series_judged_against_the_l2_claim(self, tmp_path, capsys):
        s = tiny_scenario(norms=["linf", "l2"])
        bundle = hn.run_experiment(s, out_root=str(tmp_path / "both"))
        fits = bundle["report"]["fits"]
        alone = hn.run_experiment(tiny_scenario(), out_root=str(tmp_path / "linf"))
        for key, fit in alone["report"]["fits"].items():
            assert fits[key] == fit
            l2 = fits[key.replace("|linf|", "|l2|")]
            assert l2["claimed_exponent"] == fit["claimed_exponent"] + 0.25
            # each series sits as far from its own claim
            gap = l2["exponent"] - l2["claimed_exponent"]
            assert abs(gap - (fit["exponent"] - fit["claimed_exponent"])) < 0.1
        for combo in ("chi", "chi+V"):
            es = bundle["series"][(combo, 0, "l2")]
            claim = asy.rate_claim(s.alpha, combo, 0, "l2")
            path = bundle["paths"][f"{combo.replace('+', '_')}_l2_l0.csv"]
            scaled = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
            assert np.array_equal(scaled, es.values * claim.scale(es.times))
        args = ["rates", "--bundle", bundle["paths"]["bundle_dir"], "--combo", "chi",
                "--l", "0", "--norm"]
        assert cli.main(args + ["l2"]) == 0
        assert "claimed    = -0.7500  (band)" in capsys.readouterr().out
        assert cli.main(args + ["linf"]) == 0
        out = capsys.readouterr().out
        assert "claimed    = -1.0000  (band)" in out
        # rates prints the bundle's own entry, verdict included
        entry = fits["chi|linf|l0"]
        assert f"  status     = {entry['status']}" in out
        assert f"  ratio      = {entry['ratio']:.4g}  " in out
        assert f"  ts_slope   = {entry['ts_slope']:+.4f}" in out
        assert f"  passed     = {entry['passed']}" in out


class TestBundleFormat:
    """snapshots.npy reloads bit for bit; every series CSV cell is the shortest
    round-trip repr of its float; reruns reproduce every file byte for byte."""

    @staticmethod
    def _nan_bundle(out_root, n_positive=11):
        # t = 0 is sampled, so the log-scaled chi series holds a nan
        times = [0.0] + list(np.geomspace(1.0, 50.0, n_positive))
        s = tiny_scenario(N=512, t_samples=times)
        return s, hn.run_experiment(s, out_root=str(out_root))

    @pytest.fixture
    def nan_bundle(self, tmp_path):
        return self._nan_bundle(tmp_path)

    # the default 12 samples, then 101 and 1001 rows: the .npy header pads a
    # longer shape string, and every streamed row must land in order
    @pytest.mark.parametrize("n_positive", [None, 100, 1000])
    def test_snapshots_and_series_are_exact(self, tmp_path, n_positive):
        s, bundle = self._nan_bundle(tmp_path, n_positive or 11)
        traj = bundle["trajectory"]
        stored = np.load(bundle["paths"]["snapshots"], allow_pickle=False)
        assert stored.dtype == np.float64
        assert stored.shape == (len(traj.snapshots), s.N)
        for row, snap in zip(stored, traj.snapshots):
            assert np.array_equal(row.view(np.uint64), snap.values.view(np.uint64))

        saw_nan = False
        for (combo, l, nm), es in bundle["series"].items():
            claim = asy.rate_claim(s.alpha, combo, l)
            scale = (1.0 + es.times) ** (-claim.exponent)
            if claim.log_power == 1:
                with np.errstate(divide="ignore", invalid="ignore"):
                    scale = np.where(es.times > 0, scale / np.log1p(es.times), np.nan)
            scaled = es.values * scale
            saw_nan |= bool(np.isnan(scaled).any())
            fname = f"{combo.replace('+', '_')}_{nm}_l{l}.csv"
            with open(bundle["paths"][fname]) as fh:
                lines = fh.read().splitlines()
            expected = [f"{float(t)!r},{float(v)!r},{float(w)!r}"
                        for t, v, w in zip(es.times, es.values, scaled)]
            assert lines == ["t,value,scaled_value"] + expected
        assert saw_nan

    def test_streamed_snapshots_equal_np_save(self, nan_bundle, tmp_path):
        _, bundle = nan_bundle
        ref = tmp_path / "ref.npy"
        np.save(ref, np.stack([snap.values for snap in bundle["trajectory"].snapshots]))
        with open(bundle["paths"]["snapshots"], "rb") as fh:
            assert fh.read() == ref.read_bytes()

    def test_rerun_reproduces_every_file(self, nan_bundle):
        s, bundle = nan_bundle
        bundle_dir = bundle["paths"]["bundle_dir"]

        def contents():
            out = {}
            for root, _, files in os.walk(bundle_dir):
                for f in files:
                    path = os.path.join(root, f)
                    with open(path, "rb") as fh:
                        out[os.path.relpath(path, bundle_dir)] = fh.read()
            return out

        first = contents()
        assert {"report.json", "snapshots.npy"} < set(first)
        assert sum(name.startswith("series") for name in first) == len(bundle["series"])
        # a stale file of the per-sample CSV layout must not survive the rerun
        os.makedirs(os.path.join(bundle_dir, "snapshots"))
        with open(os.path.join(bundle_dir, "snapshots", "snap_000.csv"), "w") as fh:
            fh.write("x,u\n")
        hn.run_experiment(s, out_root=os.path.dirname(bundle_dir))
        assert contents() == first
        assert not os.path.exists(os.path.join(bundle_dir, "snapshots"))

    def test_writer_cells_are_shortest_repr(self, tmp_path):
        special = np.array([-0.0, 5e-324, 1e16, 1e-5, np.nan])
        path = str(tmp_path / "a.csv")
        columns = (special, special[::-1], -special)
        hn.write_csv(path, "x,u,w", columns)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines == ["x,u,w"] + [
            ",".join(repr(float(v)) for v in row) for row in zip(*columns)
        ]
        with open(path) as fh:
            assert fh.readline() == "x,u,w\n"
            assert fh.readline() == "-0.0,nan,0.0\n"


class TestCli:
    def test_profiles_command(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = cli.main([
            "profiles", "--beta", "1", "--gamma", "1", "--mass", "0.5",
            "--alpha", "1.5", "--c-plus", "1", "--c-minus", "-1",
            "--L", "40", "--N", "256", "--table-out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "kappa = 0.125" in text
        header = out.read_text().splitlines()[0]
        assert header == "x,chi_star,eta_star,V_star"

    def test_profiles_z_column_round_trips_exactly(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = cli.main([
            "profiles", "--beta", "1", "--gamma", "1", "--mass", "0.5",
            "--alpha", "1.5", "--c-plus", "1", "--c-minus", "-0.5", "--z-time", "3",
            "--L", "40", "--N", "256", "--table-out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,chi_star,eta_star,V_star,Z_t3"
        z = np.array([float(line.split(",")[4]) for line in lines[1:]])
        p = pr.ModelParams(1.0, 1.0, 1.5, 0.5)
        ps = pr.constants(p, c_alpha=(1.0, -0.5))
        assert np.array_equal(z, pr.Z_eval(make_grid(40.0, 256).x, 3.0, p, ps)[0])

    def test_verify_identities_suite(self, capsys):
        rc = cli.main(["verify", "--suite", "identities"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.fixture
    def failing_quadrature(self, monkeypatch):
        real = spi.quad_vec
        monkeypatch.setattr(spi, "quad_vec", lambda *a, **kw: real(*a, **{**kw, "limit": 1}))

    def test_verify_raises_on_failed_quadrature(self, failing_quadrature):
        # a non-converged oracle quadrature raises instead of printing a result
        with pytest.raises(NumericsError, match="eta_star oracle quadrature failed"):
            checks.SUITES["identities"]()

    def test_numerics_error_exit_code(self, failing_quadrature, capsys):
        assert cli.main(["verify", "--suite", "identities"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith("numerical error: ")
        assert "eta_star oracle quadrature failed" in err[0]

    def test_simulate_and_rates(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(tiny_scenario().canonical_json())
        out = str(tmp_path / "out")
        assert cli.main(["simulate", "--config", str(cfg), "--out", out]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith("solver: 12 segments, ")
        assert " rejected, dt_final " in summary
        assert ", n_points_final " in summary
        bundle_dir = os.path.join(out, hn.scenario_hash(tiny_scenario()))
        rc = cli.main(["rates", "--bundle", bundle_dir, "--combo", "chi",
                       "--norm", "linf", "--l", "0"])
        assert rc == 0
        assert "exponent" in capsys.readouterr().out

    def test_rates_reads_claim_table(self, tmp_path, capsys):
        s = tiny_scenario()  # alpha = 2.5
        assert hn.run_experiment(s, out_root=str(tmp_path))
        bundle_dir = os.path.join(str(tmp_path), hn.scenario_hash(s))
        args = ["rates", "--bundle", bundle_dir, "--norm", "linf", "--l", "0"]
        assert cli.main(args + ["--combo", "chi+V"]) == 0
        assert "log_power=0" in capsys.readouterr().out
        assert cli.main(args + ["--combo", "chi"]) == 0
        assert "log_power=1" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["missing", "truncated", "shape", "dtype"])
    def test_rates_refuses_bad_snapshots(self, tmp_path, capsys, damage):
        s = tiny_scenario()
        bundle_dir = hn.run_experiment(s, out_root=str(tmp_path))["paths"]["bundle_dir"]
        path = os.path.join(bundle_dir, "snapshots.npy")
        if damage == "missing":  # as in a bundle of the old per-sample CSV layout
            os.remove(path)
        elif damage == "truncated":
            os.truncate(path, os.path.getsize(path) - 8)
        else:
            np.save(path, np.zeros((3, s.N)) if damage == "shape"
                    else np.zeros((12, s.N), dtype=np.float32))
        assert cli.main(["rates", "--bundle", bundle_dir, "--combo", "chi",
                         "--norm", "linf", "--l", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and bundle_dir in err

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"name": "x"}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    def test_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "s1.json"
        cfg.write_text(tiny_scenario().canonical_json())
        out = str(tmp_path / "out")
        rc = cli.main(["sweep", "--configs", str(tmp_path / "*.json"),
                       "--jobs", "1", "--out", out])
        assert rc == 0

    def test_sweep_rejects_nonpositive_jobs(self, tmp_path):
        (tmp_path / "s1.json").write_text(tiny_scenario().canonical_json())
        assert cli.main(["sweep", "--configs", str(tmp_path / "*.json"),
                         "--jobs", "0", "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_failure_names_exception_type(self, tmp_path, capsys, jobs):
        doc = json.loads(tiny_scenario().canonical_json())
        doc["data_kind"] = "nonsense"
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        rc = cli.main(["sweep", "--configs", str(tmp_path / "*.json"),
                       "--jobs", jobs, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bad.json FAILED: ConfigError: unknown data_kind" in capsys.readouterr().out
