"""Acceptance gate: every criterion at its stated tolerance.

Criteria 1-4 run the built-in verification suites; 5-7 run the production
scenarios (L = 400, N = 16384) through run_experiment, the production route,
and check the fitted rates; 8 checks byte
reproducibility of a bundle.  One PASS/FAIL line is printed per criterion
item (run with -s or -rA to see them).
"""

import json
import math

import numpy as np
import pytest

from bbmburgers import checks
from bbmburgers import harness as hn
from bbmburgers.asymptotics import fit_rate, theil_sen_slope

WINDOW = (20.0, 1000.0)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    return ok


def _scaled_slope(es, power: float, log_correction: bool = False):
    sel = (es.times >= WINDOW[0]) & (es.times <= WINDOW[1])
    t = es.times[sel]
    scaled = es.values[sel] * (1.0 + t) ** power
    if log_correction:
        scaled = scaled / np.log1p(t)
    slope = theil_sen_slope(np.log1p(t), np.log(scaled))
    return scaled, slope


# ---------------------------------------------------------------------------
# Criteria 1-4: built-in suites

@pytest.mark.parametrize("suite", ["identities", "semigroup", "oracles", "rates"])
def test_criteria_1_to_4_builtin_suites(suite):
    results = checks.SUITES[suite]()
    all_ok = True
    for r in results:
        all_ok &= _report(f"{suite}: {r.name}", r.passed,
                          f"(measured {r.measured:.3e}, tol {r.tolerance:.3e})")
    assert all_ok


# ---------------------------------------------------------------------------
# Production scenarios (shared across criteria 5-7), run by the production route

def _run_scenario(scenario):
    res = hn.run_experiment(scenario, out_root=None)
    assert res["report"]["initial_data"]["norm_linf"] <= 0.5  # small-amplitude hypothesis
    return {"traj": res["trajectory"], "ps": res["profile_set"], "series": res["series"]}


@pytest.fixture(scope="module")
def alpha15_bundle():
    s = hn.Scenario(name="alpha15-main", beta=1.0, gamma=1.0, alpha=1.5, mass=0.3,
                    data_kind="prescribed_r0", c_plus=1.0, c_minus=-1.0,
                    t_samples=list(np.geomspace(1.0, 1000.0, 33)),
                    derivative_orders=[0, 1])
    return _run_scenario(s)


@pytest.fixture(scope="module")
def alpha3_bundle():
    s = hn.Scenario(name="alpha3-fast-tail", beta=1.0, gamma=1.0, alpha=3.0,
                    mass=0.3, data_kind="power_tail", amplitude=0.1,
                    t_samples=list(np.geomspace(1.0, 1000.0, 33)),
                    derivative_orders=[0, 1])
    return _run_scenario(s)


@pytest.fixture(scope="module")
def alpha2_bundle():
    s = hn.Scenario(name="alpha2-critical", beta=1.0, gamma=1.0, alpha=2.0,
                    mass=0.3, data_kind="prescribed_r0", c_plus=1.0, c_minus=1.0,
                    t_samples=list(np.geomspace(1.0, 1000.0, 33)),
                    derivative_orders=[0, 1])
    return _run_scenario(s)


# ---------------------------------------------------------------------------
# Criterion 5: first-profile rates

@pytest.mark.slow
def test_criterion_5_first_profile_rates(alpha15_bundle, alpha3_bundle):
    ok = True

    fit = fit_rate(alpha15_bundle["series"][("chi", 0, "linf")], WINDOW, log_power=0)
    item = -0.85 <= fit.exponent <= -0.65
    ok &= _report("5: alpha=1.5 ||u-chi||_inf exponent in -0.75 +- 0.10",
                  item, f"(exponent {fit.exponent:+.3f})")

    fit3 = fit_rate(alpha3_bundle["series"][("chi", 0, "linf")], WINDOW, log_power=1)
    item = fit3.exponent <= -0.90
    ok &= _report("5: alpha=3 ||u-chi||_inf log-corrected exponent <= -0.90",
                  item, f"(exponent {fit3.exponent:+.3f})")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: second-profile refinements

@pytest.mark.slow
def test_criterion_6_second_profiles(alpha15_bundle, alpha3_bundle, alpha2_bundle,
                                     second_aux_bundle):
    ok = True

    scaled, _ = _scaled_slope(alpha15_bundle["series"][("chi", 0, "linf")], 0.75)
    ratio = float(scaled.max() / scaled.min())
    ok &= _report("6: alpha=1.5 band ||u-chi||*(1+t)^0.75 ratio <= 10",
                  ratio <= 10.0, f"(ratio {ratio:.2f})")

    _, slope = _scaled_slope(alpha15_bundle["series"][("chi+Z", 0, "linf")], 0.75)
    ok &= _report("6: alpha=1.5 ||u-chi-Z||*(1+t)^0.75 Theil-Sen slope <= -0.05",
                  slope <= -0.05, f"(slope {slope:+.3f})")

    scaled3, slope3 = _scaled_slope(alpha3_bundle["series"][("chi+V", 0, "linf")], 1.0)
    ok &= _report("6: alpha=3 (1+t)||u-chi-V|| bounded, slope <= 0.05",
                  slope3 <= 0.05,
                  f"(slope {slope3:+.3f}, sup {scaled3.max():.4g})")

    _, slope2 = _scaled_slope(alpha2_bundle["series"][("chi+Z+V", 0, "linf")], 1.0,
                              log_correction=True)
    ok &= _report("6: alpha=2 ||u-chi-Z-V||*(1+t)/log(1+t) slope <= -0.05",
                  slope2 <= -0.05, f"(slope {slope2:+.3f})")

    traj = second_aux_bundle["traj"]
    sel = traj.times >= 10.0
    scaled_v = (1.0 + traj.times[sel]) * second_aux_bundle["gaps"][0][sel]
    slope_v = theil_sen_slope(np.log1p(traj.times[sel]), np.log(scaled_v))
    ok &= _report("6: (1+t)||v-V|| bounded, slope <= 0.05",
                  slope_v <= 0.05,
                  f"(slope {slope_v:+.3f}, sup {scaled_v.max():.4g})")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: first derivative, exponents shifted by -1/2

@pytest.mark.slow
def test_criterion_7_first_derivative(alpha15_bundle, alpha3_bundle, alpha2_bundle,
                                      second_aux_bundle):
    ok = True

    fit = fit_rate(alpha15_bundle["series"][("chi", 1, "linf")], WINDOW, log_power=0)
    ok &= _report("7: alpha=1.5 ||d_x(u-chi)||_inf exponent in -1.25 +- 0.10",
                  -1.35 <= fit.exponent <= -1.15, f"(exponent {fit.exponent:+.3f})")

    fit3 = fit_rate(alpha3_bundle["series"][("chi", 1, "linf")], WINDOW, log_power=1)
    ok &= _report("7: alpha=3 ||d_x(u-chi)||_inf log-corrected exponent <= -1.40",
                  fit3.exponent <= -1.40, f"(exponent {fit3.exponent:+.3f})")

    scaled, _ = _scaled_slope(alpha15_bundle["series"][("chi", 1, "linf")], 1.25)
    ratio = float(scaled.max() / scaled.min())
    ok &= _report("7: alpha=1.5 band ||d_x(u-chi)||*(1+t)^1.25 ratio <= 10",
                  ratio <= 10.0, f"(ratio {ratio:.2f})")

    _, slope = _scaled_slope(alpha15_bundle["series"][("chi+Z", 1, "linf")], 1.25)
    ok &= _report("7: alpha=1.5 ||d_x(u-chi-Z)||*(1+t)^1.25 slope <= -0.05",
                  slope <= -0.05, f"(slope {slope:+.3f})")

    _, slope3 = _scaled_slope(alpha3_bundle["series"][("chi+V", 1, "linf")], 1.5)
    ok &= _report("7: alpha=3 (1+t)^1.5 ||d_x(u-chi-V)|| slope <= 0.05",
                  slope3 <= 0.05, f"(slope {slope3:+.3f})")

    _, slope2 = _scaled_slope(alpha2_bundle["series"][("chi+Z+V", 1, "linf")], 1.5,
                              log_correction=True)
    ok &= _report("7: alpha=2 ||d_x(u-chi-Z-V)||*(1+t)^1.5/log slope <= -0.05",
                  slope2 <= -0.05, f"(slope {slope2:+.3f})")

    traj = second_aux_bundle["traj"]
    sel = traj.times >= 10.0
    scaled_v = (1.0 + traj.times[sel]) ** 1.5 * second_aux_bundle["gaps"][1][sel]
    slope_v = theil_sen_slope(np.log1p(traj.times[sel]), np.log(scaled_v))
    ok &= _report("7: (1+t)^1.5 ||d_x(v-V)|| bounded, slope <= 0.05",
                  slope_v <= 0.05, f"(slope {slope_v:+.3f})")
    assert ok


# ---------------------------------------------------------------------------
# Rate-ordering and window-stability properties on the main scenario

@pytest.mark.slow
def test_rate_ordering_and_window_stability(alpha15_bundle):
    ok = True
    f_chi = fit_rate(alpha15_bundle["series"][("chi", 0, "linf")], WINDOW)
    f_z = fit_rate(alpha15_bundle["series"][("chi+Z", 0, "linf")], WINDOW)
    ok &= _report("property: exponent(u-chi-Z) <= exponent(u-chi)",
                  f_z.exponent <= f_chi.exponent,
                  f"({f_z.exponent:+.3f} vs {f_chi.exponent:+.3f})")

    from bbmburgers.asymptotics import window_stability
    delta = window_stability(alpha15_bundle["series"][("chi", 0, "linf")], f_chi)
    ok &= _report("property: 10% window shrink moves exponent < 0.05",
                  delta < 0.05, f"(delta {delta:.4f})")
    assert ok


@pytest.mark.slow
def test_optimal_rate_report_on_main_scenario(alpha15_bundle):
    from bbmburgers.asymptotics import optimal_rate_report
    ps = alpha15_bundle["ps"]
    report = optimal_rate_report(alpha15_bundle["series"], ps.params, ps, window=WINDOW)
    ok = report["band"]["status"] == "ok" and report["band"]["ratio_ok"] \
        and report["refinement"]["slope_ok"]
    assert _report("report: alpha=1.5 optimal-rate decision passes", ok,
                   json.dumps({k: report[k]["status"] for k in ("band", "refinement")}))


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical reruns

def test_criterion_8_reproducibility(tmp_path):
    s = hn.Scenario(name="repro", beta=1.0, gamma=1.0, alpha=2.5, mass=0.3,
                    data_kind="gaussian", amplitude=0.3, L=80.0, N=1024,
                    t_samples=list(np.geomspace(1.0, 50.0, 12)))
    out = str(tmp_path / "out")
    first = hn.run_experiment(s, out_root=out)
    with open(first["paths"]["report"], "rb") as fh:
        blob1 = fh.read()
    second = hn.run_experiment(s, out_root=out)
    with open(second["paths"]["report"], "rb") as fh:
        blob2 = fh.read()
    assert _report("8: rerun reproduces report.json byte-for-byte", blob1 == blob2,
                   f"({len(blob1)} bytes)")
