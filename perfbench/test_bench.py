"""Tests of the benchmark itself (not part of the package's Tier-1 suite).

    python3 -m pytest perfbench -q

The smoke test runs every workload once untraced and once traced on tiny
grids (about a minute on two cores) and checks that each metric named in
BENCHMARK.json is emitted and that the recorded spans nest.
"""

import json
import os
import subprocess
import sys

import pytest

import spans
import workloads as wls
from run import ROOT, tail

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    records = {}
    for name in NAMES:
        for trace in (0, 1):
            path = out / f"result-{name}-seed0-trace{trace}-smoke.json"
            records[name, trace] = json.loads(path.read_text())
    return records


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted(smoke, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke[name, trace]["result"]
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        values = [v["value"] for v in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest(smoke, name):
    path = smoke[name, 1]["spans_file"]
    with open(path) as fh:
        recs = {r["id"]: r for r in map(json.loads, fh)}
    assert recs
    for r in recs.values():
        assert r["run"] is not None and r["end"] >= r["start"]
        if r["parent"] is None:
            assert r["name"] == f"bench.{name}"
            continue
        parent = recs[r["parent"]]
        assert parent["run"] == r["run"]
        assert parent["start"] <= r["start"] and r["end"] <= parent["end"]


def test_layer_attribution(smoke):
    layer = {name: smoke[name, 1]["result"]["metrics"] for name in NAMES}
    z_calls = {name: m["profiles.Z_eval.calls"]["value"] for name, m in layer.items()}
    # two orders in error_series_multi, one each in the two optimal_rate_report calls
    assert z_calls == {"slowtail": 4 * wls.N_SAMPLES, "fasttail": 0,
                       "linearized": 0, "oracles": 0}
    assert layer["slowtail"]["profiles.Z_eval.distinct_ratio"]["value"] == 0.5
    assert layer["fasttail"]["solver.integrate.steps"]["value"] > 0
    assert layer["linearized"]["solver.solve_aux.steps"]["value"] > 0
    assert layer["oracles"]["semigroup.T_apply.calls"]["value"] > 0


def test_self_time_subtracts_direct_children():
    a = spans.Span(0, "a", 0.0, None, 0)
    b = spans.Span(1, "b", 1.0, 0, 0)
    c = spans.Span(2, "c", 1.5, 1, 0)
    a.end, b.end, c.end = 10.0, 4.0, 2.0
    assert spans.self_times([a, b, c]) == {0: 7.0, 1: 2.5, 2: 0.5}


def test_tail_percentile():
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (0, 100.0 / 11)
    value, pct = tail(list(range(100)))
    assert (value, pct) == (89, 90.0)


def test_reference_covers_every_variant():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bbmburgers

    ref = wls.load_reference()
    for wl in wls.WORKLOADS.values():
        if not wl.pinned:
            continue
        for size in wl.sizes:
            for v in range(wls.N_VARIANTS):
                entry = ref[wls.reference_key(wl.name, size, v)]
                assert entry["params"] == wls.describe(wl.inputs(bbmburgers, size, v))
    assert {wls.variant_of(s) for s in range(64)} == set(range(wls.N_VARIANTS))
