"""BENCHMARK.json metric names and the workloads that report them."""

from __future__ import annotations

import json

import pytest

from perfbench.common import ROOT
from perfbench.run import END_TO_END, NAME, UNIT, WORKLOADS, load_spec

SPEC_PATH = ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def spec():
    return load_spec(SPEC_PATH)


def test_spec_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(SPEC_PATH.read_bytes()) <= 64 * 1024


def test_every_workload_metric_is_declared(spec):
    declared = {m["name"] for m in spec["end_to_end"]}
    assert set(END_TO_END) == declared
    overheads = {m["name"] for m in spec["per_layer"]
                 if m["name"].startswith("trace_overhead.")}
    assert overheads == {f"trace_overhead.{n}" for n in declared}


@pytest.mark.parametrize("name", ["setup_s", "serve.responses_304",
                                  "experiments.headline_s3_s", "9x"])
def test_valid_names(name):
    assert NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "_x", "a b", "x/y", "a" * 65, "a\n"])
def test_invalid_names(name):
    assert not NAME.fullmatch(name)


@pytest.mark.parametrize("unit,ok", [("ms", True), ("1/s", True),
                                     ("B/block", True), ("%", True),
                                     ("a b", False), ("x" * 17, False)])
def test_units(unit, ok):
    assert bool(UNIT.fullmatch(unit)) is ok


def test_load_spec_rejects_repeats(tmp_path, spec):
    bad = dict(spec)
    bad["per_layer"] = spec["per_layer"] + [spec["per_layer"][0]]
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="repeated"):
        load_spec(path)


def _fake_pass(scale=1.0, layers=None):
    metrics = {name: scale * (i + 1) for i, name in enumerate(END_TO_END)}
    return {
        "metrics": metrics,
        "wall": {name: 2 * value for name, value in metrics.items()
                 if name != "peak_rss_mb"},
        "probe_s": [(0.0, 1e-3), (0.1, 3e-3), (0.2, 2e-3)],
        "layers": layers or {},
        "attempted": 3,
        "checks": {"outputs match": True},
        "scenario_digests": {},
        "details": {},
    }


@pytest.fixture
def fake_runs(monkeypatch):
    """Route measure() to canned passes: (untraced, traced)."""
    passes = {}
    monkeypatch.setattr(
        "perfbench.run._runner",
        lambda workload: lambda seed, seconds, trace, prep: passes[trace])
    return passes


def test_untraced_result_holds_every_end_to_end_metric(spec, fake_runs):
    from perfbench.run import measure

    fake_runs[False] = _fake_pass()
    result = measure("serve-hot", 1, 12, False, {}, spec)["result"]
    assert result["correct"] and result["attempted"] == 3
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert result["metrics"] == {
        name: {"value": float(i + 1), "unit": units[name]}
        for i, name in enumerate(END_TO_END)}


def test_a_zero_end_to_end_metric_is_incorrect(spec, fake_runs):
    from perfbench.run import measure

    fake_runs[False] = _fake_pass()
    fake_runs[False]["metrics"]["work_s"] = 0.0
    assert not measure("serve-hot", 1, 12, False, {}, spec)["result"][
        "correct"]


def test_traced_result_holds_every_per_layer_metric(spec, fake_runs):
    from perfbench.run import measure

    fake_runs[False] = _fake_pass()
    fake_runs[True] = _fake_pass(scale=1.5, layers={"chain.spill_s": 4.0})
    metrics = measure("simulate-paper", 1, 12, True, {}, spec)["result"][
        "metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["chain.spill_s"]["value"] == 4.0
    assert metrics["serve.cache.hits"]["value"] == 0.0  # layer not run
    assert metrics["trace_overhead.work_s"]["value"] == pytest.approx(1.0)
    assert metrics["wall.work_s"]["value"] == pytest.approx(6.0)
    assert metrics["host.probe_ms"]["value"] == pytest.approx(2.0)


def test_a_layer_missing_from_the_spec_is_an_error(spec, fake_runs):
    from perfbench.run import measure

    fake_runs[False] = _fake_pass()
    fake_runs[True] = _fake_pass(layers={"chain.nonesuch_s": 1.0})
    with pytest.raises(ValueError, match="chain.nonesuch_s"):
        measure("simulate-paper", 1, 12, True, {}, spec)
