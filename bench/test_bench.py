"""Tests of the benchmark itself: seeded inputs, failure counting, metric names.

Run with ``python -m pytest bench`` from the checkout root.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from cslab import NewtonDivergence  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _canon(x):
    """Exact, comparable form of a generated input."""
    if isinstance(x, W.HardyCoeffs):
        return x.coeffs.tobytes()
    if isinstance(x, W.FlowInput):
        return (x.name, x.sign, _canon(x.u0), repr(x.speed))
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    return x


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = W.WORKLOADS[name].make_inputs
    first = _canon(make(11))
    assert len(first) == W.POOL
    assert first == _canon(make(11))
    assert first != _canon(make(12))


class _Corrupt(W.Untraced):
    """Passes every call through but shifts one call's result."""

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        return out + 1e-6 if name == "finitegap.reconstruct_full" else out


def _diverge(*_args, **_kwargs):
    raise NewtonDivergence("injected")


class _Raise(W.Untraced):
    """Raises a package error from the first call."""

    def call(self, name, fn, *args, **kwargs):
        return _diverge()


@pytest.mark.parametrize("probe", [_Corrupt(), _Raise()], ids=["wrong", "raises"])
def test_bad_item_counts_as_failed(probe):
    loop = run.Loop(W.WORKLOADS["finitegap-k256"], W.finitegap_inputs(5))
    assert not loop.item(0, probe)[2]
    assert loop.item(1, W.Untraced())[2]
    assert (loop.attempted, len(loop.failures)) == (2, 1)


def test_tracer_keeps_failed_span_and_reraises():
    tracer = run.Tracer()
    with pytest.raises(NewtonDivergence):
        tracer.call("finitegap.solve_residue_system", _diverge, "focusing")
    assert [(s[1], s[4]) for s in tracer.spans] == [
        ("finitegap.solve_residue_system", True)]


def _check_names(metrics, spec_rows):
    assert list(metrics) == [row["name"] for row in spec_rows]
    for row in spec_rows:
        value, unit = metrics[row["name"]]
        assert NAME.fullmatch(row["name"]) and UNIT.fullmatch(unit)
        assert unit == row["unit"]
        assert math.isfinite(value)


def test_end_to_end_names_match_spec():
    latencies = [0.1 + 0.01 * i for i in range(12)]
    metrics = run.end_to_end_metrics(latencies, 12, 1.9, 3.0, 80.0, 0.6)
    _check_names(metrics, SPEC["end_to_end"])
    assert metrics["item_tail_s"][0] == latencies[1]  # ten items beyond it


def test_per_layer_names_match_spec_and_add_up():
    loop = run.Loop(W.WORKLOADS["finitegap-k256"], W.finitegap_inputs(5))
    tracer = run.Tracer()
    start, end, ok = loop.item(0, tracer)
    assert ok
    metrics = run.layer_metrics(W.LAYER_CALLS, tracer.spans, tracer.counts,
                                end - start, end - start)
    _check_names(metrics, SPEC["per_layer"])
    layer_s = sum(v for k, (v, _) in metrics.items() if k.endswith(".s"))
    assert layer_s == pytest.approx(end - start)
    assert metrics["finitegap.reconstruct_full.calls"][0] == len(W.DISC_POINTS)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    names = [r["name"] for k in ("end_to_end", "per_layer") for r in SPEC[k]]
    assert len(names) == len(set(names))
    bounds = {r["name"]: r["bound"] for r in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flow-k256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
