"""The benchmark's calls into the package still run.

``bench/workloads.py`` calls the package the way the benchmark harness
does; a change to ``src/cslab`` that breaks one of those calls (a
signature, a removed field) would otherwise show only when the benchmark
runs.  Here items 0 and 1 of every workload (both signs of each) run at the
benchmark's default seed with the untraced probe, gates included.
``bench/`` is imported by path, as ``bench/test_bench.py`` does.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.filterwarnings("ignore::cslab.errors.CslabWarning")
@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_item_runs(name, index):
    workload = W.WORKLOADS[name]
    workload.run_item(workload.make_inputs(run.DEFAULT_SEED)[index], W.Untraced())
