#!/usr/bin/env python3
"""cslab benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 bench/run.py --workload flow-k256 --seed 1234 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  One caller sends the next item only after the
previous one finished.  Items are drawn in order from a pool of inputs made
from ``--seed``, and every item's result is checked against its gates (see
``workloads.py``).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs every input twice, once plain and once with a span around each call
into the package, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1234
DEFAULT_SECONDS = 25.0
#: Untimed items run before the loop (BLAS thread pool, allocator, caches).
WARMUP_ITEMS = 1
#: The tail latency is the highest one with this many items beyond it.
TAIL_BEYOND = 10
#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and make the inputs, then exit (times setup_s)")
    return ap.parse_args(argv)


def load_workloads():
    """Import the package from this checkout's src/; return the workloads module."""
    if not (SRC / "cslab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cslab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from cslab import CslabWarning

    # Warnings do not decide an item; its gates do (as in cslab.verify).
    warnings.simplefilter("ignore", CslabWarning)
    return workloads


# ----------------------------------------------------------------------
# machine record
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _blas_threads():
    """Thread count the bundled OpenBLAS will use, or None if not found."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3": _l3_size(),
        "memory_bandwidth": "not measured (working sets are far below L3)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

class Tracer:
    """The probe of the traced items: one in-memory span per package call.

    A span is (item, name, start, end, error); spans of one item share its
    index.  ``counts`` holds the work counts items report.
    """

    def __init__(self):
        self.item = -1
        self.spans = []
        self.counts = Counter()

    def call(self, name, fn, *args, **kwargs):
        error = True
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            error = False
            return out
        finally:
            self.spans.append((self.item, name, start, time.perf_counter(), error))

    def count(self, name, n=1):
        self.counts[name] += n

    def write(self, path: Path, items, origin: float) -> None:
        """Write item and call spans as JSON lines, times relative to origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for item, start, end, ok in items:
                fh.write(json.dumps({"item": item, "name": "item", "ok": ok,
                                     "start_s": start - origin,
                                     "end_s": end - origin}) + "\n")
            for item, name, start, end, error in self.spans:
                fh.write(json.dumps({"item": item, "name": name, "error": error,
                                     "start_s": start - origin,
                                     "end_s": end - origin}) + "\n")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail_index(n: int) -> int:
    """Index into n sorted latencies of the highest with TAIL_BEYOND beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} items for a tail, got {n}")
    return n - 1 - TAIL_BEYOND


def end_to_end_metrics(latencies, n_ok: int, wall_s: float, cpu_s: float,
                       peak_rss_mb: float, setup_s: float) -> dict:
    """name -> (value, unit) for the untraced run."""
    lat = sorted(latencies)
    return {
        "items_per_s": (n_ok / wall_s, "1/s"),
        "item_p50_s": (statistics.median(lat), "s"),
        "item_tail_s": (lat[tail_index(len(lat))], "s"),
        "cpu_s_per_item": (cpu_s / len(lat), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(layer_calls, spans, counts, traced_s: float,
                  plain_s: float) -> dict:
    """name -> (value, unit) for the traced run.

    ``traced_s`` and ``plain_s`` are the summed wall times of the traced
    items and of their plain twins.  Layer seconds plus ``bench.other.s``
    add up to ``traced_s``.
    """
    out = {}
    busy = 0.0
    per = {name: [0, 0.0, 0] for name in layer_calls}
    for _item, name, start, end, error in spans:
        rec = per[name]
        rec[0] += 1
        rec[1] += end - start
        rec[2] += error
    for name, (calls, secs, errors) in per.items():
        busy += secs
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (secs, "s")
        out[f"{name}.share"] = (secs / traced_s, "frac")
        out[f"{name}.errors"] = (errors, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out["evolve.evolve.us_per_step"] = (
        1e6 * ratio(per["evolve.evolve"][1], counts["evolve.evolve.steps"]), "us")
    out["evolve.evolve_basis.us_per_column_step"] = (
        1e6 * ratio(per["evolve.evolve_basis"][1],
                    counts["evolve.evolve_basis.column_steps"]), "us")
    out["finitegap.classify.finite_gap_ratio"] = (
        ratio(counts["finitegap.classify.finite_gap"],
              per["finitegap.classify"][0]), "frac")
    out["finitegap.inversion_data.reduced_ratio"] = (
        ratio(counts["finitegap.inversion_data.reduced"],
              per["finitegap.inversion_data"][0]), "frac")
    out["bench.other.s"] = (traced_s - busy, "s")
    out["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    return out


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

class Loop:
    """Runs items one after another and keeps every outcome."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failures = []

    def item(self, index, probe):
        """Run item ``index``; return (start, end, ok).  Failures are kept."""
        inp = self.inputs[index % len(self.inputs)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.workload.run_item(inp, probe)
            ok = True
        except Exception as exc:  # an item boundary: count it and go on
            ok = False
            self.failures.append(f"item {index}: {type(exc).__name__}: {exc}")
            if len(self.failures) == 1:
                traceback.print_exc(file=sys.stderr)
        return start, time.perf_counter(), ok


def measure_setup(workload_name: str, seed: int):
    """Wall time of SETUP_REPEATS fresh processes that import and make inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def run_plain(loop, untraced, seconds):
    """Untraced closed loop: latencies, passing items, wall and CPU seconds."""
    latencies, n_ok = [], 0
    t0, c0 = time.perf_counter(), time.process_time()
    for index in itertools.count(WARMUP_ITEMS):
        start, end, ok = loop.item(index, untraced)
        latencies.append(end - start)
        n_ok += ok
        if end - t0 >= seconds and len(latencies) > TAIL_BEYOND:
            break
    return latencies, n_ok, time.perf_counter() - t0, time.process_time() - c0


def run_traced(loop, untraced, tracer, seconds):
    """Each input twice, plain and traced, alternating which goes first."""
    items, plain_s, traced_s = [], 0.0, 0.0
    t0 = time.perf_counter()
    index = WARMUP_ITEMS
    while time.perf_counter() - t0 < seconds or not items:
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.item = index
                start, end, ok = loop.item(index, tracer)
                items.append((index, start, end, ok))
                traced_s += end - start
            else:
                start, end, _ok = loop.item(index, untraced)
                plain_s += end - start
        index += 1
    return items, plain_s, traced_s, t0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wmod = load_workloads()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wmod.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wmod.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = wmod.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    if args.setup_only:
        return 0

    untraced = wmod.Untraced()
    loop = Loop(wl, inputs)
    for index in range(WARMUP_ITEMS):
        loop.item(index, untraced)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  inputs {len(inputs)}  warmup_items {WARMUP_ITEMS}")
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "closed_loop_callers": 1,
              "warmup_items": WARMUP_ITEMS, "machine": machine_record()}
    if args.trace == 0:
        lat, n_ok, wall_s, cpu_s = run_plain(loop, untraced, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s, setup_samples = measure_setup(wl.name, args.seed)
        metrics = end_to_end_metrics(lat, n_ok, wall_s, cpu_s, peak_rss_mb, setup_s)
        n = len(lat)
        record.update(timed_items=n, wall_s=wall_s, latencies_s=lat,
                      setup_samples_s=setup_samples,
                      tail_percentile=100.0 * (tail_index(n) + 1) / n,
                      tail_items_beyond=TAIL_BEYOND)
        print(f"timed items {n}; item_tail_s is the p{record['tail_percentile']:.1f} "
              f"latency ({TAIL_BEYOND} of {n} items beyond it)")
    else:
        tracer = Tracer()
        items, plain_s, traced_s, origin = run_traced(loop, untraced, tracer,
                                                      args.seconds)
        metrics = layer_metrics(wmod.LAYER_CALLS, tracer.spans, tracer.counts,
                                traced_s, plain_s)
        span_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(span_file, items, origin)
        record.update(traced_items=len(items), traced_wall_s=traced_s,
                      plain_wall_s=plain_s, counts=dict(tracer.counts),
                      span_file=str(span_file.relative_to(ROOT)))
        print(f"traced items {len(items)}  traced wall {traced_s:.6f} s  "
              f"plain wall {plain_s:.6f} s  spans -> {record['span_file']}")

    failed = len(loop.failures)
    record.update(attempted=loop.attempted, failed=failed,
                  fail_ratio=failed / loop.attempted, failures=loop.failures[:20])
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<44} {record['fail_ratio']:>16.6g} frac "
          f"({failed} of {loop.attempted} items, warm-up included)")
    print("record " + json.dumps(record))
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
