"""matspectra benchmark: one workload per invocation, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload parabolic_window --seed 1 \
        --seconds 27 --trace 0

The program is imported from ``src/`` of the tree this script sits in. The
run repeats the workload's operation untraced for ``--seconds``, gating
every output outside the timed region. Unless tracing, it also measures
set-up in fresh interpreters at even intervals of that period; the time
they take extends the period. A fixed reference computation
(``reference.py``) is timed before and after every operation and set-up,
and each wall time is divided by the mean of the two. On a shared host
the speed of identical work changes by tens of percent within seconds and
by up to half over minutes; the median of these ratios stays steady where
the median wall time does not. With ``--trace 1`` one
more operation runs under the span tracer and the per-layer metrics
replace the end-to-end ones. The last stdout line is the result object;
the line before it carries informational fields that are never gated
(hashes, versions, probes, failure rate, reference deviation, wall and
reference times).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from reference import NOMINAL_S, time_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "matspectra"
SCRATCH = ROOT / ".perfbench"

WORKLOAD_NAMES = ("parabolic_window", "quartic_window", "quartic_check")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# Runs in a fresh interpreter: everything before the first operation.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from matspectra import cli
from matspectra.config import SolverConfig
op = cli.load_operator(sys.argv[2])
cli.build_schur(op, SolverConfig())
print("ready", flush=True)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(config_path: Path) -> float:
    """Seconds from launching a fresh interpreter to 'ready'."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.close()
        code = child.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return elapsed


def src_line_count() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in sorted(PACKAGE.glob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
    }


def run_once(workload, record: list, tracer=None):
    """One timed operation plus its untimed gate; appends to ``record``."""
    gc.collect()  # garbage of the previous operation and gate is not timed
    try:
        if tracer is None:
            start = time.perf_counter()
            result = workload.run()
            wall = time.perf_counter() - start
        else:
            with tracer:
                start = time.perf_counter()
                result = workload.run()
                wall = time.perf_counter() - start
        outcome = workload.check(result)
    except (Exception, SystemExit):  # an operation that raises has failed
        traceback.print_exc()
        record.append((None, None))
        return None
    if not outcome.passed:
        print(f"gate failed: {outcome.reason}", file=sys.stderr)
    record.append((wall, outcome))
    return wall


def end_to_end_metrics(passed: list, setups: list) -> dict:
    """Medians over the passing operations; empty when none passed.

    ``passed`` holds (wall, outcome, reference) triples and ``setups``
    (wall, reference) pairs, where reference is the mean reference time
    around the operation or set-up. An operation's cost is its wall time
    over that reference time; set-up seconds are scaled to a reference time
    of ``NOMINAL_S``.
    """
    if not passed:
        return {}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "op_cost": {"value": statistics.median(
            w / ref for w, _o, ref in passed), "unit": "ref"},
        "setup_s": {"value": statistics.median(
            w / ref for w, ref in setups) * NOMINAL_S, "unit": "s"},
        "rows_per_ref": {"value": statistics.median(
            o.rows * ref / w for w, o, ref in passed), "unit": "1/ref"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer_metrics(layer: dict | None) -> dict:
    if layer is None:
        return {}
    return {name: {"value": layer[name], "unit": tracing.metric_unit(name)}
            for name in tracing.per_layer_metric_names()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no matspectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matspectra
    if Path(matspectra.__file__).resolve().parent != PACKAGE.resolve():
        print("error: imported matspectra from outside the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    SCRATCH.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, SCRATCH)
    setups: list = []  # (wall, mean reference time around it)
    record: list = []
    refs: list[float] = []  # mean reference time around each operation
    before = time_reference()
    start = time.perf_counter()
    deadline = start + args.seconds
    # Set-ups spread over the run sample the machine's speed as the
    # operations do, not only at its start.
    due = ([] if args.trace else
           [start + args.seconds * (i + 0.5) / SETUP_REPEATS
            for i in range(SETUP_REPEATS)])
    while time.perf_counter() < deadline or not record:
        if due and time.perf_counter() >= due[0]:
            setup_start = time.perf_counter()
            wall = measure_setup(workload.config_path)
            after = time_reference()
            setups.append((wall, (before + after) / 2.0))
            before = after
            lost = time.perf_counter() - setup_start
            deadline += lost
            due = [t + lost for t in due[1:]]
        wall = run_once(workload, record)
        after = time_reference()
        refs.append((before + after) / 2.0)
        before = after
        if wall is None:
            break
    for _ in due:
        wall = measure_setup(workload.config_path)
        after = time_reference()
        setups.append((wall, (before + after) / 2.0))
        before = after
    passed = [(w, o, ref) for (w, o), ref in zip(record, refs)
              if o is not None and o.passed]
    walls = [w for w, _o, _ref in passed]

    layer = None
    if args.trace:
        tracer = tracing.Tracer()
        traced_wall = run_once(workload, record, tracer)
        if traced_wall is not None:
            ref = (before + time_reference()) / 2.0
            layer = tracer.layer_metrics()
            layer["trace.wall_s"] = traced_wall
            # The untraced median cost, at the machine speed of the traced
            # operation, is what the traced operation would have taken.
            layer["trace.overhead_s"] = (traced_wall - statistics.median(
                w / r for w, _o, r in passed) * ref) if passed else 0.0
            tracer.write_spans(
                SCRATCH / f"spans-{args.workload}-seed{args.seed}.json")

    outcomes = [o for _w, o in record if o is not None]
    failed = sum(1 for _w, o in record if o is None or not o.passed)
    ref_devs = [o.ref_dev for o in outcomes if o.ref_dev is not None]
    info = {
        **workload.describe(),
        "operations": len(record),
        "fail_rate": failed / len(record),
        "ref_dev": max(ref_devs) if ref_devs else None,
        "csv_sha256": sorted({o.csv_sha256 for o in outcomes
                              if o.csv_sha256}),
        "svg_sha256": sorted({o.svg_sha256 for o in outcomes
                              if o.svg_sha256}),
        "wall_s_all": walls,
        "wall_s_median": statistics.median(walls) if walls else None,
        "reference_s_all": refs,
        "setup_s_all": [w for w, _ref in setups],
        "setup_reference_s_all": [ref for _w, ref in setups],
        **environment(),
    }

    if args.trace:
        metrics = per_layer_metrics(layer)
    else:
        metrics = end_to_end_metrics(passed, setups)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(record), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
