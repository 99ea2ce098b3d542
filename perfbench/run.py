"""saarilab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload genericity-2body --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run sets the package up several times (``setup_s``
is the median), then calls the workload's items in whole rounds for
``--seconds`` of item time and prints the end-to-end metrics.  With
``--trace 1`` it sets up once with spans around the package's entry points
and prints the per-layer metrics instead.  Outputs are checked after the
timed part.  The last line of standard output is the result object; the
line before it holds reference figures of the run.
"""

import os

# One compute thread: pin BLAS and OpenMP before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy.integrate  # noqa: E402, F401  (imported before any set-up)
import scipy.optimize  # noqa: E402, F401

from spans import CHECK_ITEM, INPUTS_ITEM, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
PACKAGE = "saarilab"

# Times are scaled to a fixed machine speed.  The host of a small shared
# machine runs this process up to 1.6 times faster or slower for seconds
# to minutes at a time, and it does so for every computation alike.  So
# the run times a fixed reference computation before and after every item
# and set-up, and scales the item's time by REFERENCE_S over the mean
# reference time: the figures read as if the reference always took
# REFERENCE_S.
REFERENCE_S = 3.0e-3
_REF = np.random.default_rng(0)
_REF_SMALL = np.arange(64) % 4
_REF_INDEX = _REF.integers(0, 25_000, 200_000)
_REF_GATHER = _REF.integers(0, 200_000, 200_000)
_REF_WEIGHT = _REF.random(200_000)


def reference() -> float:
    """Time one fixed computation that is not the package's: a Python loop
    over small arrays and a large gather and scatter-add, about half each,
    like the package's mix of jet bookkeeping and table arithmetic."""
    t = perf_counter()
    seen = {}
    for k in range(500):
        key = (k % 7, k % 5, k % 3)
        seen[key] = seen.get(key, 0) + 1
        w = np.arange(k % 13 + 3, dtype=float)
        np.bincount(_REF_SMALL[: w.size], weights=w, minlength=4)
    np.bincount(_REF_INDEX, weights=_REF_WEIGHT[_REF_GATHER] * _REF_WEIGHT,
                minlength=25_000)
    return perf_counter() - t


def reference_median(n: int = 15) -> float:
    return statistics.median(reference() for _ in range(n))


def import_package():
    """The package and its command-line module, imported from ``src/``."""
    sl = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(sl.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {sl.__file__}, "
                          f"not from {SRC}")
    return sl


def set_up(name: str, seed: int, tracer=None):
    """Import, make the inputs, and call every kind of item once.

    Returns the workload and the set-up's time, raw and scaled, with the
    raw time of each warm-up call."""
    before = reference_median()
    t0 = perf_counter()
    sl = import_package()
    if tracer is not None:
        tracer.install(sl)
    workload = WORKLOADS[name](sl, seed, RUNS / name)
    warm = {}
    for kind, call in workload.round(-1):
        t = perf_counter()
        call()
        warm[kind] = perf_counter() - t
    spent = perf_counter() - t0
    ref = (before + reference_median()) / 2
    return workload, {"raw": spent, "scaled": spent * REFERENCE_S / ref,
                      "warm": warm}


def set_up_apart(args) -> dict:
    """One set-up in a fresh interpreter, so that it starts with nothing
    imported or cached and leaves this process's memory alone."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--set-up-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up apart exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Timed:
    """Item times of the timed part, raw and scaled to REFERENCE_S."""

    def __init__(self):
        self.kinds: list[str] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def __len__(self) -> int:
        return len(self.raw)


def run_items(workload, seconds: float, tracer=None):
    """Whole rounds of items until ``seconds`` of item time have passed."""
    timed, outputs, failed = Timed(), [], []
    ref = reference()
    r = 0
    while sum(timed.raw) < seconds:
        if tracer is not None:
            tracer.item = INPUTS_ITEM
        for kind, call in workload.round(r):
            if tracer is not None:
                tracer.item = len(timed)
            t = perf_counter()
            try:
                result = call()
            except Exception:  # the item boundary keeps the run going
                result = None
                failed.append(f"round {r} {kind}: {traceback.format_exc()}")
            spent = perf_counter() - t
            # The references right before and right after the item.
            ref_after = reference()
            timed.kinds.append(kind)
            timed.raw.append(spent)
            timed.scaled.append(spent * 2 * REFERENCE_S / (ref + ref_after))
            ref = ref_after
            if result is not None:
                outputs.append((r, kind, result))
        r += 1
    if tracer is not None:
        tracer.item = CHECK_ITEM
    return timed, outputs, failed


def tail(durations):
    """Highest of the usual percentiles with at least ten items beyond it."""
    n = len(durations)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(durations, n=1000, method="inclusive")
            return {"percentile": p, "ms": 1e3 * q[round(p * 10) - 1],
                    "items": n}
    return None


def median_by_kind(kinds, durations) -> dict:
    by = {}
    for k, d in zip(kinds, durations):
        by.setdefault(k, []).append(d)
    return {k: statistics.median(v) for k, v in by.items()}


def in_ms(seconds: dict) -> dict:
    return {k: round(1e3 * v, 4) for k, v in seconds.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)

    if args.set_up_only:
        print(json.dumps(set_up(args.workload, args.seed)[1]))
        return 0

    tracer = Tracer() if args.trace else None
    # All but one set-up run apart, before this process builds anything;
    # the last one, here, feeds the timed part.
    setups = [] if tracer else [set_up_apart(args) for _ in range(SETUPS - 1)]
    workload, own = set_up(args.workload, args.seed, tracer)
    setups.append(own)
    setup_scaled = [s["scaled"] for s in setups]
    gc.collect()
    timed, outputs, failed = run_items(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = workload.check(outputs)
    failed += outcome.failed
    for line in failed + outcome.problems:
        print(line, file=sys.stderr)

    # A round calls every kind of item once.  Its typical time, the sum of
    # the median time of each kind, is steadier on a shared machine than
    # the time of whole rounds, which a stall in any one item lengthens.
    by_kind = median_by_kind(timed.kinds, timed.scaled)
    items_per_s = len(by_kind) / sum(by_kind.values())
    item_p50_ms = 1e3 * statistics.median(timed.scaled)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(timed) // len(by_kind), "items": len(timed),
        "items_per_s": items_per_s,
        "setup_runs_s": setup_scaled,
        "tail": tail(timed.scaled),
        "item_p50_ms_by_kind": in_ms(by_kind),
        "unscaled": {
            "setup_s": statistics.median(s["raw"] for s in setups),
            "items_per_s": len(timed) / sum(timed.raw),
            "item_p50_ms": 1e3 * statistics.median(timed.raw),
            "item_p50_ms_by_kind": in_ms(
                median_by_kind(timed.kinds, timed.raw)),
            "cold_ms_by_kind": in_ms({k: statistics.median(
                s["warm"][k] for s in setups) for k in own["warm"]}),
        },
        "failed": sorted(set(f.split(":")[0] for f in outcome.failed)),
        **outcome.figures,
    }
    if tracer is not None:
        metrics = tracer.metrics(
            [s / r for s, r in zip(timed.scaled, timed.raw)],
            own["scaled"] / own["raw"])
        detail["spans"] = tracer.write(RUNS / f"trace-{args.workload}.npz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled),
                        "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_p50_ms": {"value": item_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": len(timed),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
