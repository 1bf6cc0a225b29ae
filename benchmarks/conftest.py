"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (at a
scaled-down size for the accuracy experiments, at the paper's true
dimensions for the performance-model figures) and prints the same
rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only

Pass ``-s`` to see the printed tables inline; every benchmark also
asserts the figure's qualitative "shape" (who wins, by roughly what
factor) so a regression in the reproduction fails the harness.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Scale preset used by the accuracy benchmarks (seconds-to-minutes).
ACCURACY_SCALE = "small"

#: ``REPRO_BENCH_WRITE=1`` lets the benchmarks rewrite their committed
#: ``BENCH_*.json`` result files; without it they measure and assert
#: exactly the same, but leave the checkout untouched.
BENCH_WRITE_ENV = "REPRO_BENCH_WRITE"


def write_bench_json(path: Path, payload: dict) -> None:
    """Write a benchmark result file when ``REPRO_BENCH_WRITE=1``."""
    if os.environ.get(BENCH_WRITE_ENV) == "1":
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"(not writing {path.name}: set {BENCH_WRITE_ENV}=1)")


def effective_cpu_count() -> int:
    """CPUs actually available to the benchmark process.

    ``os.cpu_count()`` reports the machine; a CI runner or batch
    scheduler typically grants a smaller cgroup/affinity mask, and the
    scaling benchmarks must gate their speedup assertions (and record
    ``cpu_count`` rows in the BENCH JSONs) on what they can really use.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="session")
def accuracy_scale() -> str:
    return ACCURACY_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The accuracy experiments are deterministic and relatively slow, so a
    single timed round is both sufficient and necessary to keep the
    harness runtime reasonable.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
