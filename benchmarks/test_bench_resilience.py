"""Resilience overhead benchmark: fault-free vs chaos-injected fit.

Runs the full Build → Factor → Solve → Predict pipeline twice at
n=2048 under a small store budget — once fault-free, once under a
deterministic transient-fault plan (runtime task faults + segment-read
I/O faults) with task retries enabled — asserts the ISSUE 6 acceptance
contract (**bitwise identical predictions, every fault absorbed**) and
writes ``BENCH_resilience.json`` at the repository root so future PRs
can track the fault-tolerance overhead.
"""

import time
from pathlib import Path

import numpy as np

from conftest import write_bench_json

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession
from repro.resilience import FaultPlan, FaultSite
from repro.resilience.faults import (
    SITE_SEGMENT_READ,
    SITE_TASK_BODY,
    fault_plan,
)

N = 2048
SNPS = 192
TILE = 128
#: Eight fp64 tiles of residency: forces steady spill/reload traffic.
BUDGET = 8 * TILE * TILE * 8
_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_FILE = _REPO_ROOT / "BENCH_resilience.json"


def _cohort(seed: int = 2026):
    rng = np.random.default_rng(seed)
    g_train = rng.integers(0, 3, size=(N, SNPS)).astype(np.float64)
    y = rng.standard_normal(N)
    g_test = rng.integers(0, 3, size=(N // 8, SNPS)).astype(np.float64)
    return g_train, y, g_test


def _fit_predict(config: KRRConfig, cohort):
    g_train, y, g_test = cohort
    t0 = time.perf_counter()
    session = KRRSession(config)
    session.fit(g_train, y)
    predictions = session.predict(g_test)
    seconds = time.perf_counter() - t0
    return session, predictions, seconds


def test_bench_chaos_overhead():
    cohort = _cohort()
    config = KRRConfig(tile_size=TILE, workers=4,
                       precision_plan=PrecisionPlan.adaptive_fp16(),
                       store_budget_bytes=BUDGET)

    _, clean_pred, clean_s = _fit_predict(config, cohort)

    # deterministic transient chaos: every 11th task attempt raises,
    # every 7th segment read errors (absorbed by the store's retry)
    plan = FaultPlan([
        FaultSite(site=SITE_TASK_BODY, kind="raise", every=11),
        FaultSite(site=SITE_SEGMENT_READ, kind="oserror", every=7),
    ], seed=2026)
    with fault_plan(plan):
        chaos_session, chaos_pred, chaos_s = _fit_predict(
            config.with_options(task_retries=3), cohort)
    stats = chaos_session.store_stats()
    retries = chaos_session.runtime.session_trace.total_retries

    # --- the acceptance contract -------------------------------------
    assert np.array_equal(chaos_pred, clean_pred), \
        "chaos run diverged from the fault-free run"
    task_faults = plan.fired_for(SITE_TASK_BODY)
    io_faults = plan.fired_for(SITE_SEGMENT_READ)
    assert task_faults >= 1 and io_faults >= 1, \
        "the chaos schedule must actually inject faults at both layers"
    assert stats.io_retries >= io_faults

    payload = {
        "n": N,
        "snps": SNPS,
        "tile_size": TILE,
        "plan": config.precision_plan.label(),
        "budget_bytes": BUDGET,
        "task_retries": 3,
        "injected_task_faults": task_faults,
        "injected_io_faults": io_faults,
        "task_retries_taken": retries,
        "store_io_retries": stats.io_retries,
        "fault_free_seconds": round(clean_s, 3),
        "chaos_seconds": round(chaos_s, 3),
        "chaos_overhead_x": round(chaos_s / clean_s, 3),
        "bitwise_identical": True,
    }
    write_bench_json(_RESULT_FILE, payload)

    print(f"\n=== Chaos-injected KRR fit+predict (n={N}, tile={TILE}) ===")
    print(f"injected faults        : {task_faults} task, {io_faults} I/O")
    print(f"task retries taken     : {retries}")
    print(f"store I/O retries      : {stats.io_retries}")
    print(f"wall clock             : {clean_s:.2f} s fault-free vs "
          f"{chaos_s:.2f} s chaos ({chaos_s / clean_s:.2f}x)"
          f"  (result file {_RESULT_FILE.name})")
