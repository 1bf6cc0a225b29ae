"""Out-of-core KRR benchmark: budgeted vs unbudgeted end-to-end fit.

Runs the full Build → Factor → Solve → Predict pipeline at n=4096
twice — fully resident, and with the session's tile store budgeted at
25% of the tile-mosaic footprint — asserts the acceptance contract
(**bitwise identical results, peak resident tile bytes under budget**)
and writes ``BENCH_oocore.json`` at the repository root so future PRs
can track the out-of-core overhead.
"""

import time
from pathlib import Path

import numpy as np

from conftest import write_bench_json

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.session import KRRSession

N = 4096
SNPS = 256
TILE = 256
BUDGET_FRACTION = 0.25
_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_FILE = _REPO_ROOT / "BENCH_oocore.json"


def _cohort(seed: int = 2025):
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


def test_bench_out_of_core_budgeted_fit():
    cohort = _cohort()
    # workers=4: the peak<=budget contract requires the pinned working
    # set (<= workers x 3 tiles, 256 KiB each at tile 256/fp32) to fit
    # the 25% budget; both runs use the same pool for a fair wall-clock
    # comparison
    base = KRRConfig(tile_size=TILE, workers=4,
                     precision_plan=PrecisionPlan.adaptive_fp16())

    resident_session, resident_pred, resident_s = _fit_predict(base, cohort)
    mosaic = resident_session.kernel_.nbytes()
    dense_fp64 = N * N * 8
    budget = int(mosaic * BUDGET_FRACTION)

    oo_session, oo_pred, oo_s = _fit_predict(
        base.with_options(store_budget_bytes=budget), cohort)
    stats = oo_session.store_stats()

    # --- the acceptance contract -------------------------------------
    bitwise = (np.array_equal(oo_pred, resident_pred)
               and np.array_equal(oo_session.weights_,
                                  resident_session.weights_))
    assert bitwise, "budgeted run diverged from the fully-resident run"
    assert stats.peak_resident_bytes <= budget, (
        f"peak resident {stats.peak_resident_bytes} B exceeded the "
        f"{budget} B budget")
    assert stats.spills > 0 and stats.reloads > 0, (
        "a 25% budget must actually exercise the spill/reload paths")

    payload = {
        "n": N,
        "snps": SNPS,
        "tile_size": TILE,
        "plan": base.precision_plan.label(),
        "dense_fp64_bytes": dense_fp64,
        "mosaic_bytes": mosaic,
        "budget_bytes": budget,
        "budget_fraction_of_mosaic": BUDGET_FRACTION,
        "unbudgeted_seconds": round(resident_s, 3),
        "budgeted_seconds": round(oo_s, 3),
        "budgeted_overhead_x": round(oo_s / resident_s, 3),
        "store_stats": stats.to_dict(),
        "bitwise_identical": True,
        "peak_under_budget": True,
    }
    write_bench_json(_RESULT_FILE, payload)

    print(f"\n=== Out-of-core KRR fit+predict (n={N}, tile={TILE}) ===")
    print(f"dense FP64 kernel      : {dense_fp64 / (1 << 20):9.1f} MiB")
    print(f"tile-mosaic footprint  : {mosaic / (1 << 20):9.1f} MiB")
    print(f"store budget (25%)     : {budget / (1 << 20):9.1f} MiB")
    print(f"peak resident          : "
          f"{stats.peak_resident_bytes / (1 << 20):9.1f} MiB")
    print(f"spills / reloads       : {stats.spills} / {stats.reloads} "
          f"({stats.bytes_spilled / (1 << 20):.1f} MiB out, "
          f"{stats.bytes_reloaded / (1 << 20):.1f} MiB in, "
          f"{stats.prefetches} prefetched)")
    print(f"wall clock             : {resident_s:.2f} s resident vs "
          f"{oo_s:.2f} s budgeted ({oo_s / resident_s:.2f}x)"
          f"  (result file {_RESULT_FILE.name})")
