"""Hyperparameter-sweep benchmark: factor-once CG vs per-α direct CV.

Runs the same K-fold (α, γ) grid search at n=2048 on both solver
routes — direct (one O(n³/3) tiled Cholesky per α) and CG (one
factorization per (fold, γ), preconditioned-CG solves for every other
α) — on a single core, and asserts the acceptance contract: **≥2x
sweep wall-clock speedup, identical (α, γ) selection, per-fold MSPEs
within rtol 1e-6, factorization count dropping from A to 1 per
(fold, γ)**.  Writes ``BENCH_cv.json`` at the repository root so
future PRs can track the sweep cost model.

Each route is timed twice (interleaved) and scored by its *minimum* —
the standard estimator of the noise-free cost on a shared box, where
either route can be handed a 20% slowdown by scheduler jitter alone.
"""

import time
from pathlib import Path

import numpy as np

from conftest import write_bench_json

from repro.gwas.config import KRRConfig, PrecisionPlan
from repro.gwas.cv import grid_search_cv

N = 2048
SNPS = 64
TILE = 256
ALPHAS = (0.5, 0.7, 1.0, 1.4, 2.0, 2.8)
GAMMAS = (0.01,)
FOLDS = 6
REPS = 3
_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_FILE = _REPO_ROOT / "BENCH_cv.json"


def _cohort(seed: int = 2025):
    rng = np.random.default_rng(seed)
    genotypes = rng.integers(0, 3, size=(N, SNPS)).astype(np.float64)
    phenotypes = (genotypes[:, :8] @ rng.standard_normal(8)
                  + 0.5 * rng.standard_normal(N))
    return genotypes, phenotypes


def _sweep(solver: str, cohort):
    genotypes, phenotypes = cohort
    # FP64 plan + serial/1-worker: a single-core apples-to-apples
    # measurement where both routes solve the same FP64 systems.  CG
    # stops at 1e-7 relative residual — two orders tighter than the
    # 1e-6 MSPE agreement the contract demands (measured headroom is
    # larger still: fold MSPEs of the two routes agree to ~1e-9).
    base = KRRConfig(tile_size=TILE, precision_plan=PrecisionPlan.fp64(),
                     execution="serial", workers=1, cg_tol=1e-7)
    t0 = time.perf_counter()
    result = grid_search_cv(genotypes, phenotypes, alphas=ALPHAS,
                            gammas=GAMMAS, n_folds=FOLDS, seed=0,
                            base_config=base, solver=solver)
    return result, time.perf_counter() - t0


def test_bench_factor_once_cv_sweep():
    cohort = _cohort()
    times = {"direct": [], "cg": []}
    results = {}
    for _ in range(REPS):
        for solver in ("direct", "cg"):
            result, seconds = _sweep(solver, cohort)
            times[solver].append(seconds)
            results[solver] = result
    direct, cg = results["direct"], results["cg"]
    direct_s, cg_s = min(times["direct"]), min(times["cg"])
    speedup = direct_s / cg_s
    sessions = FOLDS * len(GAMMAS)

    # --- the acceptance contract -------------------------------------
    assert (cg.best_alpha, cg.best_gamma) == \
        (direct.best_alpha, direct.best_gamma), "selection diverged"
    for key, errs in direct.fold_scores.items():
        np.testing.assert_allclose(cg.fold_scores[key], errs, rtol=1e-6)
    assert direct.factorizations == sessions * len(ALPHAS)
    assert cg.cg_fallbacks == 0
    assert cg.factorizations == sessions, (
        "the CG sweep must factor exactly once per (fold, gamma)")
    assert speedup >= 2.0, (
        f"factor-once CG sweep only {speedup:.2f}x faster than per-alpha "
        f"direct ({cg_s:.2f}s vs {direct_s:.2f}s)")

    payload = {
        "n": N,
        "snps": SNPS,
        "tile_size": TILE,
        "plan": "fp64",
        "alphas": list(ALPHAS),
        "gammas": list(GAMMAS),
        "n_folds": FOLDS,
        "reps": REPS,
        "direct_seconds": round(direct_s, 3),
        "cg_seconds": round(cg_s, 3),
        "speedup_x": round(speedup, 3),
        "direct_seconds_all": [round(s, 3) for s in times["direct"]],
        "cg_seconds_all": [round(s, 3) for s in times["cg"]],
        "direct_factorizations": direct.factorizations,
        "cg_factorizations": cg.factorizations,
        "cg_fallbacks": cg.cg_fallbacks,
        "best_alpha": cg.best_alpha,
        "best_gamma": cg.best_gamma,
        "same_selection": True,
        "fold_mspe_rtol": 1e-6,
        "direct_phase_seconds": {k: round(v, 3)
                                 for k, v in direct.phase_seconds.items()},
        "cg_phase_seconds": {k: round(v, 3)
                             for k, v in cg.phase_seconds.items()},
    }
    write_bench_json(_RESULT_FILE, payload)

    print(f"\n=== Factor-once CV sweep (n={N}, {len(ALPHAS)} alphas, "
          f"{FOLDS} folds, 1 core, best of {REPS}) ===")
    print(f"per-alpha direct : {direct_s:7.2f} s "
          f"({direct.factorizations} factorizations)")
    print(f"factor-once CG   : {cg_s:7.2f} s "
          f"({cg.factorizations} factorizations, "
          f"{cg.cg_fallbacks} fallbacks)")
    print(f"speedup          : {speedup:7.2f}x "
          f"(result file {_RESULT_FILE.name})")
    for name, result in (("direct", direct), ("cg", cg)):
        secs = result.phase_seconds
        print(f"  {name:>6} phases : " + "  ".join(
            f"{k}={secs.get(k, 0.0):.2f}s"
            for k in ("build", "factor", "solve", "predict")))
