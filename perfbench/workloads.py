"""The benchmark's workloads.

Every workload reports the same end-to-end metrics (:data:`E2E_UNITS`);
what ``op_s`` times depends on the workload's unit of work:

==============  ====================================================
workload        ``op_s`` is the median of
==============  ====================================================
``fit-tall``    ``KRRSession.fit`` (Build + Associate), resident
``fit-budget``  ``KRRSession.fit`` under a store budget, processes
``sweep-wide``  ``grid_search_cv(..., solver="cg")``
``serve-open``  one served request, from its due time to its result
==============  ====================================================

``rows_per_s`` is ``KRRSession.predict`` throughput on the test rows,
from the median predict time (on ``sweep-wide`` of the final fit on all
training rows at the grid's reference point, on ``serve-open`` of the
served model);
``pred_rel_err`` and ``solve_rel_residual`` measure that model against
the dense fp64 reference (:mod:`perfbench.reference`).
``peak_rss_mib`` is read after a fixed amount of work (two fits or
sweeps, or the first open-loop round), before the reference allocates
its dense arrays.

Each runner returns an :class:`Outcome`: the end-to-end metrics, the
per-layer metrics of the traced run (``trace=True``), the workload's
own metrics under the names of the project's benchmark plan
(``fit_s``, ``sweep_s``, ``serve_p99_ms``, ...), and the correctness
checks with the attempted/failed operation counts.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from perfbench import reference, tracing
from perfbench.inputs import Cohort, make_cohort

__all__ = ["WORKLOADS", "E2E_UNITS", "PER_LAYER_UNITS", "Outcome", "run"]

#: Set-ups timed per run; ``setup_s`` adds their median to the import.
SETUP_REPS = 5
#: Timed predicts of the test rows per fit or sweep, and after the
#: timed loop of the fit workloads.  They are spread over the run so
#: that ``rows_per_s`` sees the same drift of the host's speed as op_s.
PREDICTS_PER_FIT = 3
PREDICTS_PER_SWEEP = 8
PREDICT_REPS = 10
#: serve-open alternates this many open-loop rounds with solo predicts,
#: which take ``PREDICT_SHARE`` of the run, for the same reason.
SERVE_ROUNDS = 4
PREDICT_SHARE = 0.25
#: A timed loop whose operations keep failing stops after this long.
_GIVE_UP_S = 60.0


@dataclass(frozen=True)
class Workload:
    """Sizes and knobs of one workload (``BENCHMARK.json`` says why)."""

    name: str
    n_train: int
    n_snps: int
    n_phenotypes: int
    n_test: int
    #: store residency budget (fit-budget)
    budget_bytes: int | None = None
    #: open-loop request rate and cohort rows (serve-open)
    rate_per_s: float = 0.0
    request_rows: int = 64
    #: (alphas, gammas, folds) of the sweep, and the training rows it
    #: cross-validates on (sweep-wide; the final fit uses all of them)
    grid: tuple = ((), (), 0)
    cv_rows: int = 0


WORKLOADS = {
    "fit-tall": Workload(
        "fit-tall",
        n_train=1536, n_snps=512, n_phenotypes=4, n_test=512),
    "sweep-wide": Workload(
        "sweep-wide",
        n_train=1024, n_snps=4096, n_phenotypes=4, n_test=512,
        grid=((0.1, 0.3, 1.0, 3.0), (0.005, 0.02), 3), cv_rows=512),
    "serve-open": Workload(
        "serve-open",
        n_train=1024, n_snps=2048, n_phenotypes=4, n_test=1024,
        rate_per_s=40.0),
    "fit-budget": Workload(
        "fit-budget",
        n_train=640, n_snps=512, n_phenotypes=4, n_test=512,
        budget_bytes=256 * 1024),
}

#: Workload sizes for the benchmark's own smoke tests (``--tiny``).
TINY = {
    "fit-tall": dict(n_train=192, n_snps=64, n_phenotypes=2, n_test=64),
    "sweep-wide": dict(n_train=192, n_snps=96, n_phenotypes=2, n_test=64,
                       grid=((0.3, 1.0), (0.01,), 2), cv_rows=128),
    "serve-open": dict(n_train=192, n_snps=64, n_phenotypes=2, n_test=128,
                       rate_per_s=20.0),
    "fit-budget": dict(n_train=256, n_snps=64, n_phenotypes=2, n_test=64,
                       budget_bytes=256 * 1024),
}

E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "rows_per_s": "rows/s",
    "pred_rel_err": "1",
    "solve_rel_residual": "1",
    "peak_rss_mib": "MiB",
}

_PHASES = ("build", "associate", "predict", "serve")
_TILE_PRECISIONS = ("fp64", "fp32", "fp16", "bf16", "fp8")

PER_LAYER_UNITS = {
    "runtime.tasks": "count",
    **{f"runtime.tasks.{p}": "count" for p in _PHASES},
    "runtime.insert_s": "s",
    "runtime.run_s": "s",
    "runtime.task_busy_s": "s",
    "runtime.idle_s": "s",
    "runtime.us_per_task": "us",
    "runtime.retries": "count",
    "linalg.cholesky_s": "s",
    "linalg.factorizations": "count",
    "linalg.cholesky_gflops": "GFLOP/s",
    "linalg.solve_s": "s",
    "linalg.cg_s": "s",
    "linalg.cg_iters": "count",
    "linalg.cg_fallbacks": "count",
    "distance.build_s": "s",
    "distance.cross_s": "s",
    "distance.build_gflops": "GFLOP/s",
    "distance.tasks": "count",
    "precision.quantize_calls": "count",
    "precision.quantize_s": "s",
    "precision.gemm_calls": "count",
    "precision.gemm_s": "s",
    "tiles.mosaic_bytes": "bytes",
    **{f"tiles.count.{p}": "count" for p in _TILE_PRECISIONS},
    "store.spills": "count",
    "store.reloads": "count",
    "store.bytes_spilled": "bytes",
    "store.bytes_reloaded": "bytes",
    "store.peak_resident_bytes": "bytes",
    "store.io_retries": "count",
    "store.pin_s": "s",
    "store.prefetch_s": "s",
    "parallel.pool_start_s": "s",
    "parallel.respawns": "count",
    "parallel.dispatch_overhead_s": "s",
    "serve.queue_ms_p50": "ms",
    "serve.compute_ms_p50": "ms",
    "serve.p99_ms": "ms",
    "serve.batches": "count",
    "serve.mean_coalesced": "1",
    "serve.shed": "count",
    "serve.expired": "count",
    "serve.generator_late_ms": "ms",
    **{f"gwas.phase_s.{p}": "s"
       for p in ("build", "factor", "solve", "predict")},
    "gwas.regularization_boosts": "count",
    "gwas.coverage": "1",
    "gwas.inner_coverage": "1",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "baseline.dense_fit_s": "s",
    "baseline.potrf_s": "s",
    "baseline.fit_vs_dense_x": "x",
    "baseline.cholesky_vs_potrf_x": "x",
}


# ----------------------------------------------------------------------
# run context and outcome
# ----------------------------------------------------------------------
@dataclass
class Context:
    workload: Workload
    cohort: Cohort
    seed: int
    seconds: float
    trace: bool
    workers: int
    work_dir: Path


@dataclass
class Outcome:
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: the workload's metrics under the benchmark plan's names
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: tracing.Tracer | None = None
    #: the per-operation times whose median is ``op_s``
    op_samples: list[float] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1

    def timed(self, fn, *args, **kwargs):
        """Run and time one operation, counting it.

        Returns ``(result, seconds)``, or ``None`` when it raised.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted into failed_frac, run goes on
            self.failed += 1
            self.checks.append((f"{fn.__qualname__} raised", False,
                                repr(exc)))
            return None
        return result, time.perf_counter() - started

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _median_setup(make, close):
    """Median wall time of ``SETUP_REPS`` set-ups; keeps the last one."""
    times, obj = [], None
    for _ in range(SETUP_REPS):
        if obj is not None:
            close(obj)
        started = time.perf_counter()
        obj = make()
        times.append(time.perf_counter() - started)
    return statistics.median(times), obj


def _own_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_mib(own_kib: int | None) -> float:
    """``own_kib`` plus the peak RSS of the largest exited child process.

    The caller reads its own peak after a fixed amount of work (two
    units), so the figure does not depend on how many repetitions the
    run's duration allowed.
    """
    if own_kib is None:  # fewer than two units of work succeeded
        own_kib = _own_peak_rss_kib()
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + children) / 1024.0


def _close_session(session) -> None:
    session.runtime.close()
    if session.store is not None:
        session.store.close()


def pred_tolerance(plan) -> float:
    """Bound on ``pred_rel_err`` under the (adaptive) precision plan.

    The plan keeps each tile's storage error within ``plan.accuracy`` of
    the kernel norm; the solve amplifies it by up to the regularized
    kernel's condition number, which the workloads' ``alpha`` keeps
    small.  The factor 10 leaves room for that amplification.
    """
    return 10.0 * plan.accuracy


def _accuracy(out: Outcome, model_state, predictions, dense,
              c: Cohort) -> None:
    """pred_rel_err / solve_rel_residual / test MSPE and the gate."""
    _, alpha, weights, plan = model_state
    err = reference.relative_error(predictions, dense.predictions)
    out.e2e["pred_rel_err"] = err
    out.e2e["solve_rel_residual"] = reference.solve_residual(
        dense.kernel, alpha, weights, c.train_phenotypes)
    out.named["test_mspe"] = (
        float(np.mean((predictions - c.test_phenotypes) ** 2)), "1")
    tol = pred_tolerance(plan)
    out.check("pred_rel_err within the plan tolerance", err <= tol,
              f"{err:.3g} <= {tol:.3g}")


def _tile_counts(factor) -> dict[str, float]:
    counts = {f"tiles.count.{p}": 0.0 for p in _TILE_PRECISIONS}
    grid = factor.precision_grid()
    for i in range(grid.shape[0]):
        for j in range(i + 1):
            name = grid[i, j].value
            key = "fp8" if name.startswith("fp8") else name
            if f"tiles.count.{key}" in counts:
                counts[f"tiles.count.{key}"] += 1
    counts["tiles.mosaic_bytes"] = float(factor.nbytes())
    return counts


def _layer_metrics(out: Outcome, tracer: tracing.Tracer,
                   windows: list[tuple[float, float]], work_tid: int,
                   wall_untraced: float) -> None:
    """Fill ``out.layers`` from the traced run's spans and counters."""
    lay = {name: 0.0 for name in PER_LAYER_UNITS}
    cnt = tracer.counters
    for key, value in cnt.items():
        if key in lay:
            lay[key] = value
    lay["runtime.insert_s"] = tracer.seconds("runtime.insert")
    lay["runtime.run_s"] = tracer.seconds("runtime.run")
    tasks = cnt.get("runtime.tasks", 0.0)
    if tasks:
        lay["runtime.us_per_task"] = (
            1e6 * (lay["runtime.insert_s"] + lay["runtime.run_s"]) / tasks)
    lay["linalg.cholesky_s"] = tracer.seconds("linalg.cholesky")
    if lay["linalg.cholesky_s"]:
        lay["linalg.cholesky_gflops"] = (
            cnt.get("linalg.cholesky_flops", 0.0)
            / lay["linalg.cholesky_s"] / 1e9)
    lay["linalg.solve_s"] = tracer.seconds("linalg.solve")
    lay["linalg.cg_s"] = tracer.seconds("linalg.cg")
    lay["distance.build_s"] = tracer.seconds("distance.build")
    lay["distance.cross_s"] = tracer.seconds("distance.cross")
    if lay["distance.build_s"]:
        lay["distance.build_gflops"] = (
            cnt.get("distance.build_flops", 0.0)
            / lay["distance.build_s"] / 1e9)
    for kind in ("quantize", "gemm"):
        lay[f"precision.{kind}_calls"] = float(
            tracer.calls(f"precision.{kind}"))
        lay[f"precision.{kind}_s"] = tracer.seconds(f"precision.{kind}")
    lay["store.pin_s"] = tracer.seconds("store.pin")
    lay["store.prefetch_s"] = tracer.seconds("store.prefetch")
    lay["parallel.pool_start_s"] = tracer.seconds("parallel.pool_start")
    for layer, secs in tracer.layer_self_s().items():
        if f"{layer}.self_s" in lay:
            lay[f"{layer}.self_s"] = secs
    wall = sum(hi - lo for lo, hi in windows)
    lay["gwas.coverage"] = tracer.covered_s(work_tid, windows) / wall
    lay["gwas.inner_coverage"] = (
        tracer.inner_covered_s(work_tid, windows) / wall)
    lay["trace.wall_s"] = wall
    lay["trace.overhead_s"] = wall - wall_untraced
    lay["trace.spans"] = float(len(tracer.spans))
    out.layers.update(lay)
    out.tracer = tracer


def _session_layers(out: Outcome, session) -> None:
    for key in ("build", "factor", "solve", "predict"):
        out.layers[f"gwas.phase_s.{key}"] = session.phase_seconds.get(key, 0.0)
    out.layers["gwas.regularization_boosts"] = float(
        session.regularization_boosts_)
    out.layers.update(_tile_counts(session.factorization_.factor))


def _baseline_layers(out: Outcome, dense, fit_s: float,
                     factor_s: float) -> None:
    out.layers["baseline.dense_fit_s"] = dense.fit_s
    out.layers["baseline.potrf_s"] = dense.potrf_s
    out.layers["baseline.fit_vs_dense_x"] = fit_s / dense.fit_s
    out.layers["baseline.cholesky_vs_potrf_x"] = factor_s / dense.potrf_s


def _predicts(out: Outcome, session, genotypes, times: list, first=None,
              reps: int = 0, seconds: float = 0.0):
    """At least ``reps`` timed predicts, repeated for at least
    ``seconds``; appends their times to ``times``, checks them against
    ``first`` and returns the first predictions."""
    started, done = time.perf_counter(), 0
    while done < reps or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > _GIVE_UP_S:
            break  # repeated failures must not hang the run
        done += 1
        result = out.timed(session.predict, genotypes)
        if result is None:
            continue
        predictions, secs = result
        times.append(secs)
        if first is None:
            first = predictions
        else:
            out.check("predict is bitwise repeatable",
                      np.array_equal(first, predictions))
    return first


def _rows_per_s(out: Outcome, rows: int, times: list) -> None:
    """Predict throughput: rows over the median predict time."""
    if times:
        out.e2e["rows_per_s"] = rows / statistics.median(times)
        out.named["predict_rows_per_s"] = (out.e2e["rows_per_s"], "rows/s")


# ----------------------------------------------------------------------
# fit-tall / fit-budget
# ----------------------------------------------------------------------
def _fit_config(ctx: Context):
    from repro import KRRConfig

    w = ctx.workload
    if w.budget_bytes is None:
        return KRRConfig(workers=ctx.workers, execution="threaded")
    return KRRConfig(workers=ctx.workers, execution="process",
                     store_budget_bytes=w.budget_bytes)


def _new_fit_session(config):
    from repro import KRRSession
    from repro.parallel.executor import ensure_pool

    session = KRRSession(config)
    if session.runtime.execution == "process":
        ensure_pool(session.runtime.scheduler)  # pool spawn is set-up
    return session


def _fit_once(out: Outcome, session, c: Cohort, predicts: int = 1):
    """One timed fit and ``predicts`` timed predicts;
    ``(fit_s, [predict_s, ...], predictions)``."""
    fitted = out.timed(session.fit, c.train_genotypes, c.train_phenotypes)
    if fitted is None:
        return None
    times = []
    first = _predicts(out, session, c.test_genotypes, times, reps=predicts)
    if first is None:
        return None
    return fitted[1], times, first


def run_fit(ctx: Context) -> Outcome:
    out = Outcome()
    c = ctx.cohort
    config = _fit_config(ctx)
    budget = ctx.workload.budget_bytes
    setup_s, session = _median_setup(lambda: _new_fit_session(config),
                                     _close_session)
    out.e2e["setup_s"] = setup_s

    # the traced run makes two untraced fits: a warm-up and the
    # reference its tracing overhead is measured against
    fit_times, predict_times, walls, first = [], [], [], None
    own_rss = None
    started = time.perf_counter()
    while len(fit_times) < 2 or (
            not ctx.trace and time.perf_counter() - started < ctx.seconds):
        if time.perf_counter() - started > _GIVE_UP_S:
            break  # repeated failures must not hang the run
        result = _fit_once(out, session, c, PREDICTS_PER_FIT)
        if result is None:
            continue
        fit_s, predict_s, predictions = result
        fit_times.append(fit_s)
        if len(fit_times) == 2:
            own_rss = _own_peak_rss_kib()
        predict_times.extend(predict_s)
        walls.append(fit_s + predict_s[0])
        if first is None:
            first = predictions
        else:
            out.check("same-seed fits give bitwise-equal predictions",
                      np.array_equal(first, predictions))
    if first is None:
        _close_session(session)
        return out
    factor_s = session.phase_seconds.get("factor", 0.0)
    _predicts(out, session, c.test_genotypes, predict_times, first,
              reps=PREDICT_REPS)
    _rows_per_s(out, c.test_genotypes.shape[0], predict_times)
    if budget is not None:
        stats = session.store_stats()
        out.check("store peak resident bytes within the budget",
                  stats.peak_resident_bytes <= budget,
                  f"{stats.peak_resident_bytes} <= {budget}")
    state = (session.gamma_, session.alpha_, session.weights_,
             session.config.precision_plan)

    if ctx.trace:
        _close_session(session)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            session = _new_fit_session(config)  # pool start is traced
            store_before = session.store_stats()
            t0 = time.perf_counter()
            result = _fit_once(out, session, c)
            t1 = time.perf_counter()
        finally:
            uninstall()
        if result is not None:
            out.check("traced fit gives bitwise-equal predictions",
                      np.array_equal(first, result[2]))
            _layer_metrics(out, tracer, [(t0, t1)],
                           threading.get_native_id(), walls[-1])
            _session_layers(out, session)
            if budget is not None:
                _store_layers(out, store_before, session.store_stats())

    _close_session(session)  # joins the worker processes
    out.e2e["peak_rss_mib"] = _peak_rss_mib(own_rss)
    out.e2e["op_s"] = statistics.median(fit_times)
    out.named["fit_s"] = (out.e2e["op_s"], "s")
    out.op_samples = fit_times
    dense = reference.dense_reference(c.train_genotypes, c.train_phenotypes,
                                      c.test_genotypes, state[0], state[1])
    _accuracy(out, state, first, dense, c)
    if ctx.trace:
        _baseline_layers(out, dense, out.e2e["op_s"], factor_s)
    return out


def _store_layers(out: Outcome, before, after) -> None:
    for key in ("spills", "reloads", "bytes_spilled", "bytes_reloaded",
                "io_retries"):
        out.layers[f"store.{key}"] = float(
            getattr(after, key) - getattr(before, key))
    out.layers["store.peak_resident_bytes"] = float(after.peak_resident_bytes)


# ----------------------------------------------------------------------
# sweep-wide
# ----------------------------------------------------------------------
def run_sweep(ctx: Context) -> Outcome:
    from repro import KRRConfig, KRRSession
    import repro.gwas.cv as cv

    out = Outcome()
    c = ctx.cohort
    alphas, gammas, folds = ctx.workload.grid
    grid_ops = folds * len(alphas) * len(gammas)

    # grid_search_cv builds its own sessions: set-up is the import plus
    # the configuration and one session
    config = KRRConfig(workers=ctx.workers, execution="threaded",
                       solver="cg")
    setup_s, probe = _median_setup(lambda: KRRSession(config),
                                   _close_session)
    _close_session(probe)
    out.e2e["setup_s"] = setup_s

    rows = ctx.workload.cv_rows

    def sweep():
        return cv.grid_search_cv(
            c.train_genotypes[:rows], c.train_phenotypes[:rows], alphas=alphas,
            gammas=gammas, n_folds=folds, base_config=config,
            seed=ctx.seed, workers=ctx.workers, solver="cg")

    # the fit on all training rows, at the grid's reference point (its
    # middle alpha is the one the CG sweep factors), gives the accuracy
    # and the predict throughput.  The selected point would do as well,
    # but it flips between neighbours from seed to seed when their
    # scores are close, and the metrics with it.
    reference_alpha = sorted(alphas)[(len(alphas) - 1) // 2]
    session = KRRSession(config.with_options(alpha=reference_alpha,
                                             gamma=gammas[0]))
    fitted = out.timed(session.fit, c.train_genotypes,
                       c.train_phenotypes)
    if fitted is None:
        _close_session(session)
        return out

    sweep_times, predict_times, first, own_rss = [], [], None, None
    predictions = None
    started = time.perf_counter()
    while len(sweep_times) < 2 or (
            not ctx.trace and time.perf_counter() - started < ctx.seconds):
        if time.perf_counter() - started > _GIVE_UP_S:
            break  # repeated failures must not hang the run
        out.attempted += grid_ops - 1  # one per (fold, gamma, alpha) solve
        result = out.timed(sweep)
        if result is None:
            out.failed += grid_ops - 1
            continue
        res, secs = result
        sweep_times.append(secs)
        if len(sweep_times) == 2:
            own_rss = _own_peak_rss_kib()
        out.failed += res.cg_fallbacks
        if first is None:
            first = res
        else:
            out.check("same-seed sweeps give bitwise-equal scores",
                      res.scores == first.scores)
        predictions = _predicts(out, session, c.test_genotypes,
                                predict_times, predictions,
                                reps=PREDICTS_PER_SWEEP)
    state = (session.gamma_, session.alpha_, session.weights_,
             session.config.precision_plan)
    _close_session(session)
    if first is None or predictions is None:
        return out

    if ctx.trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            t0 = time.perf_counter()
            result = out.timed(sweep)
            t1 = time.perf_counter()
        finally:
            uninstall()
        if result is not None:
            traced = result[0]
            out.check("traced sweep gives bitwise-equal scores",
                      traced.scores == first.scores)
            _layer_metrics(out, tracer, [(t0, t1)],
                           threading.get_native_id(), sweep_times[-1])
            for key in ("build", "factor", "solve", "predict"):
                out.layers[f"gwas.phase_s.{key}"] = (
                    traced.phase_seconds.get(key, 0.0))

    out.e2e["op_s"] = statistics.median(sweep_times)
    out.op_samples = sweep_times
    out.named["sweep_s"] = (out.e2e["op_s"], "s")
    out.named["cv_best_mspe"] = (first.best_score, "1")
    out.named["cv_best_alpha"] = (first.best_alpha, "1")
    _rows_per_s(out, c.test_genotypes.shape[0], predict_times)
    out.e2e["peak_rss_mib"] = _peak_rss_mib(own_rss)
    out.named["fit_s"] = (fitted[1], "s")
    dense = reference.dense_reference(c.train_genotypes, c.train_phenotypes,
                                      c.test_genotypes, state[0], state[1])
    _accuracy(out, state, predictions, dense, c)
    if ctx.trace:
        _session_layers(out, session)
        _baseline_layers(out, dense, fitted[1],
                         session.phase_seconds.get("factor", 0.0))
    return out


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
_MISSING_S = 3600.0  # latency charged to a failed or refused request


def _open_loop(out: Outcome, service, cohorts, rng, rate: float,
               seconds: float):
    """Submit on a seeded Poisson schedule; per-request records.

    Returns ``(latencies_s, results, lateness_s, wall_s)``; a failed or
    refused request has latency :data:`_MISSING_S` and result ``None``.
    """
    from repro.resilience.errors import ServiceOverloadedError

    n = max(1, int(round(rate * seconds)))
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    picks = rng.integers(0, len(cohorts), n)
    # a future wakes its waiters before it runs its done-callbacks, so
    # the collector waits on the event the callback sets, not on result()
    done_at = [None] * n
    finished = [threading.Event() for _ in range(n)]
    futures, lateness = [], []

    def recorder(i):
        def record(_future):
            done_at[i] = time.perf_counter()
            finished[i].set()
        return record

    t0 = time.perf_counter()
    for i in range(n):
        target = t0 + due[i]
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        lateness.append(max(0.0, time.perf_counter() - target))
        try:
            future = service.submit(cohorts[picks[i]], model="gwas")
        except ServiceOverloadedError:
            futures.append(None)
            continue
        future.add_done_callback(recorder(i))
        futures.append(future)

    latencies, results = [], []
    give_up = time.perf_counter() + _GIVE_UP_S
    for i, future in enumerate(futures):
        out.attempted += 1
        result = None
        if future is not None and finished[i].wait(
                max(0.0, give_up - time.perf_counter())):
            try:
                result = future.result(timeout=0)
            except Exception:  # a failed request: counted, run goes on
                result = None
        if result is None:
            out.failed += 1
            latencies.append(_MISSING_S)
        else:
            latencies.append(done_at[i] - (t0 + due[i]))
        results.append((picks[i], result))
    wall = max((d for d in done_at if d is not None), default=t0) - t0
    return np.array(latencies), results, np.array(lateness), wall


def run_serve(ctx: Context) -> Outcome:
    from repro import KRRConfig, KRRSession
    from repro.gwas.config import ServeConfig
    from repro.gwas.model import FittedModel
    from repro.serve import ModelRegistry, PredictionService

    out = Outcome()
    c = ctx.cohort
    w = ctx.workload
    config = KRRConfig(workers=ctx.workers, execution="threaded")

    # preparation (not set-up): fit the served model twice and save it
    fits, fitted = [], None
    for _ in range(2):
        session = KRRSession(config)
        result = out.timed(session.fit, c.train_genotypes,
                           c.train_phenotypes)
        _close_session(session)
        if result is None:
            continue
        fits.append(result[1])
        if fitted is None:
            fitted = session
        else:
            out.check("same-seed fits give bitwise-equal weights",
                      np.array_equal(fitted.weights_, session.weights_))
    if fitted is None:
        return out
    path = fitted.export_model().save(ctx.work_dir / "model.npz")

    def make():
        model = FittedModel.load(path)
        registry = ModelRegistry()
        registry.register("gwas", model)
        return model, PredictionService(registry, ServeConfig(),
                                        workers=ctx.workers,
                                        execution="threaded")

    setup_s, (model, service) = _median_setup(
        make, lambda made: made[1].close())
    out.e2e["setup_s"] = setup_s

    rows = w.request_rows
    cohorts = [c.test_genotypes[i:i + rows]
               for i in range(0, c.test_genotypes.shape[0] - rows + 1, rows)]
    rng = np.random.default_rng([ctx.seed, 1])
    solo = KRRSession.from_model(model, workers=ctx.workers,
                                 execution="threaded")
    # the first cohort through a fresh service pays one-time costs
    service.predict(cohorts[0], model="gwas")
    stats_before = service.stats
    # open-loop rounds alternate with the solo predicts of rows_per_s,
    # which run while the service is idle
    rounds = 1 if ctx.trace else SERVE_ROUNDS
    seconds = ctx.seconds * (1.0 - PREDICT_SHARE) / rounds
    if ctx.trace:
        seconds /= 2
    latencies, results, lateness, wall = [], [], [], 0.0
    predict_times, predictions, own_rss = [], None, None
    for _ in range(rounds):
        r_lat, r_results, r_late, r_wall = _open_loop(
            out, service, cohorts, rng, w.rate_per_s, seconds)
        latencies.extend(r_lat)
        results.extend(r_results)
        lateness.extend(r_late)
        wall += r_wall
        if own_rss is None:
            # the serving work only: the RSS of a session grows with
            # every predict it makes, so the solo predicts would set it
            own_rss = _own_peak_rss_kib()
        predictions = _predicts(
            out, solo, c.test_genotypes, predict_times, predictions,
            reps=1, seconds=ctx.seconds * PREDICT_SHARE / rounds)

    if ctx.trace:
        untraced_compute = service.stats.compute_s - stats_before.compute_s
        untraced_batches = service.stats.batches - stats_before.batches
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            before = service.stats
            t0 = time.perf_counter()
            t_lat, t_results, t_late, _ = _open_loop(
                out, service, cohorts, rng, w.rate_per_s, seconds)
            t1 = time.perf_counter()
            after = service.stats
        finally:
            uninstall()
        served = [r for _, r in t_results if r is not None]
        batches = after.batches - before.batches
        compute = after.compute_s - before.compute_s
        dispatcher = next((tid for tid, name in tracer.thread_names.items()
                           if name == "repro-serve-dispatcher"), -1)
        _layer_metrics(out, tracer, [(t0, t1)], dispatcher, 0.0)
        # the wall to account for is the dispatcher's busy time, and
        # the overhead is measured against the untraced busy time of
        # as many micro-batches
        untraced = untraced_compute / max(1, untraced_batches) * batches
        for key, covered in (("gwas.coverage", tracer.covered_s),
                             ("gwas.inner_coverage", tracer.inner_covered_s)):
            out.layers[key] = (covered(dispatcher, [(t0, t1)]) / compute
                               if compute else 0.0)
        out.layers["trace.wall_s"] = compute
        out.layers["trace.overhead_s"] = compute - untraced
        out.layers["serve.queue_ms_p50"] = 1e3 * float(
            np.median([r.queue_s for r in served]))
        out.layers["serve.compute_ms_p50"] = 1e3 * float(
            np.median([r.compute_s for r in served]))
        out.layers["serve.p99_ms"] = 1e3 * float(np.percentile(t_lat, 99))
        out.layers["serve.batches"] = float(batches)
        out.layers["serve.mean_coalesced"] = (
            (after.requests - before.requests) / batches if batches else 0.0)
        out.layers["serve.shed"] = float(after.shed - before.shed)
        out.layers["serve.expired"] = float(after.expired - before.expired)
        out.layers["serve.generator_late_ms"] = 1e3 * float(t_late.max())
        out.layers["gwas.phase_s.predict"] = tracer.seconds("gwas.predict")
        out.layers.update(_tile_counts(model.factor))

    service.close()

    sample = np.random.default_rng([ctx.seed, 2]).choice(
        len(results), size=min(8, len(results)), replace=False)
    for i in sample:
        pick, result = results[i]
        if result is not None:
            out.check("served request is bitwise-equal to solo predict",
                      np.array_equal(result.predictions,
                                     solo.predict(cohorts[pick])))
    _close_session(solo)
    _rows_per_s(out, c.test_genotypes.shape[0], predict_times)
    out.e2e["peak_rss_mib"] = _peak_rss_mib(own_rss)

    completed = sum(r.rows for _, r in results if r is not None)
    out.e2e["op_s"] = float(np.median(latencies))
    out.named["serve_p50_ms"] = (1e3 * out.e2e["op_s"], "ms")
    out.named["serve_p99_ms"] = (1e3 * float(np.percentile(latencies, 99)),
                                 "ms")
    out.named["serve_rows_per_s"] = (completed / wall if wall else 0.0,
                                     "rows/s")
    out.named["serve_requests"] = (float(len(latencies)), "count")
    out.named["serve_generator_late_ms_max"] = (
        1e3 * float(max(lateness, default=0.0)), "ms")
    out.named["fit_s"] = (statistics.median(fits), "s")
    dense = reference.dense_reference(c.train_genotypes, c.train_phenotypes,
                                      c.test_genotypes, model.gamma,
                                      model.alpha)
    if predictions is not None:
        state = (model.gamma, model.alpha, model.weights,
                 model.config.precision_plan)
        _accuracy(out, state, predictions, dense, c)
    if ctx.trace:
        # the served model's fit against the dense fit of the same data
        _baseline_layers(out, dense, statistics.median(fits),
                         fitted.phase_seconds.get("factor", 0.0))
    return out


RUNNERS = {
    "fit-tall": run_fit,
    "fit-budget": run_fit,
    "sweep-wide": run_sweep,
    "serve-open": run_serve,
}


def workload(name: str, tiny: bool = False) -> Workload:
    base = WORKLOADS[name]
    return replace(base, **TINY[name]) if tiny else base


def cohort_for(spec: Workload, seed: int) -> Cohort:
    return make_cohort(seed, spec.n_train, spec.n_snps, spec.n_phenotypes,
                       spec.n_test)


def run(ctx: Context) -> Outcome:
    return RUNNERS[ctx.workload.name](ctx)
