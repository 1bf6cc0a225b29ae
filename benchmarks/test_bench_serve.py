"""Per-request vs micro-batched prediction-serving throughput.

Fits one KRR model on an n=2048 cohort, exports it as a
:class:`~repro.gwas.model.FittedModel`, and drives a
:class:`~repro.serve.PredictionService` with 8 concurrent clients in
two configurations:

* **per-request** — ``max_batch_requests=1``: every request executes
  alone, paying the full fixed cost of a predict call (train-panel
  quantization, BLAS float casts, squared norms, builder setup);
* **micro-batched** — ``max_batch_requests=8``: queued requests for
  the model coalesce into micro-batches that share one train-side
  operand context while keeping solo tile-aligned block shapes.

Asserts the micro-batched results stay bitwise equal to solo
``session.predict`` and that batching wins on throughput, then writes
``BENCH_serve.json`` at the repository root with both rates.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from conftest import run_once, write_bench_json

from repro.gwas.config import KRRConfig, PrecisionPlan, ServeConfig
from repro.gwas.session import KRRSession
from repro.serve.service import PredictionService

N, NS, NPH = 2048, 512, 4
TILE = 64
CLIENTS = 8
REQUESTS_PER_CLIENT = 4
ROWS_PER_REQUEST = 64
_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_FILE = _REPO_ROOT / "BENCH_serve.json"


def _drive(model, serve_config) -> tuple[float, list, object]:
    """Run the 8-client request storm against one service configuration."""
    rng = np.random.default_rng(99)
    cohorts = [rng.integers(0, 3, size=(ROWS_PER_REQUEST, NS)).astype(np.int8)
               for _ in range(CLIENTS * REQUESTS_PER_CLIENT)]
    barrier = threading.Barrier(CLIENTS)

    def client(worker_id: int):
        barrier.wait()
        mine = cohorts[worker_id::CLIENTS]
        return [service.predict(c, timeout=120) for c in mine]

    with PredictionService(model, config=serve_config) as service:
        t0 = time.perf_counter()
        with ThreadPoolExecutor(CLIENTS) as pool:
            per_client = list(pool.map(client, range(CLIENTS)))
        seconds = time.perf_counter() - t0
        stats = service.stats
    ordered = []
    for worker_id, batch in enumerate(per_client):
        for j, result in enumerate(batch):
            ordered.append((worker_id + j * CLIENTS, result))
    results = [r for _, r in sorted(ordered, key=lambda t: t[0])]
    return seconds, list(zip(cohorts, results)), stats


def test_bench_serve(benchmark):
    rng = np.random.default_rng(2026)
    g_train = rng.integers(0, 3, size=(N, NS)).astype(np.int8)
    y = rng.standard_normal((N, NPH))

    session = KRRSession(KRRConfig(
        tile_size=TILE, precision_plan=PrecisionPlan.adaptive_fp16()))
    session.fit(g_train, y)
    model = session.export_model()
    total_rows = CLIENTS * REQUESTS_PER_CLIENT * ROWS_PER_REQUEST

    # --- per-request baseline: no coalescing
    per_request_seconds, pairs, per_request_stats = _drive(
        model, ServeConfig(max_batch_requests=1, batch_window_s=0.0))
    assert per_request_stats.batches == CLIENTS * REQUESTS_PER_CLIENT

    # --- micro-batched serving (timed by the benchmark harness)
    batched_seconds_box = []

    def batched_run():
        seconds, pairs_b, stats = _drive(
            model, ServeConfig(max_batch_requests=CLIENTS,
                               batch_window_s=0.005))
        batched_seconds_box.append((seconds, pairs_b, stats))
        return seconds

    run_once(benchmark, batched_run)
    batched_seconds, batched_pairs, batched_stats = batched_seconds_box[0]

    # correctness: micro-batched results bitwise equal to solo predicts
    for cohort, result in batched_pairs[:6]:
        assert np.array_equal(result.predictions, session.predict(cohort))
    assert batched_stats.requests == CLIENTS * REQUESTS_PER_CLIENT
    assert batched_stats.batches < batched_stats.requests, (
        "the batched configuration should actually coalesce")

    per_request_throughput = total_rows / per_request_seconds
    batched_throughput = total_rows / batched_seconds
    speedup = batched_throughput / per_request_throughput

    payload = {
        "n_train": N,
        "ns": NS,
        "phenotypes": NPH,
        "tile_size": TILE,
        "clients": CLIENTS,
        "requests": CLIENTS * REQUESTS_PER_CLIENT,
        "rows_per_request": ROWS_PER_REQUEST,
        "total_rows": total_rows,
        "per_request_seconds": round(per_request_seconds, 4),
        "micro_batched_seconds": round(batched_seconds, 4),
        "per_request_rows_per_s": round(per_request_throughput, 1),
        "micro_batched_rows_per_s": round(batched_throughput, 1),
        "micro_batched_speedup": round(speedup, 3),
        "mean_coalesced_requests": round(batched_stats.mean_coalesced, 2),
        "max_coalesced_requests": batched_stats.max_coalesced,
        "bitwise_equal_to_solo_predict": True,
        "model_resident_bytes": model.resident_bytes(),
    }
    write_bench_json(_RESULT_FILE, payload)

    print("\nPrediction-serving throughput (8 concurrent clients, "
          f"{CLIENTS * REQUESTS_PER_CLIENT} requests x {ROWS_PER_REQUEST} "
          "rows):")
    print(f"  per-request   : {per_request_seconds:8.3f} s  "
          f"({per_request_throughput:9.1f} rows/s)")
    print(f"  micro-batched : {batched_seconds:8.3f} s  "
          f"({batched_throughput:9.1f} rows/s)")
    print(f"  speedup       : {speedup:8.2f}x   "
          f"(mean coalescing {batched_stats.mean_coalesced:.2f} req/batch)")

    assert speedup > 1.0, (
        f"micro-batching should beat per-request serving "
        f"({batched_seconds:.3f}s vs {per_request_seconds:.3f}s)")
