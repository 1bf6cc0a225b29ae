"""Serial vs DAG-parallel tiled Cholesky benchmark.

Factorizes the same n=2048 SPD matrix through the serial elimination
(``execution="serial"``), through the threaded out-of-order DAG
executor, and through the process (GIL-free) backend at 1/2/8
workers, asserts the results are **bitwise identical**, and writes
``BENCH_cholesky.json`` at the repository root so future PRs have a
factorization perf trajectory to compare against.

Wall-clock speedup needs physical cores; on single/dual-core hosts the
benchmark instead gates on the DAG's *work/critical-path* parallelism
(how much the out-of-order executor can overlap is a property of the
task graph, not of the host running the harness).  Both numbers are
recorded either way.
"""

import time
from pathlib import Path

import numpy as np

from conftest import effective_cpu_count, write_bench_json
from repro.linalg.cholesky import cholesky
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime

N = 2048
TILE = 256
WORKER_COUNTS = (1, 2, 8)
_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULT_FILE = _REPO_ROOT / "BENCH_cholesky.json"


def _spd(n: int, seed: int = 2024) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T / n
    return a + 4.0 * np.eye(n)


def test_bench_cholesky_dag_parallel():
    a = _spd(N)

    t0 = time.perf_counter()
    serial = cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
                      execution="serial")
    serial_seconds = time.perf_counter() - t0
    serial_dense = serial.to_dense()

    threaded_seconds: dict[int, float] = {}
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        threaded = cholesky(a, tile_size=TILE,
                            working_precision=Precision.FP32,
                            execution="threaded", workers=workers)
        threaded_seconds[workers] = time.perf_counter() - t0
        np.testing.assert_array_equal(threaded.to_dense(), serial_dense)

    # Process (GIL-free) backend: workers are OS processes exchanging
    # tiles through mmap'd segment files.  Timed per worker count with
    # a session runtime so pool startup is inside the measurement only
    # once (the pool persists across a session's drains).
    process_seconds: dict[int, float] = {}
    for workers in WORKER_COUNTS:
        rt = Runtime(execution="process", workers=workers)
        try:
            t0 = time.perf_counter()
            proc = cholesky(a, tile_size=TILE,
                            working_precision=Precision.FP32, runtime=rt)
            process_seconds[workers] = time.perf_counter() - t0
            np.testing.assert_array_equal(proc.to_dense(), serial_dense)
        finally:
            rt.close()

    # DAG-structure parallelism of the same task graph: total work over
    # the heaviest dependency chain.  This bounds (and on multi-core
    # hosts predicts) the achievable out-of-order speedup.
    capture = Runtime(execution="serial")
    cholesky(a, tile_size=TILE, working_precision=Precision.FP32,
             runtime=capture)
    graph = capture.last_graph
    dag_parallelism = graph.total_flops() / graph.critical_path_flops()

    flops = N ** 3 / 3.0
    cpu_count = effective_cpu_count()
    wall_speedup_8 = serial_seconds / threaded_seconds[8]
    process_speedup_8 = serial_seconds / process_seconds[8]
    payload = {
        "n": N,
        "tile_size": TILE,
        "working_precision": "fp32",
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 4),
        "serial_gflops": round(flops / serial_seconds / 1e9, 2),
        "threaded_seconds": {
            str(w): round(s, 4) for w, s in threaded_seconds.items()
        },
        "wall_speedup_vs_serial": {
            str(w): round(serial_seconds / s, 2)
            for w, s in threaded_seconds.items()
        },
        "process_seconds": {
            str(w): round(s, 4) for w, s in process_seconds.items()
        },
        "process_wall_speedup_vs_serial": {
            str(w): round(serial_seconds / s, 2)
            for w, s in process_seconds.items()
        },
        "num_tasks": graph.num_tasks,
        "critical_path_tasks": graph.critical_path_length(),
        "dag_parallelism_work_over_depth": round(dag_parallelism, 2),
        "bitwise_identical": True,
    }
    write_bench_json(_RESULT_FILE, payload)

    print("\n=== Tiled Cholesky: serial vs DAG-parallel (n=%d, tile=%d) ===" %
          (N, TILE))
    print(f"serial          : {serial_seconds:8.3f} s")
    for w in WORKER_COUNTS:
        print(f"threaded x{w:<2d}    : {threaded_seconds[w]:8.3f} s  "
              f"({serial_seconds / threaded_seconds[w]:5.2f}x)")
    for w in WORKER_COUNTS:
        print(f"process  x{w:<2d}    : {process_seconds[w]:8.3f} s  "
              f"({serial_seconds / process_seconds[w]:5.2f}x)")
    print(f"DAG parallelism : {dag_parallelism:5.2f}x work/critical-path "
          f"(result file {_RESULT_FILE.name})")

    # the structural parallelism of the DAG must always be there
    assert dag_parallelism >= 1.5, (
        f"work/critical-path parallelism {dag_parallelism:.2f}x < 1.5x — "
        "the factorization DAG lost its out-of-order parallelism"
    )
    if cpu_count >= 4:
        # with real cores behind the pool, the wall clock must follow
        assert wall_speedup_8 >= 1.5, (
            f"threaded Cholesky at 8 workers is only {wall_speedup_8:.2f}x "
            f"the serial path on {cpu_count} cores (expected >= 1.5x)"
        )
        assert process_speedup_8 > 1.0, (
            f"process Cholesky at 8 workers is only {process_speedup_8:.2f}x "
            f"the serial path on {cpu_count} cores (expected > 1.0x)"
        )
