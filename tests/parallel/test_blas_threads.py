"""Per-worker BLAS thread cap under the ``fork`` start method.

A forked worker inherits the coordinator's already-loaded BLAS, which
no environment variable can re-limit any more; the bootstrap must cap
it directly (threadpoolctl when installed, otherwise each OpenBLAS
build's own thread-count setter).
"""

import multiprocessing as mp
from dataclasses import dataclass

import numpy as np
import pytest

from repro.parallel.descriptors import BodySpec
from repro.parallel.pool import ProcessPool
from repro.parallel.worker import _loaded_openblas


@dataclass(frozen=True)
class _ReportThreads(BodySpec):
    """Worker-side probe: thread count of each loaded OpenBLAS."""

    def run(self):
        return np.array([getter() for _, _, getter in _loaded_openblas()])


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_worker_reports_capped_openblas_threads():
    libraries = _loaded_openblas()
    if not libraries:
        pytest.skip("no OpenBLAS build is loaded in this process")
    before = {path: getter() for path, _, getter in libraries}
    # give the coordinator's BLAS a setting the cap must visibly undo
    for _, setter, _ in libraries:
        setter(2)
    pool = ProcessPool(workers=1, start_method="fork", blas_threads=1)
    try:
        pool.start()
        pool.send(0, ("task", 1, _ReportThreads(), (), "probe"))
        status, uid, refs = pool.conn(0).recv()
        assert (status, uid) == ("ok", 1)
        counts = pool.exchange.get(refs[0])
        assert len(counts) == len(libraries)
        assert counts.tolist() == [1] * len(libraries)
        # the coordinator's own budget is untouched
        assert [getter() for _, _, getter in libraries] == [2] * len(libraries)
    finally:
        pool.shutdown()
        for path, setter, _ in libraries:
            setter(before[path])
