"""Host fingerprint printed with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

__all__ = ["affinity_cpus", "fingerprint"]


def affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _blas() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):  # pragma: no cover - older numpy
        info["vendor"] = None
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        # without threadpoolctl the thread count is whatever the
        # environment asks the BLAS for (None = the BLAS default)
        info["threads"] = next(
            (int(os.environ[v]) for v in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")
             if os.environ.get(v, "").isdigit()), None)
        info["threads_source"] = "environment"
    else:
        pools = [p for p in threadpool_info() if p.get("user_api") == "blas"]
        info["threads"] = pools[0]["num_threads"] if pools else None
        info["threads_source"] = "threadpoolctl"
    return info


def _git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path) -> dict:
    return {
        "affinity_cpus": affinity_cpus(),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }
