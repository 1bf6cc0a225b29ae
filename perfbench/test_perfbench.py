"""Smoke tests of the benchmark at tiny sizes.

They run ``perfbench/run.py --tiny`` as a subprocess on every workload
and check the result schema against ``BENCHMARK.json``, that a seed
reproduces its inputs, that an untraced run leaves no file behind in the
checkout, and that the benchmark refuses to run without the package
sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(root: Path) -> set[str]:
    found = set()
    for here, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        found.update(os.path.relpath(os.path.join(here, n), root)
                     for n in names)
    return found


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_schema(result: dict, expected: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}
        assert math.isfinite(entry["value"]), name


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_schema_and_no_files_written(name):
    before = _files(ROOT)
    result = _result(_run("--workload", name, "--seed", "3", "--seconds",
                          "0.5", "--trace", "0", "--tiny"))
    _check_schema(result, workloads.E2E_UNITS)
    assert _files(ROOT) == before
    for metric in ("setup_s", "op_s", "rows_per_s", "peak_rss_mib"):
        assert result["metrics"][metric]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_writes_a_chrome_trace(name, tmp_path):
    out = tmp_path / "trace.json"
    result = _result(_run("--workload", name, "--seed", "3", "--seconds",
                          "0.5", "--trace", "1", "--tiny",
                          "--trace-out", str(out)))
    _check_schema(result, workloads.PER_LAYER_UNITS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.spans"] > 0
    assert 0.9 <= metrics["gwas.coverage"] <= 1.0 + 1e-9
    # the layers below gwas must account for most of it: a wrapper that
    # records nothing leaves its time in gwas self time and fails this
    # (measured at these sizes: 0.89-0.98)
    assert 0.8 <= metrics["gwas.inner_coverage"] <= \
        metrics["gwas.coverage"] + 1e-9
    events = json.loads(out.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)
    assert {e["cat"] for e in spans} <= set(tracing.LAYERS)


def test_seed_reproduces_the_inputs():
    spec = workloads.workload("fit-tall", tiny=True)
    a, b = workloads.cohort_for(spec, 5), workloads.cohort_for(spec, 5)
    c = workloads.cohort_for(spec, 6)
    for field in ("train_genotypes", "train_phenotypes", "test_genotypes",
                  "test_phenotypes"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.train_genotypes, c.train_genotypes)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fit-tall", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.enter("gwas.build")
    tracer.enter("distance.build")
    tracer.exit()
    tracer.exit()
    outer = next(s for s in tracer.spans if s.name == "gwas.build")
    inner = next(s for s in tracer.spans if s.name == "distance.build")
    assert inner.parent == outer.sid
    own = tracer.self_times()
    assert own[outer.sid] == pytest.approx(outer.duration - inner.duration)
    layers = tracer.layer_self_s()
    assert layers["gwas"] + layers["distance"] == pytest.approx(
        outer.duration)
    tid = outer.tid
    window = [(outer.start, outer.end)]
    assert tracer.covered_s(tid, window) == pytest.approx(outer.duration)
    assert tracer.inner_covered_s(tid, window) == pytest.approx(
        inner.duration)
