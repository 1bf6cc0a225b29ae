"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload fit-tall --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload again with spans around every layer entry point,
prints the per-layer metrics and writes a Chrome trace-event file
(``--trace-out``, default ``.perfbench/trace-<workload>-seed<n>.json``).
Human-readable lines come first: the host fingerprint, every metric with
its unit, the workload's metrics under their plan names and the
correctness checks.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, 2 on a usage error or when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", type=Path, default=None,
                   help="Chrome trace path for --trace 1")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes instead of the benchmark sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # the workloads define their own configuration: no REPRO_* setting
    # of the calling environment may change what is measured
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, str(ROOT))
    from perfbench import host, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = workloads.workload(args.workload, tiny=args.tiny)
    cohort = workloads.cohort_for(spec, args.seed)

    # store segments and process-exchange arenas go to temporary
    # directories: keep them inside the checkout, and remove them
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=_scratch()))
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = str(work_dir)
    try:
        sys.path.insert(0, str(SRC))
        ctx = workloads.Context(
            workload=spec, cohort=cohort, seed=args.seed,
            seconds=args.seconds, trace=bool(args.trace),
            workers=host.affinity_cpus(), work_dir=work_dir)
        out = workloads.run(ctx)
        # timed last, so that the probe interpreters do not count in the
        # workload's peak RSS of child processes
        if not args.trace and "setup_s" in out.e2e:
            out.e2e["setup_s"] += _median_import_s(
                1 if args.tiny else IMPORT_REPS)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
        _drop_scratch_if_empty()

    fingerprint = host.fingerprint(ROOT)
    units = workloads.PER_LAYER_UNITS if args.trace else workloads.E2E_UNITS
    values = out.layers if args.trace else out.e2e
    missing = [name for name in units if name not in values]
    if missing:
        out.check("every metric measured", False, ", ".join(missing))

    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(f"workload {spec.name}: n_train={spec.n_train} "
          f"n_snps={spec.n_snps} n_phenotypes={spec.n_phenotypes} "
          f"n_test={spec.n_test} workers={ctx.workers} seed={args.seed}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:32s} {values[name]:.6g} {unit}")
    for name, (value, unit) in out.named.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if out.op_samples:
        print(f"  op_s samples (n={len(out.op_samples)}): "
              + " ".join(f"{v:.4g}" for v in out.op_samples))
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'failed_frac':32s} {failed_frac:.6g} 1")
    for name, ok, detail in out.checks:
        if not ok:
            print(f"  CHECK FAILED: {name} {detail}")
    print(f"  checks passed: {sum(ok for _, ok, _ in out.checks)}"
          f"/{len(out.checks)}")

    if args.trace and out.tracer is not None:
        path = args.trace_out or (
            _scratch() / f"trace-{spec.name}-seed{args.seed}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        metadata = {"workload": spec.name, "seed": args.seed,
                    "host": fingerprint, "metrics": out.layers}
        path.write_text(json.dumps(out.tracer.chrome_trace(metadata)))
        print(f"  chrome trace: {path}")

    result = {
        "correct": out.correct and not missing,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


#: Fresh interpreters that time the package import for ``setup_s``.
IMPORT_REPS = 5
_IMPORT_PROBE = f"""
import sys, time
import numpy, scipy.linalg
sys.path.insert(0, {str(SRC)!r})
started = time.perf_counter()
import repro, repro.gwas.cv, repro.serve
print(time.perf_counter() - started)
"""


def _median_import_s(reps: int) -> float:
    """Median time of ``import repro`` (and the serving and CV modules)
    in ``reps`` fresh interpreters, numpy and scipy already loaded."""
    times = []
    for _ in range(reps):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                               capture_output=True, text=True, check=True,
                               timeout=60)
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _scratch() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return SCRATCH


def _drop_scratch_if_empty() -> None:
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # holds traces that were asked for


if __name__ == "__main__":
    sys.exit(main())
