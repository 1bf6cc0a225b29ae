"""End-to-end benchmark of the KRR-GWAS pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload of :data:`perfbench.workloads.WORKLOADS`
from a seeded input set against the ``repro`` package sources in
``src/``, checks its outputs against a dense fp64 numpy/LAPACK reference
and prints its metrics; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The package is treated as a black box: the benchmark passes it only the
generated arrays, and the traced run (``--trace 1``) records spans by
wrapping the public entry points of each ``repro`` layer from
:mod:`perfbench.tracing`, not from inside the package.
"""
