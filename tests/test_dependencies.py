"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares numpy and scipy (threadpoolctl optional);
every third-party import under ``src/repro`` must be one of those, and
``import repro`` must succeed when anything else is missing.
"""

from __future__ import annotations

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _requirement_names(requirements: list[str]) -> set[str]:
    names = set()
    for req in requirements:
        name = req
        for sep in "<>=!~[; ":
            name = name.split(sep, 1)[0]
        names.add(name.strip().lower().replace("-", "_"))
    return names


def _declared() -> tuple[set[str], set[str]]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    required = _requirement_names(project["dependencies"])
    optional = _requirement_names(
        [r for group in project.get("optional-dependencies", {}).values()
         for r in group])
    return required, optional


def _third_party_imports() -> set[str]:
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".", 1)[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.add(top)
    return found


def test_required_dependencies_are_numpy_and_scipy():
    required, optional = _declared()
    assert required == {"numpy", "scipy"}
    assert "threadpoolctl" in optional


def test_every_third_party_import_is_declared():
    required, optional = _declared()
    assert _third_party_imports() <= required | optional


def test_import_without_undeclared_or_optional_packages():
    # a fresh interpreter in which every package outside the standard
    # library (and its private ``_*`` modules), numpy and scipy fails to
    # import
    code = (
        "import importlib.abc, sys\n"
        "class Block(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        top = name.split('.')[0]\n"
        "        if (top in sys.stdlib_module_names or top.startswith('_')\n"
        "                or top in ('numpy', 'scipy', 'repro')):\n"
        "            return None\n"
        "        raise ModuleNotFoundError(f'blocked: {name}', name=name)\n"
        "sys.meta_path.insert(0, Block())\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import repro, repro.gwas.cv, repro.serve, repro.parallel\n"
        "import numpy as np\n"
        "from repro import KRRConfig, KRRSession\n"
        "rng = np.random.default_rng(0)\n"
        "g = rng.integers(0, 3, (48, 16)).astype(np.int8)\n"
        "s = KRRSession(KRRConfig(tile_size=16, execution='threaded',\n"
        "                         workers=2))\n"
        "s.fit(g, rng.standard_normal((48, 1)))\n"
        "assert np.isfinite(s.predict(g)).all()\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
