"""``import repro`` needs nothing beyond the declared runtime dependency.

``pyproject.toml`` declares numpy alone.  A fresh interpreter that can
import only the standard library, numpy and the package itself imports
the public modules and evaluates one small scenario; networkx, an
optional dependency, is imported only when :func:`to_networkx` runs.
So a module-level import of an undeclared package fails here, not on a
user's first run after ``pip install``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

PROGRAM = """
import importlib.abc
import sys


class Undeclared(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in sys.stdlib_module_names or top in ("numpy", "repro"):
            return None
        raise ModuleNotFoundError(f"undeclared dependency {name!r}", name=top)


sys.meta_path.insert(0, Undeclared())

import repro
import repro.api
import repro.cli
from repro.api import Scenario
from repro.topology import XGFT, to_networkx

result = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k").evaluate(
    metrics=("max_link_load", "slowdown")
)
print(result["max_link_load"], result["slowdown"])
try:
    to_networkx(XGFT((2, 2), (1, 2)))
except ModuleNotFoundError as exc:
    print("to_networkx needs", exc.name)
"""


def test_package_imports_and_evaluates_with_numpy_alone():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loads, needs = proc.stdout.splitlines()
    max_load, slowdown = loads.split()
    assert int(max_load) >= 1 and float(slowdown) >= 1.0
    assert needs == "to_networkx needs networkx"
