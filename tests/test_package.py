"""Every module imports on its own and exports only names it defines."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import faircb

MODULES = sorted(m.name for m in pkgutil.iter_modules(faircb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_and_its_all_resolves(name):
    # A fresh interpreter per module: an import cycle only shows when the
    # module that closes it is the first one imported.
    src = str(Path(faircb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import faircb.{name}"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    module = importlib.import_module(f"faircb.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing, missing
