"""The benchmark's workloads, ``perfbench/workloads.py``, for the tools.

``load_workloads()`` imports the file as it is, under a module name of
its own, and writes no bytecode under ``perfbench/``.  Stdlib only.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py`` as a fresh module, left out of
    ``sys.modules`` once loaded; bytecode writing is off while it loads
    and restored after."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module
