"""Host-time attribution for the traced run: a cProfile fold by layer.

The simulator has no spans of its own yet, so the traced run wraps the
one public call a workload makes (``Machine.run`` or ``run_matrix``) in
``cProfile`` and folds every function's *self* time (``inlinetime``) and
exact call count into the ``src/repro/`` package that owns its source
file.  Everything stays in memory until the child prints its record.
"""

from __future__ import annotations

import cProfile
import functools
import os
import time
from typing import Callable, Dict, Tuple

#: The layers of the ledger: the ``src/repro/`` packages the workloads
#: execute, ``other`` for the remaining repro code (``ras``,
#: ``sampling``, ``validate``, ``service``, top-level modules), and
#: ``python`` for builtins, the stdlib and this harness.
LAYERS = (
    "engine", "cpu", "cache", "mshr", "memctrl", "dram", "interconnect",
    "workloads", "common", "system", "experiments", "snapshot", "stack3d",
    "other", "python",
)


def profiled(fn: Callable[[], object]) -> Tuple[object, float, list]:
    """Run ``fn`` under cProfile; returns (result, wall seconds, stats)."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, time.perf_counter() - start, profile.getstats()


def fold(stats: list, package_root: str) -> Dict[str, Dict[str, float]]:
    """Sum self time and calls per layer.

    ``package_root`` is the directory of the ``repro`` package; a
    function belongs to the sub-package its file sits in.
    """
    root = os.path.join(os.path.realpath(package_root), "")
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}

    @functools.lru_cache(maxsize=None)
    def layer_of_file(filename: str) -> str:
        path = os.path.realpath(filename)
        if not path.startswith(root):
            return "python"
        package = path[len(root):].split(os.sep)[0]
        return package if package in layers else "other"

    for entry in stats:
        code = entry.code
        # Builtins arrive as strings, not code objects.
        layer = "python" if isinstance(code, str) else layer_of_file(code.co_filename)
        layers[layer]["self_s"] += entry.inlinetime
        layers[layer]["calls"] += entry.callcount
    return layers


def calls_of(stats: list, function_name: str) -> int:
    """Exact number of calls of the Python function named so."""
    return sum(
        entry.callcount
        for entry in stats
        if not isinstance(entry.code, str)
        and entry.code.co_name == function_name
    )
