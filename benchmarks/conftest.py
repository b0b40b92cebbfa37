"""Shared knobs for the regeneration benches (``test_experiments.py``).

Scale control:

* ``REPRO_SCALE``   — smoke | default | large (default: smoke, so the
  whole harness finishes in minutes; use ``default`` for the numbers
  recorded in EXPERIMENTS.md).
* ``REPRO_MIXES``   — comma-separated mix subset (default: each
  experiment's own groups).
* ``REPRO_PARALLEL``— worker processes for the run matrices.
"""

import os

from repro.system.scale import get_scale
from repro.workloads.mixes import MIXES


def bench_scale():
    return get_scale(os.environ.get("REPRO_SCALE", "smoke"))


def bench_mixes():
    """Mixes selected by REPRO_MIXES, else None (the experiment's own)."""
    names = os.environ.get("REPRO_MIXES")
    if names:
        return [MIXES[name.strip()] for name in names.split(",")]
    return None
