"""Chaos helpers: tamper with a live service the way real faults do.

The declarative fault specs in :mod:`repro.experiments.faults`
(``REPRO_FAULTS``) cover deterministic in-band injection; this
module adds the out-of-band hammers the service tests use directly —
flipping bytes in and truncating cache files that already exist — and
the bit-for-bit comparison of two service results (the property every
chaos scenario must preserve).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from ..experiments import faults
from ..experiments.persistence import table_to_dict
from ..experiments.spec import canonical_json
from .cache import ResultCache
from .service import ServiceResult


def cache_entry_paths(cache: ResultCache) -> List[Path]:
    """Every stored entry, sorted for deterministic targeting."""
    return sorted(cache.root.glob("??/*.json"))


def corrupt_cache_entry(
    cache: ResultCache, key: Optional[str] = None
) -> Path:
    """Flip one byte in a stored entry (first entry when no key given)."""
    path = cache.path_for(key) if key else _first_entry(cache)
    faults.damage(path, "corrupt")
    return path


def truncate_cache_entry(
    cache: ResultCache, key: Optional[str] = None
) -> Path:
    """Cut a stored entry in half (a torn write that reached the name)."""
    path = cache.path_for(key) if key else _first_entry(cache)
    faults.damage(path, "truncate")
    return path


def _first_entry(cache: ResultCache) -> Path:
    paths = cache_entry_paths(cache)
    if not paths:
        raise ValueError(f"cache at {cache.root} has no entries to tamper")
    return paths[0]


def result_fingerprint(result: ServiceResult) -> str:
    """Canonical serialization of a sweep's numeric results.

    Two :class:`ServiceResult` objects for the same sweep are
    *bit-identical* iff their fingerprints are equal: every cell's full
    ``MachineResult`` (all floats, via exact JSON round-trip) in a
    canonical order, ignoring provenance (a cache hit must fingerprint
    identically to the simulation that produced it).
    """
    return canonical_json(table_to_dict(result.table)["cells"])


__all__ = [
    "cache_entry_paths",
    "corrupt_cache_entry",
    "result_fingerprint",
    "truncate_cache_entry",
]
