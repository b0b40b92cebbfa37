"""Content-addressed, corruption-detecting result cache.

One file per cell result, stored under the cell's canonical key (see
:mod:`repro.service.keys`) in a two-level directory fanout
(``<root>/<key[:2]>/<key>.json``).  Every entry embeds a SHA-256 of its
own canonical payload; the read path re-derives it, so a flipped bit, a
torn write, or a hand-edited file is *detected* rather than served.
Detected corruption moves the entry into ``<root>/quarantine/`` (kept
for post-mortems, never read again) and reports a miss — the service
recomputes and rewrites the cell.

Writes go through :func:`~repro.common.durable.write_atomic` so a crash
mid-write can never leave a half-entry under a valid key; the worst
case is a missing entry, which is just a miss.

Chaos hooks: the ``corrupt-cache`` and ``truncate-cache`` service
faults (:mod:`repro.experiments.faults`) tamper with an entry *after*
it is durably written, exercising exactly the detection path above.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..common.durable import write_atomic
from ..experiments import faults
from ..experiments.persistence import _result_from_dict, _result_to_dict
from ..system.machine import MachineResult
from .keys import canonical_json

PathLike = Union[str, Path]

#: Version of the on-disk entry layout (not the key schema).
_ENTRY_VERSION = 1


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class CacheCorruption(ValueError):
    """Internal marker: an entry failed verification (never escapes get)."""


class ResultCache:
    """Durable map from cell key to :class:`MachineResult`."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.root / "quarantine"
        #: Monotonic in-process counters, exposed via the service /stats.
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt_quarantined": 0,
        }
        # Per-cell write counters so `times`-limited tamper faults fire
        # on the first N writes of a matching cell, like cell-fault
        # attempt numbering.
        self._write_counts: Dict[tuple, int] = {}

    # -- layout ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

    # -- write path ------------------------------------------------------

    def put(
        self,
        key: str,
        result: MachineResult,
        *,
        config_name: str = "*",
        mix_name: str = "*",
    ) -> Path:
        """Store a result under its key (atomic, durable).

        ``config_name``/``mix_name`` only scope the chaos tamper faults;
        they are recorded in the entry for human inspection but the key
        alone addresses it.
        """
        payload = {
            "entry_version": _ENTRY_VERSION,
            "key": key,
            "config": config_name,
            "mix": mix_name,
            "result": _result_to_dict(result),
        }
        document = {"payload": payload, "sha256": _payload_digest(payload)}
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(document, sort_keys=True, indent=1))
        self.stats["writes"] += 1
        self._maybe_tamper(path, config_name, mix_name)
        return path

    def _maybe_tamper(self, path: Path, config_name: str, mix_name: str) -> None:
        """Apply corrupt/truncate chaos faults to a just-written entry."""
        count_key = (config_name, mix_name)
        attempt = self._write_counts.get(count_key, 0) + 1
        self._write_counts[count_key] = attempt
        if faults.fault_for(
            "corrupt-cache", config_name, mix_name, attempt
        ):
            data = bytearray(path.read_bytes())
            # Flip a bit inside the stored result body (deterministic
            # position, well past the JSON preamble).
            position = min(len(data) - 2, len(data) // 2)
            data[position] ^= 0x01
            path.write_bytes(bytes(data))
        elif faults.fault_for(
            "truncate-cache", config_name, mix_name, attempt
        ):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])

    # -- read path -------------------------------------------------------

    def get(self, key: str) -> Optional[MachineResult]:
        """Verified read: a result, or ``None`` for miss *or* corruption.

        Corrupt entries are quarantined before returning ``None``, so a
        subsequent :meth:`put` under the same key starts clean.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats["misses"] += 1
            return None
        try:
            result = self._verified_read(path, key)
        except CacheCorruption:
            self._quarantine(path)
            self.stats["corrupt_quarantined"] += 1
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return result

    def _verified_read(self, path: Path, key: str) -> MachineResult:
        try:
            document = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise CacheCorruption(f"unreadable cache entry {path}") from exc
        if not isinstance(document, dict):
            raise CacheCorruption(f"cache entry {path} is not an object")
        payload = document.get("payload")
        recorded = document.get("sha256")
        if not isinstance(payload, dict) or not isinstance(recorded, str):
            raise CacheCorruption(f"cache entry {path} missing payload/digest")
        if _payload_digest(payload) != recorded:
            raise CacheCorruption(f"cache entry {path} failed its checksum")
        if payload.get("key") != key:
            # A valid entry filed under the wrong name (renamed/copied
            # by hand) must not be served as this cell.
            raise CacheCorruption(f"cache entry {path} is keyed as "
                                  f"{payload.get('key')!r}")
        try:
            return _result_from_dict(payload["result"])
        except (KeyError, TypeError) as exc:
            raise CacheCorruption(f"cache entry {path} result malformed") from exc

    def _quarantine(self, path: Path) -> Path:
        """Move a bad entry aside (unique name; never overwrites)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(1000):
            suffix = "" if attempt == 0 else f".{attempt}"
            target = self.quarantine_dir / f"{path.name}{suffix}"
            if not target.exists():
                os.replace(path, target)
                return target
        raise RuntimeError(f"cannot quarantine {path}: namespace exhausted")


__all__ = ["ResultCache"]
