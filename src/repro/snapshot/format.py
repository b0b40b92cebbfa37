"""Crash-safe snapshot file format.

A snapshot file is::

    REPRO-SNAPSHOT <schema>\\n
    <header JSON>\\n
    <payload bytes>

* The first line is a magic string carrying the schema version, so even
  a reader from a different schema can identify the file and refuse it
  with a precise error instead of a parse explosion.
* The header is one line of JSON with the config fingerprint, the
  payload length and its SHA-256, plus free-form metadata (cycle,
  workload name) used for logging only.
* The payload is the pickled plain-data state tree produced by
  :mod:`repro.snapshot.codec`.  It is *data only*: the restricted
  unpickler below refuses every global/class reference, so a tampered
  snapshot cannot execute code on load — it can only fail its checksum.

Durability: writes go through :func:`~repro.common.durable.write_atomic`
(the results-file and ResultCache discipline: same-directory temp file,
fsync, rename, directory fsync).  A crash mid-write leaves either the
old snapshot or none; a torn tail in a partially synced file is caught
by the length and checksum checks and refused, never silently resumed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from ..common.durable import write_atomic
from ..common.errors import (
    SnapshotConfigMismatch,
    SnapshotFormatError,
    SnapshotSchemaError,
)

#: Bumped when the file format or the state walk's encoding changes
#: (class layouts are checked tree by tree, see :mod:`.codec`).  There is
#: deliberately no migration machinery: a snapshot is a resume artifact,
#: not an archive format, and refusing an old one just costs a re-run.
SCHEMA_VERSION = 3

_MAGIC_PREFIX = b"REPRO-SNAPSHOT "


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global lookup.

    The snapshot payload is a tree of builtins (dict/list/tuple/str/
    int/float/bool/bytes/None); anything that needs ``find_class`` is by
    definition not a valid payload.
    """

    def find_class(self, module: str, name: str):  # pragma: no cover - defense
        raise SnapshotFormatError(
            f"snapshot payload references {module}.{name}; "
            "payloads must be pure data"
        )

    def persistent_load(self, pid):  # pragma: no cover - defense
        raise SnapshotFormatError("snapshot payload uses persistent ids")


def encode_payload(tree: Any) -> bytes:
    """Serialize a plain-data state tree to payload bytes."""
    return pickle.dumps(tree, protocol=4)


def decode_payload(data: bytes, *, path: Optional[str] = None) -> Any:
    """Parse payload bytes back into the state tree, refusing non-data.

    Containment lives in :class:`_RestrictedUnpickler`: ``find_class``
    and ``persistent_load`` always raise, so GLOBAL/STACK_GLOBAL/INST/
    PERSID all fail before resolving anything, and the opcodes that
    could call code (REDUCE, NEWOBJ, BUILD) can never obtain a callable
    because callables only enter the stack through those refused paths
    (EXT* dies on the empty extension registry).  A byte-exact
    pickletools pre-scan used to run here as well, but it is pure
    Python and O(opcodes) — an order of magnitude slower than the
    decode itself — with no additional guarantees.
    """
    try:
        return _RestrictedUnpickler(io.BytesIO(data)).load()
    except SnapshotFormatError:
        raise
    except Exception as exc:
        raise SnapshotFormatError(
            f"snapshot payload failed to decode: {exc}", path=path
        ) from exc


def write_snapshot_file(
    path: str,
    tree: Any,
    *,
    config_fingerprint: str,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Atomically write ``tree`` as a snapshot file at ``path``."""
    payload = encode_payload(tree)
    header = {
        "schema": SCHEMA_VERSION,
        "config_fingerprint": config_fingerprint,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    if meta:
        header["meta"] = dict(meta)
    blob = b"".join(
        (
            _MAGIC_PREFIX,
            str(SCHEMA_VERSION).encode("ascii"),
            b"\n",
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            b"\n",
            payload,
        )
    )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_atomic(path, blob)


def read_snapshot_header(path: str) -> Dict[str, Any]:
    """Read and validate just the header of a snapshot file.

    Cheap existence/compatibility probe: verifies magic, schema and
    header shape but does not read or checksum the payload.
    """
    header, _offset = _read_header(path)
    return header


def read_snapshot_file(
    path: str,
    *,
    expected_fingerprint: Optional[str] = None,
) -> Tuple[Dict[str, Any], Any]:
    """Read, verify and decode a snapshot file.

    Returns ``(header, state_tree)``.  Raises
    :class:`SnapshotFormatError` on any torn/corrupt file,
    :class:`SnapshotSchemaError` on a version mismatch, and
    :class:`SnapshotConfigMismatch` when ``expected_fingerprint`` is
    given and differs from the recorded one.
    """
    header, offset = _read_header(path)
    if expected_fingerprint is not None and header["config_fingerprint"] != expected_fingerprint:
        raise SnapshotConfigMismatch(
            f"snapshot {path} was taken under a different configuration "
            f"(recorded {header['config_fingerprint'][:12]}..., "
            f"expected {expected_fingerprint[:12]}...)",
            path=path,
            found=header["config_fingerprint"],
            expected=expected_fingerprint,
        )
    with open(path, "rb") as handle:
        handle.seek(offset)
        payload = handle.read()
    if len(payload) != header["payload_bytes"]:
        raise SnapshotFormatError(
            f"snapshot {path} payload is {len(payload)} bytes, header "
            f"promises {header['payload_bytes']} (torn write?)",
            path=path,
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise SnapshotFormatError(
            f"snapshot {path} payload checksum mismatch "
            f"({digest[:12]}... != {header['payload_sha256'][:12]}...)",
            path=path,
        )
    return header, decode_payload(payload, path=path)


def _read_header(path: str) -> Tuple[Dict[str, Any], int]:
    try:
        with open(path, "rb") as handle:
            magic_line = handle.readline(256)
            header_line = handle.readline(1 << 20)
            offset = handle.tell()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}", path=path) from exc
    if not magic_line.startswith(_MAGIC_PREFIX) or not magic_line.endswith(b"\n"):
        raise SnapshotFormatError(
            f"{path} is not a snapshot file (bad magic)", path=path
        )
    try:
        schema = int(magic_line[len(_MAGIC_PREFIX):].strip())
    except ValueError as exc:
        raise SnapshotFormatError(
            f"{path} has an unparsable schema marker", path=path
        ) from exc
    if schema != SCHEMA_VERSION:
        raise SnapshotSchemaError(
            f"snapshot {path} uses schema {schema}, this reader supports "
            f"{SCHEMA_VERSION}",
            path=path,
            found=schema,
            expected=SCHEMA_VERSION,
        )
    if not header_line.endswith(b"\n"):
        raise SnapshotFormatError(
            f"snapshot {path} header line is truncated", path=path
        )
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise SnapshotFormatError(
            f"snapshot {path} header is not valid JSON", path=path
        ) from exc
    if not isinstance(header, dict):
        raise SnapshotFormatError(
            f"snapshot {path} header is not an object", path=path
        )
    for key, kind in (
        ("schema", int),
        ("config_fingerprint", str),
        ("payload_bytes", int),
        ("payload_sha256", str),
    ):
        if not isinstance(header.get(key), kind):
            raise SnapshotFormatError(
                f"snapshot {path} header is missing {key!r}", path=path
            )
    if header["schema"] != schema:
        raise SnapshotFormatError(
            f"snapshot {path} header schema disagrees with magic line", path=path
        )
    return header, offset
