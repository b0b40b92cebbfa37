"""The crash-safe snapshot file format: refusal is the feature.

A snapshot is either read back exactly as written or refused with a
:class:`~repro.common.errors.SnapshotError` subclass — never partially
applied, never silently repaired.  These tests exercise the refusal
paths byte by byte.
"""

import pickle

import pytest

from repro.common.errors import (
    SnapshotConfigMismatch,
    SnapshotError,
    SnapshotFormatError,
    SnapshotSchemaError,
)
from repro.snapshot.format import (
    SCHEMA_VERSION,
    decode_payload,
    read_snapshot_file,
    read_snapshot_header,
    write_snapshot_file,
)

FP = "a" * 64

TREE = {
    "v": 1,
    "nested": [1, 2.5, "three", None, True, b"bytes"],
    "pairs": {"k": (1, 2), "deep": {"x": [0] * 64}},
}


@pytest.fixture
def snap(tmp_path):
    path = tmp_path / "cell.snap"
    write_snapshot_file(str(path), TREE, config_fingerprint=FP,
                        meta={"cycle": 123, "workload": "H1"})
    return path


def test_round_trip(snap):
    header, tree = read_snapshot_file(str(snap), expected_fingerprint=FP)
    assert tree == TREE
    assert header["schema"] == SCHEMA_VERSION
    assert header["config_fingerprint"] == FP
    assert header["meta"] == {"cycle": 123, "workload": "H1"}


def test_header_probe_does_not_need_payload(snap):
    header = read_snapshot_header(str(snap))
    assert header["meta"]["cycle"] == 123


def test_truncation_refused_at_every_byte_offset(snap):
    """A torn write of any length must be refused, never resumed."""
    blob = snap.read_bytes()
    torn = snap.parent / "torn.snap"
    for cut in range(len(blob)):
        torn.write_bytes(blob[:cut])
        with pytest.raises(SnapshotError):
            read_snapshot_file(str(torn))
    # The intact file still reads: refusal is about damage, not paranoia.
    _, tree = read_snapshot_file(str(snap))
    assert tree == TREE


def test_payload_byte_flips_fail_the_checksum(snap):
    blob = bytearray(snap.read_bytes())
    payload_start = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    flipped = snap.parent / "flipped.snap"
    for offset in range(payload_start, len(blob)):
        blob[offset] ^= 0xFF
        flipped.write_bytes(bytes(blob))
        blob[offset] ^= 0xFF
        with pytest.raises(SnapshotFormatError):
            read_snapshot_file(str(flipped))


def test_trailing_garbage_is_refused(snap):
    grown = snap.parent / "grown.snap"
    grown.write_bytes(snap.read_bytes() + b"x")
    with pytest.raises(SnapshotFormatError):
        read_snapshot_file(str(grown))


def test_wrong_magic_is_refused(tmp_path):
    path = tmp_path / "not.snap"
    path.write_bytes(b"NOT-A-SNAPSHOT 1\n{}\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot_file(str(path))


def test_future_schema_is_refused(snap):
    blob = snap.read_bytes()
    future = snap.parent / "future.snap"
    future.write_bytes(
        blob.replace(
            b"REPRO-SNAPSHOT %d\n" % SCHEMA_VERSION,
            b"REPRO-SNAPSHOT %d\n" % (SCHEMA_VERSION + 1),
            1,
        )
    )
    with pytest.raises(SnapshotSchemaError) as excinfo:
        read_snapshot_file(str(future))
    assert excinfo.value.found == SCHEMA_VERSION + 1
    assert excinfo.value.expected == SCHEMA_VERSION


def test_fingerprint_mismatch_is_refused(snap):
    with pytest.raises(SnapshotConfigMismatch) as excinfo:
        read_snapshot_file(str(snap), expected_fingerprint="b" * 64)
    assert excinfo.value.found == FP
    # Without an expectation the same file loads fine (force path).
    _, tree = read_snapshot_file(str(snap))
    assert tree == TREE


def test_atomic_write_replaces_not_appends(snap):
    write_snapshot_file(str(snap), {"v": 2}, config_fingerprint=FP)
    _, tree = read_snapshot_file(str(snap))
    assert tree == {"v": 2}
    leftovers = list(snap.parent.glob(".*.tmp.*"))
    assert leftovers == []


def test_payload_refuses_code_references():
    """The restricted unpickler turns any global lookup into a refusal."""
    for evil in (print, pickle.Unpickler, SnapshotError("x")):
        with pytest.raises(SnapshotFormatError):
            decode_payload(pickle.dumps(evil))


def test_payload_refuses_non_pickle_bytes():
    with pytest.raises(SnapshotFormatError):
        decode_payload(b"\x80\x05 definitely not a pickle")
