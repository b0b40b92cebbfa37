"""Durable file writes: the one temp-file + fsync + rename discipline.

Result tables and snapshot files are both replaced whole with
:func:`write_atomic`: a crash mid-write leaves either the old file or
the new one, never a torn mix, and once it returns the new contents
*and* the directory entry pointing at them survive a power loss.
:func:`fsync_dir` is that last step, the directory fsync.
"""

from __future__ import annotations

import os
from typing import Union

PathLike = Union[str, "os.PathLike[str]"]


def fsync_dir(directory: PathLike) -> None:
    """Make the entries of ``directory`` (a create or a rename) durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: PathLike, data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (text is UTF-8 encoded), durably."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(directory)
