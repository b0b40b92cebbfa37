"""Deterministic fault injection for testing the resilience layers.

The retry, timeout, resume, cache-verification and restart paths only
matter when something actually fails — which healthy code never does in
CI.  This module lets tests and the CI chaos gates inject failures into
specific matrix cells, deterministically keyed on ``(config name, mix
name, attempt number)`` so the same spec reproduces the same failure
in-process, in a supervised worker, and across retries.

A fault spec is ``kind:config:mix[:times][:seconds]``:

* ``kind`` — what fails, grouped by where it fires:

  - at cell start (:func:`inject`): ``raise`` (throw
    :class:`~repro.common.errors.InjectedFault`), ``crash``
    (``os._exit``: a segfaulted or OOM-killed worker), ``hang`` (sleep
    ``seconds``, default 3600: a livelock the wall-clock timeout must
    kill), ``slow`` (sleep ``seconds``, then proceed normally);
  - in the model (:mod:`repro.validate.hooks`): ``timing`` shrinks the
    DRAM array timings of a checker-enabled run so banks answer faster
    than the protocol allows — the timing checker must catch it
    (``seconds`` in ``(0, 1)`` is the shrink factor, else 0.5);
  - in a supervised worker (:mod:`repro.service.supervisor`):
    ``kill-worker`` (SIGKILL the worker ``seconds`` into the cell — it
    must be replaced and the cell retried, from its latest checkpoint
    when snapshots are on), ``hb-delay`` (stall the heartbeat thread for
    ``seconds`` — the worker must be declared hung on silence alone),
    ``corrupt-snapshot`` / ``truncate-snapshot`` (:func:`damage` the
    cell's on-disk checkpoint before a resume attempt — the loader
    must refuse it and the cell restart cleanly from zero);
  - in the sweep service (:mod:`repro.service`): ``corrupt-cache`` /
    ``truncate-cache`` (:func:`damage` a cache entry just after it is
    written — the read path must quarantine it and recompute),
    ``crash-service`` (raise
    :class:`~repro.common.errors.InjectedServiceCrash` after the cell's
    completion is journaled — a restart must resume bit-identically).

* ``config`` / ``mix`` — cell coordinates; ``*`` matches any.
* ``times`` — affect attempts ``1..times`` (default 1, so the first retry
  succeeds); ``-1`` means every attempt.
* ``seconds`` — the delay of the kinds that take one.

Specs reach worker processes through the ``REPRO_FAULTS`` environment
variable (inherited on fork) or in-process via :func:`install`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..common.errors import InjectedFault

#: Environment variable holding ``;``-separated fault specs.
ENV_VAR = "REPRO_FAULTS"

#: Kinds :func:`inject` applies at the start of a cell attempt.
CELL_START_KINDS = ("raise", "crash", "hang", "slow")

KINDS = CELL_START_KINDS + (
    "timing",
    "kill-worker",
    "hb-delay",
    "corrupt-snapshot",
    "truncate-snapshot",
    "corrupt-cache",
    "truncate-cache",
    "crash-service",
)

#: ``seconds`` when a spec leaves it out (0 for every other kind).
_DEFAULT_SECONDS = {"hang": 3600.0, "slow": 3600.0}

#: Timing shrink factor applied when a ``timing`` fault's ``seconds``
#: field is not a factor in ``(0, 1)``.
DEFAULT_TIMING_FACTOR = 0.5

#: Exit code used by ``crash`` faults (distinctive in post-mortems).
CRASH_EXITCODE = 117


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, matched against (config, mix, attempt)."""

    kind: str
    config: str = "*"
    mix: str = "*"
    times: int = 1
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if self.seconds is None:
            object.__setattr__(
                self, "seconds", _DEFAULT_SECONDS.get(self.kind, 0.0)
            )

    def matches(self, config: str, mix: str, attempt: int) -> bool:
        if self.config != "*" and self.config != config:
            return False
        if self.mix != "*" and self.mix != mix:
            return False
        return self.times < 0 or attempt <= self.times

    @property
    def timing_factor(self) -> float:
        """Shrink factor for ``timing`` faults (``seconds`` reinterpreted)."""
        if 0.0 < self.seconds < 1.0:
            return self.seconds
        return DEFAULT_TIMING_FACTOR

    def encode(self) -> str:
        return (
            f"{self.kind}:{self.config}:{self.mix}:{self.times}:{self.seconds:g}"
        )


def parse_fault(text: str) -> FaultSpec:
    """Parse one ``kind:config:mix[:times][:seconds]`` spec."""
    parts = text.strip().split(":")
    if len(parts) < 3:
        raise ValueError(
            f"fault spec {text!r} needs at least kind:config:mix"
        )
    kind, config, mix = parts[0], parts[1], parts[2]
    times = int(parts[3]) if len(parts) > 3 and parts[3] else 1
    seconds = float(parts[4]) if len(parts) > 4 and parts[4] else None
    return FaultSpec(kind=kind, config=config, mix=mix, times=times, seconds=seconds)


def parse_faults(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``;``-separated list of fault specs (empty → no faults)."""
    return tuple(
        parse_fault(part) for part in text.split(";") if part.strip()
    )


def encode_faults(specs: Tuple[FaultSpec, ...]) -> str:
    """Inverse of :func:`parse_faults` (for exporting via ``REPRO_FAULTS``)."""
    return ";".join(spec.encode() for spec in specs)


_installed: Optional[Tuple[FaultSpec, ...]] = None


def install(*specs: FaultSpec) -> None:
    """Activate exactly these faults in this process.

    Overrides ``REPRO_FAULTS`` and replaces any earlier :func:`install`.
    """
    global _installed
    _installed = tuple(specs)


def clear() -> None:
    """Deactivate in-process faults (``REPRO_FAULTS`` applies again)."""
    global _installed
    _installed = None


def active_faults() -> Tuple[FaultSpec, ...]:
    """Faults in effect: installed ones, else parsed from the environment."""
    if _installed is not None:
        return _installed
    return parse_faults(os.environ.get(ENV_VAR, ""))


def fault_for(
    kind: str, config: str, mix: str, attempt: int = 1
) -> Optional[FaultSpec]:
    """The first active fault of ``kind`` matching this cell attempt."""
    for spec in active_faults():
        if spec.kind == kind and spec.matches(config, mix, attempt):
            return spec
    return None


def inject(config: str, mix: str, attempt: int) -> None:
    """Apply the first matching cell-start fault for this cell attempt.

    Called by :func:`repro.experiments.runner.run_cell` before
    simulating.  No matching fault means no effect — production sweeps
    run this as a loop over an empty tuple.
    """
    for spec in active_faults():
        if spec.kind not in CELL_START_KINDS or not spec.matches(
            config, mix, attempt
        ):
            continue
        if spec.kind == "raise":
            raise InjectedFault(
                f"injected fault in cell ({config}, {mix}) attempt {attempt}"
            )
        if spec.kind == "crash":
            os._exit(CRASH_EXITCODE)
        time.sleep(spec.seconds)  # hang / slow
        return


def damage(path, how: str) -> None:
    """Damage a file in place, as the ``corrupt-*``/``truncate-*`` kinds do.

    ``how`` is the kind's prefix: ``corrupt`` flips bit 0 of the byte
    at ``min(len - 2, len // 2)`` — inside the body, past any preamble;
    ``truncate`` keeps the first half, a torn write that still reached
    its name.
    """
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if how == "truncate":
        del data[len(data) // 2:]
    elif data:
        data[min(len(data) - 2, len(data) // 2)] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(data)


__all__ = [
    "CRASH_EXITCODE",
    "DEFAULT_TIMING_FACTOR",
    "ENV_VAR",
    "FaultSpec",
    "KINDS",
    "active_faults",
    "clear",
    "damage",
    "encode_faults",
    "fault_for",
    "inject",
    "install",
    "parse_fault",
    "parse_faults",
]
