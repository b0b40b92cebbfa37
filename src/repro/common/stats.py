"""Lightweight statistics collection.

Every simulated component owns a :class:`StatGroup` obtained from the
machine-wide :class:`StatRegistry`.  Each named counter is a
:class:`Counter` slot object; components cache the slots they update per
event at construction time (``self._hits = stats.counter("hits")``) and
bump ``slot.value`` directly on the hot path — no string hashing per
access.  The string-keyed :meth:`StatGroup.add` interface remains for
cold paths and ad-hoc counters.  Per-core "freeze at N instructions,
keep executing" (the paper's methodology, Section 2.4) is implemented by
snapshotting a group.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple


class Counter:
    """One named statistic, bound once and bumped without a dict lookup.

    The hot-path contract is the public ``value`` attribute: call sites
    cache the object and run ``counter.value += 1.0`` per event, which is
    a single slot store.  :meth:`add` exists for call sites that want a
    callable instead.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (parity with :meth:`StatGroup.add`)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.value}>"


class StatGroup:
    """A named bag of numeric counters with optional freezing."""

    __slots__ = ("name", "_counters", "_frozen")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._frozen: Optional[Dict[str, float]] = None

    def counter(self, key: str) -> Counter:
        """The live :class:`Counter` slot for ``key`` (created at 0).

        Components call this once at construction and keep the returned
        object; later :meth:`add`/:meth:`get` calls on the same key see
        every ``value`` bump, and vice versa.
        """
        slot = self._counters.get(key)
        if slot is None:
            slot = Counter()
            self._counters[key] = slot
        return slot

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment counter ``key`` by ``amount`` (creates it at 0)."""
        slot = self._counters.get(key)
        if slot is None:
            slot = Counter()
            self._counters[key] = slot
        slot.value += amount

    def set(self, key: str, value: float) -> None:
        """Set counter ``key`` to an absolute value."""
        self.counter(key).value = value

    def get(self, key: str, default: float = 0.0) -> float:
        """Read the *live* value of a counter."""
        slot = self._counters.get(key)
        return default if slot is None else slot.value

    def freeze(self) -> None:
        """Snapshot current values; :meth:`value` reports the snapshot.

        Mirrors the paper's methodology: when a program finishes its
        instruction quota its statistics are frozen but it keeps running
        to contend for shared resources.
        """
        self._frozen = {key: slot.value for key, slot in self._counters.items()}

    @property
    def is_frozen(self) -> bool:
        return self._frozen is not None

    def value(self, key: str, default: float = 0.0) -> float:
        """Read a counter, honouring a freeze snapshot if one was taken."""
        if self._frozen is not None:
            return self._frozen.get(key, default)
        slot = self._counters.get(key)
        return default if slot is None else slot.value

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate over (key, reported value) pairs, honouring freezing.

        Yields in insertion order — deliberately NOT sorted, so hot-path
        consumers do not pay for a sort per call.  Use :meth:`as_dict`
        (or :meth:`StatRegistry.dump`) for sorted, report-ready output.
        """
        if self._frozen is not None:
            return iter(self._frozen.items())
        return ((key, slot.value) for key, slot in self._counters.items())

    def ratio(self, numerator: str, denominator: str) -> float:
        """``value(numerator) / value(denominator)``, 0 when undefined."""
        denom = self.value(denominator)
        if denom == 0:
            return 0.0
        return self.value(numerator) / denom

    def as_dict(self) -> Dict[str, float]:
        """Reported values as a plain dict (copy), sorted by key."""
        if self._frozen is not None:
            return dict(sorted(self._frozen.items()))
        return {
            key: self._counters[key].value for key in sorted(self._counters)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StatGroup {self.name!r} {len(self._counters)} counters>"


class StatRegistry:
    """All stat groups for one simulated machine."""

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: Dict[str, StatGroup] = {}

    def group(self, name: str) -> StatGroup:
        """Get or create the group called ``name``."""
        existing = self._groups.get(name)
        if existing is None:
            existing = StatGroup(name)
            self._groups[name] = existing
        return existing

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def groups(self) -> Iterator[StatGroup]:
        return iter(self._groups.values())

    def dump(self) -> Dict[str, Dict[str, float]]:
        """All reported values, nested by group name and sorted."""
        return {name: group.as_dict() for name, group in sorted(self._groups.items())}

