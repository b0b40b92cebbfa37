"""Occupancy-modelled buses.

A :class:`Bus` is a serially-shared resource: a transfer of N bytes
occupies it for ``ceil(N / width) * cycles_per_beat`` cycles, and the
next transfer queues behind it.  This captures the contention effect the
paper identifies as decisive ("the contention for the memory bus is much
greater ... increasing the bus width allows each L2 miss to occupy the
bus for many fewer cycles").

``wire_latency`` models propagation after the last beat leaves: tens of
cycles for the off-chip FSB + PCB path, effectively zero for TSVs (12 ps
across a 20-layer stack).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..common.stats import StatGroup


class Bus:
    """A shared bus with fixed width, beat time, and propagation delay."""

    def __init__(
        self,
        width_bytes: int,
        cycles_per_beat: int = 1,
        wire_latency: int = 0,
        stats: Optional[StatGroup] = None,
        name: str = "bus",
    ) -> None:
        if width_bytes < 1:
            raise ValueError("bus width must be at least one byte")
        if cycles_per_beat < 1:
            raise ValueError("cycles_per_beat must be at least 1")
        if wire_latency < 0:
            raise ValueError("wire latency cannot be negative")
        self.width_bytes = width_bytes
        self.cycles_per_beat = cycles_per_beat
        self.wire_latency = wire_latency
        self.name = name
        self.stats = stats if stats is not None else StatGroup(name)
        # Bound counter slots: transfer() runs once per line crossing.
        self._c_transfers = self.stats.counter("transfers")
        self._c_busy_cycles = self.stats.counter("busy_cycles")
        self._c_bytes = self.stats.counter("bytes")
        self._c_queue_cycles = self.stats.counter("queue_cycles")
        self._free_at = 0

    @property
    def free_at(self) -> int:
        """Cycle at which the bus next becomes idle."""
        return self._free_at

    def occupancy_cycles(self, size_bytes: int) -> int:
        """How long a transfer of ``size_bytes`` holds the bus."""
        # Integer ceil-division: avoids float conversion per transfer.
        beats = -(-size_bytes // self.width_bytes)
        if beats < 1:
            beats = 1
        return beats * self.cycles_per_beat

    def transfer(self, size_bytes: int, earliest_start: int) -> Tuple[int, int]:
        """Reserve the bus for a transfer.

        Returns ``(start, arrival)``: the cycle the transfer begins and
        the cycle the data is available at the far end (last beat plus
        wire latency).
        """
        occupancy = self.occupancy_cycles(size_bytes)
        free_at = self._free_at
        start = earliest_start if earliest_start > free_at else free_at
        end = start + occupancy
        self._free_at = end
        self._c_transfers.value += 1.0
        self._c_busy_cycles.value += occupancy
        self._c_bytes.value += size_bytes
        queue_delay = start - earliest_start
        if queue_delay > 0:
            self._c_queue_cycles.value += queue_delay
        return start, end + self.wire_latency

    def peek_arrival(self, size_bytes: int, earliest_start: int) -> int:
        """Arrival time a transfer *would* get, without reserving."""
        start = max(earliest_start, self._free_at)
        return start + self.occupancy_cycles(size_bytes) + self.wire_latency

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the bus spent busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.get("busy_cycles") / elapsed_cycles)

    def capture_state(self) -> dict:
        return {"v": 1, "free_at": self._free_at}

    def restore_state(self, state: dict) -> None:
        from ..common.versioning import check_state_version

        check_state_version(state, 1, "Bus")
        self._free_at = state["free_at"]
