"""Log-bucketed latency histogram.

Memory-system studies care about the latency *distribution*, not just
the mean (queueing produces heavy tails).  ``LatencyHistogram`` buckets
samples by power of two, which is accurate enough for percentile
reporting while staying O(1) per sample and O(64) memory.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class LatencyHistogram:
    """Power-of-two bucketed histogram over non-negative integers."""

    __slots__ = ("_buckets", "count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min_value: int | None = None
        self.max_value: int | None = None

    def record(self, value: int) -> None:
        """Add one sample."""
        if value < 0:
            raise ValueError("latency cannot be negative")
        bucket = value.bit_length()  # 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3...
        buckets = self._buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """Upper bound of the bucket containing the given percentile."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0
        threshold = fraction * self.count
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= threshold:
                return (1 << bucket) - 1 if bucket else 0
        raise RuntimeError("unreachable")  # pragma: no cover

    def buckets(self) -> List[Tuple[int, int, int]]:
        """(low, high, count) triples for non-empty buckets, ascending."""
        result = []
        for bucket in sorted(self._buckets):
            low = 0 if bucket == 0 else 1 << (bucket - 1)
            high = 0 if bucket == 0 else (1 << bucket) - 1
            result.append((low, high, self._buckets[bucket]))
        return result

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one."""
        for bucket, count in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total
        for value in (other.min_value, other.max_value):
            if value is None:
                continue
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    def format(self, label: str = "latency", width: int = 40) -> str:
        """ASCII rendering, one bar per bucket."""
        if self.count == 0:
            return f"{label}: no samples"
        peak = max(count for _, _, count in self.buckets())
        lines = [
            f"{label}: n={self.count} mean={self.mean:.1f} "
            f"p50<={self.percentile(0.5)} p99<={self.percentile(0.99)}"
        ]
        for low, high, count in self.buckets():
            bar = "#" * max(1, round(width * count / peak))
            lines.append(f"  [{low:>8d}-{high:>8d}] {count:>8d} {bar}")
        return "\n".join(lines)
