"""The benchmarks of Table 2(a), as calibrated synthetic traces.

Each spec records the paper's stand-alone L2 MPKI (6 MiB L2) and builds a
generator whose pattern and intensity land in the same band, preserving
the table's ordering from Stream (hundreds of misses per kilo-instruction)
down to namd (about one).  ``base_cpi`` is the non-memory execution CPI
used by the core model's commit pacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from ..common.units import KIB, MIB
from ..cpu.trace import BatchedTrace, TraceBatch, TraceItem, as_batched
from . import synthetic as syn

TraceFactory = Callable[[int, int], Iterator[TraceItem]]
BatchFactory = Callable[[int, int], Iterator[TraceBatch]]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: identity, paper metadata, and a trace factory."""

    name: str
    suite: str
    paper_mpki: float
    factory: TraceFactory = field(repr=False)
    base_cpi: float = 0.5
    #: Native columnar producer emitting the identical item stream as
    #: TraceBatch chunks; None falls back to chunking ``factory``.
    batch_factory: Optional[BatchFactory] = field(default=None, repr=False)

    def trace(self, base: int, seed: int) -> Iterator[TraceItem]:
        """Instantiate the trace rooted at virtual address ``base``."""
        return self.factory(base, seed)

    def batched_trace(self, base: int, seed: int) -> BatchedTrace:
        """Instantiate the trace in columnar form (same item stream).

        Uses the native batch producer when the generator has one —
        columns are then built at C iteration speed — and otherwise
        chunks the per-item generator through
        :func:`repro.cpu.trace.batch_iter`.
        """
        if self.batch_factory is not None:
            return BatchedTrace(self.batch_factory(base, seed))
        return as_batched(self.factory(base, seed))


def _spec(
    name: str,
    suite: str,
    paper_mpki: float,
    factory: TraceFactory,
    base_cpi: float = 0.5,
    batch_factory: Optional[BatchFactory] = None,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name, suite, paper_mpki, factory, base_cpi, batch_factory
    )


_BIG = 64 * MIB  # canonical "much larger than the 6 MiB L2" footprint


def _stream(reads: int, writes: int, gap: int) -> TraceFactory:
    return lambda base, seed: syn.stream_kernel(
        base, array_bytes=8 * MIB, reads_per_element=reads,
        writes_per_element=writes, gap=gap,
    )


def _stream_batches(reads: int, writes: int, gap: int) -> BatchFactory:
    return lambda base, seed: syn.stream_kernel_batches(
        base, array_bytes=8 * MIB, reads_per_element=reads,
        writes_per_element=writes, gap=gap,
    )


def _hot_cold_spec(
    name: str, suite: str, paper_mpki: float, cold_fraction: float,
    base_cpi: float = 0.5,
) -> BenchmarkSpec:
    """A moderate/low-MPKI benchmark: 16 KiB hot set, 256 MiB cold region."""
    shape = dict(
        hot_bytes=16 * KIB, cold_bytes=256 * MIB,
        cold_fraction=cold_fraction, gap=9,
    )
    return _spec(
        name, suite, paper_mpki,
        lambda base, seed: syn.hot_cold(base, seed=seed, **shape),
        base_cpi,
        batch_factory=lambda base, seed: syn.hot_cold_batches(
            base, seed=seed, **shape
        ),
    )


BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        # --- Stream family (very high miss rates) ---------------------
        _spec("S.copy", "Stream", 326.9, _stream(1, 1, 0),
              batch_factory=_stream_batches(1, 1, 0)),
        _spec("S.add", "Stream", 313.2, _stream(2, 1, 0),
              batch_factory=_stream_batches(2, 1, 0)),
        _spec(
            "S.all", "Stream", 282.2,
            lambda base, seed: syn.stream_all(base, array_bytes=8 * MIB, gap=0),
            batch_factory=lambda base, seed: syn.stream_all_batches(
                base, array_bytes=8 * MIB, gap=0,
            ),
        ),
        _spec("S.triad", "Stream", 254.0, _stream(2, 1, 0),
              batch_factory=_stream_batches(2, 1, 0)),
        _spec("S.scale", "Stream", 252.1, _stream(1, 1, 0),
              batch_factory=_stream_batches(1, 1, 0)),
        # --- High miss rates ------------------------------------------
        _spec(
            "tigr", "BioBench", 170.6,
            lambda base, seed: syn.sequential_scan(
                base, footprint=_BIG, stride=64, gap=5, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.sequential_scan_batches(
                base, footprint=_BIG, stride=64, gap=5, seed=seed,
            ),
        ),
        _spec(
            "qsort", "MiBench", 153.6,
            lambda base, seed: syn.random_uniform(
                base, footprint=_BIG, gap=2, seed=seed, rmw=True,
            ),
            batch_factory=lambda base, seed: syn.random_uniform_batches(
                base, footprint=_BIG, gap=2, seed=seed, rmw=True,
            ),
        ),
        _spec(
            "libquantum", "SpecInt'06", 134.5,
            lambda base, seed: syn.strided(
                base, footprint=_BIG, stride=16, gap=1,
                write_fraction=0.3, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.strided_batches(
                base, footprint=_BIG, stride=16, gap=1,
                write_fraction=0.3, seed=seed,
            ),
        ),
        _spec(
            "soplex", "SpecFP'06", 80.2,
            lambda base, seed: syn.pointer_chase(
                base, footprint=_BIG, gap=11, seed=seed, write_fraction=0.1,
            ),
            batch_factory=lambda base, seed: syn.pointer_chase_batches(
                base, footprint=_BIG, gap=11, seed=seed, write_fraction=0.1,
            ),
        ),
        _spec(
            "milc", "SpecFP'06", 52.6,
            lambda base, seed: syn.strided(
                base, footprint=_BIG, stride=64, gap=18,
                write_fraction=0.2, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.strided_batches(
                base, footprint=_BIG, stride=64, gap=18,
                write_fraction=0.2, seed=seed,
            ),
        ),
        _spec(
            "wupwise", "SpecFP'00", 40.4,
            lambda base, seed: syn.strided(
                base, footprint=_BIG, stride=64, gap=24,
                write_fraction=0.25, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.strided_batches(
                base, footprint=_BIG, stride=64, gap=24,
                write_fraction=0.25, seed=seed,
            ),
        ),
        _spec(
            "equake", "SpecFP'00", 37.3,
            lambda base, seed: syn.random_uniform(
                base, footprint=_BIG, gap=26, write_fraction=0.15, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.random_uniform_batches(
                base, footprint=_BIG, gap=26, write_fraction=0.15, seed=seed,
            ),
        ),
        _spec(
            "lbm", "SpecFP'06", 36.5,
            lambda base, seed: syn.stream_kernel(
                base, array_bytes=8 * MIB, reads_per_element=1,
                writes_per_element=1, gap=2,
            ),
            batch_factory=lambda base, seed: syn.stream_kernel_batches(
                base, array_bytes=8 * MIB, reads_per_element=1,
                writes_per_element=1, gap=2,
            ),
        ),
        _spec(
            "mcf", "SpecInt'06", 35.1,
            lambda base, seed: syn.pointer_chase(
                base, footprint=_BIG, gap=27, seed=seed, write_fraction=0.1,
            ),
            base_cpi=0.7,  # heavy dependence chains even off-memory
            batch_factory=lambda base, seed: syn.pointer_chase_batches(
                base, footprint=_BIG, gap=27, seed=seed, write_fraction=0.1,
            ),
        ),
        # --- Moderate miss rates --------------------------------------
        _spec(
            "mummer", "BioBench", 29.2,
            lambda base, seed: syn.sequential_scan(
                base, footprint=_BIG, stride=64, gap=33, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.sequential_scan_batches(
                base, footprint=_BIG, stride=64, gap=33, seed=seed,
            ),
        ),
        _spec(
            "swim", "SpecFP'00", 18.7,
            lambda base, seed: syn.strided(
                base, footprint=_BIG, stride=64, gap=52,
                write_fraction=0.3, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.strided_batches(
                base, footprint=_BIG, stride=64, gap=52,
                write_fraction=0.3, seed=seed,
            ),
        ),
        _spec(
            "omnetpp", "SpecInt'06", 14.6,
            lambda base, seed: syn.pointer_chase(
                base, footprint=32 * MIB, gap=67, seed=seed, write_fraction=0.2,
            ),
            batch_factory=lambda base, seed: syn.pointer_chase_batches(
                base, footprint=32 * MIB, gap=67, seed=seed, write_fraction=0.2,
            ),
        ),
        _spec(
            "applu", "SpecFP'06", 12.2,
            lambda base, seed: syn.strided(
                base, footprint=_BIG, stride=64, gap=81,
                write_fraction=0.25, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.strided_batches(
                base, footprint=_BIG, stride=64, gap=81,
                write_fraction=0.25, seed=seed,
            ),
        ),
        _spec(
            "mgrid", "SpecFP'06", 9.2,
            lambda base, seed: syn.strided(
                base, footprint=_BIG, stride=64, gap=108,
                write_fraction=0.2, seed=seed,
            ),
            batch_factory=lambda base, seed: syn.strided_batches(
                base, footprint=_BIG, stride=64, gap=108,
                write_fraction=0.2, seed=seed,
            ),
        ),
        _hot_cold_spec("apsi", "SpecFP'06", 3.9, 0.039),
        # --- Low miss rates -------------------------------------------
        _hot_cold_spec("h264", "MediaBench-II", 2.9, 0.029),
        _hot_cold_spec("mesa", "MediaBench-I", 2.4, 0.024),
        _hot_cold_spec("gzip", "SpecInt'00", 1.4, 0.014),
        _hot_cold_spec("astar", "SpecInt'06", 1.4, 0.014),
        _hot_cold_spec("zeusmp", "SpecFP'06", 1.4, 0.014),
        _hot_cold_spec("bzip2", "SpecInt'06", 1.4, 0.014),
        _hot_cold_spec("vortex", "SpecInt'00", 1.3, 0.013),
        _hot_cold_spec("namd", "SpecFP'06", 1.0, 0.010, base_cpi=0.45),
    ]
}


def get_benchmark(name: str) -> BenchmarkSpec:
    """Lookup by Table-2 name; raises with the known names on a typo."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None
