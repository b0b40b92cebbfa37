"""One sweep, one identity: :class:`SweepSpec` and its cell keys.

A :class:`SweepSpec` is the full ``run_matrix`` argument set — configs,
mixes, scale, seed, checkers, sampling — in serializable form:
``run_matrix`` writes its :meth:`~SweepSpec.signature` as the journal
header and builds its :class:`~repro.experiments.runner.CellTask` list
through :meth:`SweepSpec.tasks`, so every task checkpoints to
``<snapshot dir>/<cell key>.snap``.

A *cell* is one (configuration, workload, scale, seed) simulation.  Its
key is a canonical SHA-256 of everything that affects the simulation's
output — and nothing else — so that:

* a re-attempt of the same cell (by a retry, a resumed sweep or another
  process) finds its checkpoint;
* any change that *would* change the output (a config knob, the seed,
  the sampling plan, checkers on/off) changes the key, so a different
  cell never resumes from that checkpoint;
* cosmetic differences (dict field order, tuple-vs-list, a permuted
  benchmark list — core placement is canonical, see
  :class:`repro.system.machine.Machine`) hash identically in every
  process on every platform.

The scale's *name* is deliberately excluded: two scales with the same
instruction budgets run the same simulation.  The config and mix
*names* are deliberately included: they are embedded in the
``MachineResult`` (and key the result table).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from ..system.config import SystemConfig
from ..system.scale import ExperimentScale
from ..workloads.mixes import WorkloadMix

#: Bump when the key payload layout changes — old checkpoints become
#: unreachable (and are recomputed) instead of being misinterpreted.
#: v2: SystemConfig grew the stack-mode fields (stack_mode, l4_*,
#: offchip_*), changing the asdict payload.
#: v3: SystemConfig lost its ``ras`` field.
#: v4: SystemConfig lost its L1 replacement, L2 inclusion and MSHR
#: probe-latency switches (always LRU, inclusive, probes timed).
#: v5: SystemConfig lost the alloy/MemCache L4 fields (l4_tags,
#: l4_predictor, l4_cache_fraction, the repartition knobs) and the
#: one-valued off-chip/L4 MSHR sizes (offchip_*, l4_mshr_entries).
#: v6: SystemConfig lost its L2 replacement, DRAM page-policy,
#: interleaving-scheme and L2 MSHR banking switches (always LRU,
#: open-page, modulo-interleaved, one L2 MSHR file per MC).
#: v7: a full-detail result's ``avg_load_latency`` covers the measured
#: window only (before, warm-up loads were averaged in).
KEY_SCHEMA_VERSION = 7


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def config_to_dict(config: SystemConfig) -> dict:
    """A ``SystemConfig`` as a plain dict."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> SystemConfig:
    """Inverse of :func:`config_to_dict` (exact round trip).

    Raises ``ValueError`` naming every key that is not a
    ``SystemConfig`` field, e.g. a config written by another build.
    """
    known = {field.name for field in dataclasses.fields(SystemConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown SystemConfig fields: {', '.join(unknown)}")
    return SystemConfig(**data)


def scale_to_dict(scale: ExperimentScale) -> dict:
    """An ``ExperimentScale`` as a plain dict (name kept for display)."""
    return {
        "name": scale.name,
        "warmup_instructions": scale.warmup_instructions,
        "measure_instructions": scale.measure_instructions,
    }


def normalize_checkers(checkers) -> Optional[list]:
    """Canonical checker list: ``None`` when off, sorted names when on.

    ``"all"``, a comma-separated string, or an iterable of names all
    normalize to the same expanded list (so ``"all"`` and
    ``"dram-timing,mshr,queue"`` share a cell key).
    """
    if not checkers:
        return None
    from ..validate.hooks import resolve_checker_names

    return sorted(resolve_checker_names(checkers))


def normalize_sampling(sampling) -> Optional[dict]:
    """Canonical sampling-plan dict: ``None`` for full detail.

    Accepts a spec string (``"on"``, ``"detailed:1200,..."``) or a
    :class:`~repro.sampling.plan.SamplingPlan`; equivalent specs (e.g.
    ``"on"`` vs the default plan spelled out) normalize identically.
    """
    if not sampling:
        return None
    from ..sampling.plan import SamplingPlan, parse_sample_spec

    plan = (
        sampling
        if isinstance(sampling, SamplingPlan)
        else parse_sample_spec(sampling)
    )
    if plan is None:
        return None
    return dataclasses.asdict(plan)


def cell_payload(
    config: SystemConfig,
    mix_name: str,
    benchmarks: Sequence[str],
    scale: ExperimentScale,
    seed: int,
    checkers=None,
    sampling=None,
) -> dict:
    """The canonical (pre-hash) identity payload of one cell.

    ``benchmarks`` is sorted: canonical core placement makes a workload
    mix a *multiset* of benchmark instances, so permutations of the
    same benchmarks simulate identically and must share one entry.
    """
    return {
        "schema": KEY_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "mix": mix_name,
        "benchmarks": sorted(benchmarks),
        "warmup_instructions": scale.warmup_instructions,
        "measure_instructions": scale.measure_instructions,
        "seed": seed,
        "checkers": normalize_checkers(checkers),
        "sampling": normalize_sampling(sampling),
    }


def cell_key(
    config: SystemConfig,
    mix_name: str,
    benchmarks: Sequence[str],
    scale: ExperimentScale,
    seed: int,
    checkers=None,
    sampling=None,
) -> str:
    """Content hash (64 hex chars) identifying one cell's result."""
    payload = cell_payload(
        config, mix_name, benchmarks, scale, seed,
        checkers=checkers, sampling=sampling,
    )
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the full run_matrix argument set, serializable."""

    configs: Tuple[SystemConfig, ...]
    mixes: Tuple[WorkloadMix, ...]
    scale: ExperimentScale
    seed: int = 42
    checkers: Optional[str] = None
    sampling: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "mixes", tuple(self.mixes))
        # Cells are keyed by (config, mix) name everywhere downstream —
        # the result table and the journal — so a duplicated name would
        # silently overwrite sibling cells.
        config_names = [c.name for c in self.configs]
        if len(set(config_names)) != len(config_names):
            raise ValueError(f"duplicate config names in sweep: {config_names}")
        mix_names = [m.name for m in self.mixes]
        if len(set(mix_names)) != len(mix_names):
            raise ValueError(f"duplicate mix names in sweep: {mix_names}")
        if not self.configs or not self.mixes:
            raise ValueError("a sweep needs at least one config and one mix")

    def cells(self) -> Iterator[Tuple[SystemConfig, WorkloadMix]]:
        for config in self.configs:
            for mix in self.mixes:
                yield config, mix

    def tasks(
        self,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        preemptible: bool = True,
    ) -> list:
        """One :class:`CellTask` per cell.

        Building the keys resolves the checker and sampling specs, so
        a malformed one fails here, before anything is simulated.  With
        ``snapshot_dir`` each task checkpoints every ``snapshot_every``
        cycles to ``<snapshot_dir>/<cell key>.snap``: a rescheduled or
        recovered attempt of the same cell finds its checkpoint, a
        different cell never can.  ``preemptible`` tasks honor a
        SIGUSR1 request to checkpoint and yield (only supervised
        workers receive one).
        """
        from .runner import CellTask  # the runner imports this module

        if snapshot_dir is not None:
            from ..snapshot import SnapshotPlan

            os.makedirs(snapshot_dir, exist_ok=True)
        tasks = []
        for config, mix in self.cells():
            key = cell_key(
                config, mix.name, mix.benchmarks, self.scale, self.seed,
                checkers=self.checkers, sampling=self.sampling,
            )
            snapshot = None
            if snapshot_dir is not None:
                snapshot = SnapshotPlan(
                    path=os.path.join(snapshot_dir, f"{key}.snap"),
                    every=snapshot_every,
                    preemptible=preemptible,
                )
            tasks.append(
                CellTask(
                    config=config,
                    mix_name=mix.name,
                    benchmarks=tuple(mix.benchmarks),
                    warmup_instructions=self.scale.warmup_instructions,
                    measure_instructions=self.scale.measure_instructions,
                    seed=self.seed,
                    checkers=self.checkers,
                    sampling=self.sampling,
                    snapshot=snapshot,
                )
            )
        return tasks

    def to_dict(self) -> dict:
        return {
            "configs": [config_to_dict(c) for c in self.configs],
            "mixes": [dataclasses.asdict(m) for m in self.mixes],
            "scale": scale_to_dict(self.scale),
            "seed": self.seed,
            "checkers": self.checkers,
            "sampling": self.sampling,
        }

    def signature(self) -> dict:
        """The journal header's signature: :meth:`to_dict` in JSON form.

        ``dataclasses.asdict`` keeps tuples, and a replayed header holds
        lists, so the two are compared after a JSON round trip.
        """
        return json.loads(json.dumps(self.to_dict()))


__all__ = [
    "KEY_SCHEMA_VERSION",
    "SweepSpec",
    "canonical_json",
    "cell_key",
    "cell_payload",
    "config_from_dict",
    "config_to_dict",
    "normalize_checkers",
    "normalize_sampling",
    "scale_to_dict",
]
