"""The full main-memory system: one or more memory controllers.

``MainMemory`` instantiates ``num_mcs`` controllers, each with a private
channel (bus) and a disjoint set of ranks, per Figure 5: controller
``m`` owns global ranks ``m * ranks_per_mc`` onwards, as its
``banks[rank][bank]`` grid.  The aggregate MRQ capacity (32 in the
paper) is divided evenly among controllers.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..common.request import MemoryRequest
from ..common.stats import StatRegistry
from ..dram.bank import build_banks
from ..dram.timing import DramTiming
from ..engine.simulator import Engine
from ..interconnect.bus import Bus
from .controller import MemoryController
from .mapping import AddressMapping
from .schedulers import make_scheduler


class MainMemory:
    """Facade over every memory controller and DRAM rank in the machine."""

    __slots__ = ("engine", "registry", "mapping", "controllers", "_mc_shift")

    def __init__(
        self,
        engine: Engine,
        timing: DramTiming,
        bus_factory: Callable[[str], Bus],
        registry: Optional[StatRegistry] = None,
        num_mcs: int = 1,
        total_ranks: int = 8,
        banks_per_rank: int = 8,
        row_buffer_entries: int = 1,
        aggregate_queue_capacity: int = 32,
        scheduler: str = "fr-fcfs",
        mc_quantum: int = 1,
        mc_transaction_overhead: int = 0,
        page_size: int = 4096,
        line_size: int = 64,
        first_mc_id: int = 0,
        stat_prefix: str = "",
    ) -> None:
        """``first_mc_id``/``stat_prefix`` let a second memory system
        coexist with the primary one (the stack-mode facade's off-chip
        DRAM): controllers get globally unique ``mc_id``s (transcripts
        and checker keys stay unambiguous) and every stat group is
        namespaced (e.g. ``offchip.mc1``, ``offchip.dram.rank0.bank0``)
        so the DRAM power model's ``dram.`` aggregation still counts
        only the stack.  The defaults are byte-identical to the
        single-system machine."""
        if total_ranks % num_mcs != 0:
            raise ValueError(
                f"{total_ranks} ranks cannot be split evenly over {num_mcs} MCs"
            )
        if aggregate_queue_capacity % num_mcs != 0:
            raise ValueError(
                f"aggregate MRQ capacity {aggregate_queue_capacity} must divide "
                f"evenly over {num_mcs} MCs"
            )
        self.engine = engine
        self.registry = registry if registry is not None else StatRegistry()
        ranks_per_mc = total_ranks // num_mcs
        self.mapping = AddressMapping(
            num_mcs=num_mcs,
            ranks_per_mc=ranks_per_mc,
            banks_per_rank=banks_per_rank,
            page_size=page_size,
            line_size=line_size,
        )
        # mapping.mc_index's page shift, for the routing in enqueue.
        self._mc_shift = self.mapping._page_shift
        per_mc_queue = aggregate_queue_capacity // num_mcs
        self.controllers: List[MemoryController] = []
        for local_mc in range(num_mcs):
            mc_id = first_mc_id + local_mc
            banks = build_banks(
                timing,
                num_ranks=ranks_per_mc,
                banks_per_rank=banks_per_rank,
                row_buffer_entries=row_buffer_entries,
                registry=self.registry,
                first_rank_id=local_mc * ranks_per_mc,
                stat_prefix=stat_prefix,
            )
            bus = bus_factory(f"{stat_prefix}mc{mc_id}.bus")
            self.controllers.append(
                MemoryController(
                    mc_id=mc_id,
                    engine=engine,
                    banks=banks,
                    bus=bus,
                    scheduler=make_scheduler(scheduler),
                    mapping=self.mapping,
                    queue_capacity=per_mc_queue,
                    quantum=mc_quantum,
                    transaction_overhead=mc_transaction_overhead,
                    stats=self.registry.group(f"{stat_prefix}mc{mc_id}"),
                )
            )

    @property
    def num_mcs(self) -> int:
        return len(self.controllers)

    def controller_for(self, addr: int) -> MemoryController:
        """The MC owning ``addr`` under page interleaving."""
        return self.controllers[self.mapping.mc_index(addr)]

    def enqueue(self, request: MemoryRequest) -> bool:
        """Route a request to its controller; False when that MRQ is full."""
        controllers = self.controllers
        return controllers[
            (request.addr >> self._mc_shift) % len(controllers)
        ].enqueue(request)

    def wait_for_space(self, addr: int, callback: Callable[[], None]) -> None:
        """One-shot callback when the MC owning ``addr`` frees a slot."""
        self.controller_for(addr).wait_for_space(callback)

    # -- functional-warmup path -----------------------------------------
    def functional_touch(self, addr: int, is_write: bool) -> None:
        """Update the target bank's open-row state without timing/stats."""
        coords = self.mapping.decompose(addr)
        bank = self.controllers[coords.mc].banks[coords.rank][coords.bank]
        bank.functional_touch(coords.row, is_write)

    def functional_fetch(self, line: int) -> None:
        """Functional read reaching DRAM (L2/L3 miss during warmup)."""
        self.functional_touch(line, is_write=False)

    def functional_writeback(self, line: int) -> None:
        """Functional writeback reaching DRAM during warmup."""
        self.functional_touch(line, is_write=True)

    def row_hit_rate(self) -> float:
        """Aggregate DRAM row-buffer hit rate across all controllers."""
        hits = sum(mc.stats.get("row_hits") for mc in self.controllers)
        misses = sum(mc.stats.get("row_misses") for mc in self.controllers)
        total = hits + misses
        return hits / total if total else 0.0

