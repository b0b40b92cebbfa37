"""The RAS controller: ECC pipeline, poison propagation, degradation.

One :class:`RasController` serves the whole machine.  Memory controllers
call into it from exactly three seams (each behind an
``if self.ras is not None`` attribute branch, so a RAS-less machine's
request path is byte-for-byte untouched):

* :meth:`map_coords` — on enqueue, steer requests away from retired
  banks (graceful degradation, stage 3).
* :meth:`on_read` — after the bank produces data: draw this access's
  faults, run the ECC classification, retry detected-but-uncorrectable
  reads with bounded backoff, add correction latency, and poison the
  request when recovery fails.
* :meth:`on_write` — writes land fresh data (new fault generation) and
  poisoned writebacks are counted.

Cores call :meth:`on_poison_consumed` when a poisoned fill reaches
commit — the machine-check event.  Under the ``"fatal"`` policy that
raises :class:`~repro.common.errors.UncorrectableMemoryError`, which
propagates out of the engine and is recorded by ``run_matrix`` as a
structured ``CellFailure``.

Degradation policies, in escalation order:

1. **Retry with backoff** — detected errors re-read the same bank up to
   ``retry_limit`` times, ``retry_backoff * attempt`` cycles apart.
   Transient flips re-roll per attempt; retention/stuck-at/hard bits
   persist, so retry only rescues genuinely soft errors.
2. **Refresh-rate escalation** — ``escalation_threshold`` retention
   errors on one rank within ``escalation_window`` cycles double that
   rank's refresh rate (up to ``max_refresh_multiplier``), which halves
   the effective retention-error rate.  The DRAM-timing shadow checker
   is notified through the bank observer seam so its reference replicas
   escalate cycle-identically.
3. **Bank retirement** — ``bank_retire_threshold`` uncorrectable errors
   on one bank retire it in the MC's
   :class:`~repro.memctrl.mapping.BankRemapTable`; later requests are
   remapped to a healthy bank in the same rank.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..common.errors import UncorrectableMemoryError
from ..common.request import MemoryRequest, check_live
from ..common.stats import StatGroup
from ..dram.timing import DramTiming
from ..memctrl.mapping import BankRemapTable, DramCoordinates
from .config import RasConfig
from .ecc import OUTCOME_CORRECTED, OUTCOME_DETECTED, OUTCOME_OK, get_scheme
from .injector import FaultInjector


class RasController:
    """Machine-wide RAS state: injector, ECC scheme, degradation."""

    def __init__(
        self,
        config: RasConfig,
        seed: int,
        stats: StatGroup,
        timing: DramTiming,
        thermal_factor: float = 1.0,
    ) -> None:
        self.config = config
        self.scheme = get_scheme(config.ecc)
        self.injector = FaultInjector(config, seed, thermal_factor)
        if config.correction_latency is not None:
            self.correction_latency = config.correction_latency
        else:
            self.correction_latency = (
                self.scheme.correction_depth * timing.t_ecc_correction
            )
        self.stats = stats
        # With every rate at zero no draw can ever fire, so the per-read
        # token minting and fault evaluation are unobservable; the read
        # seam collapses to a counter bump.  This keeps a zero-rate
        # RAS-on run within the wall-clock hook budget the trajectory
        # bench enforces (see bench_figure4_rasoff).
        self._draws_possible = (
            config.transient_rate > 0.0
            or config.retention_rate > 0.0
            or config.stuckat_rate > 0.0
            or config.hard_fail_rate > 0.0
        )
        self._c_reads = stats.counter("reads_checked")
        self._c_transient_bits = stats.counter("transient_bits")
        self._c_retention_bits = stats.counter("retention_bits")
        self._c_stuckat_bits = stats.counter("stuckat_bits")
        self._c_hard_bits = stats.counter("hard_bits")
        self._c_corrected = stats.counter("corrected")
        self._c_penalty = stats.counter("penalty_cycles")
        self._c_retries = stats.counter("retries")
        self._c_retry_recoveries = stats.counter("retry_recoveries")
        self._c_uncorrected = stats.counter("uncorrected")
        self._c_silent = stats.counter("silent")
        self._c_poisoned_writebacks = stats.counter("poisoned_writebacks")
        self._c_machine_checks = stats.counter("machine_checks")
        self._c_escalations = stats.counter("refresh_escalations")
        self._c_banks_retired = stats.counter("banks_retired")
        self._c_remapped = stats.counter("remapped_requests")
        # Per-MC retirement tables and per-rank retention-burst windows.
        self._remap_tables: Dict[int, BankRemapTable] = {}
        self._retention_events: Dict[Tuple[int, int], Deque[int]] = {}
        self._uncorrectable_by_bank: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_controller(self, controller) -> None:
        """Hook one memory controller into the RAS pipeline."""
        self._remap_tables[controller.mc_id] = BankRemapTable(
            controller.device.num_ranks, controller.device.banks_per_rank
        )
        controller.ras = self

    # ------------------------------------------------------------------
    # Enqueue seam: retired-bank remapping
    # ------------------------------------------------------------------
    def map_coords(
        self, mc_id: int, coords: DramCoordinates
    ) -> DramCoordinates:
        table = self._remap_tables[mc_id]
        if not table.has_retirements:
            return coords
        rank, bank = table.lookup(coords.rank, coords.bank)
        if rank == coords.rank and bank == coords.bank:
            return coords
        self._c_remapped.value += 1.0
        return coords._replace(rank=rank, bank=bank)

    # ------------------------------------------------------------------
    # Read seam: injection -> ECC -> retry -> poison
    # ------------------------------------------------------------------
    def on_read(
        self,
        controller,
        coords: DramCoordinates,
        request: MemoryRequest,
        start: int,
        data_time: int,
    ) -> int:
        """ECC-check one DRAM read; returns the (possibly later) data time."""
        check_live(request, "ras read pipeline")
        self._c_reads.value += 1.0
        if not self._draws_possible:
            return data_time
        config = self.config
        mc = controller.mc_id
        rank_id, bank_id = coords.rank, coords.bank
        rank = controller.device.ranks[rank_id]
        multiplier = rank.refresh.multiplier
        token = self.injector.begin_read(mc, rank_id, bank_id, request.addr)
        faults = self.injector.faults_for(
            mc, rank_id, bank_id, token, 0, multiplier
        )
        if faults.transient:
            self._c_transient_bits.value += faults.transient
        if faults.retention:
            self._c_retention_bits.value += faults.retention
            self._note_retention(controller, rank_id, rank)
        if faults.stuckat:
            self._c_stuckat_bits.value += faults.stuckat
        if faults.hard:
            self._c_hard_bits.value += faults.hard
        if not faults.total:
            return data_time

        clean_data_time = data_time
        outcome = self.scheme.classify(faults.total)
        attempt = 0
        while outcome == OUTCOME_DETECTED and attempt < config.retry_limit:
            # Bounded retry with linear backoff: a real re-read of the
            # same bank (it goes through Bank.access, so the timing
            # checkers replay it like any other command).
            attempt += 1
            self._c_retries.value += 1.0
            check_live(request, "ras retry path")
            retry_start = data_time + config.retry_backoff * attempt
            data_time, _ = controller.device.access(
                rank_id, bank_id, coords.row, retry_start, is_write=False
            )
            faults = self.injector.faults_for(
                mc, rank_id, bank_id, token, attempt, multiplier
            )
            outcome = self.scheme.classify(faults.total)

        if outcome == OUTCOME_OK:
            # Every errored bit was transient and the re-read came clean.
            self._c_retry_recoveries.value += 1.0
        elif outcome == OUTCOME_CORRECTED:
            self._c_corrected.value += 1.0
            data_time += self.correction_latency
        elif outcome == OUTCOME_DETECTED:
            # Detected, retries exhausted: deliver poisoned data (MCA
            # style) and let consumption decide severity; the bank's
            # uncorrectable count feeds retirement.
            self._c_uncorrected.value += 1.0
            request.poisoned = True
            self._note_uncorrectable(mc, rank_id, bank_id)
        else:
            # Silent corruption: beyond (or without) coverage, nothing
            # notices in-band.  The counter is the simulator's omniscience.
            self._c_silent.value += 1.0
        # Cycles this read spent in the RAS pipeline (correction latency
        # plus retry backoff and re-reads).  This *attributed* cost is
        # monotone in the injected fault rate by the keyed-PRNG subset
        # property, unlike end-to-end IPC, which a perturbed schedule can
        # nudge either way — the RAS study's overhead column is built on
        # it for exactly that reason.
        if data_time > clean_data_time:
            self._c_penalty.value += data_time - clean_data_time
        return data_time

    # ------------------------------------------------------------------
    # Write seam
    # ------------------------------------------------------------------
    def on_write(
        self, controller, coords: DramCoordinates, request: MemoryRequest
    ) -> None:
        if self._draws_possible:
            self.injector.note_write(request.addr)
        if request.poisoned:
            # Poison written back to DRAM: the line's *stored* data is
            # bad, but the write lands a fresh generation whose fault
            # draws are independent — the poison flag itself travels
            # with the cache line, not the DRAM cell.
            self._c_poisoned_writebacks.value += 1.0

    # ------------------------------------------------------------------
    # Consumption seam (cores)
    # ------------------------------------------------------------------
    def on_poison_consumed(self, core_id: int, request: MemoryRequest) -> None:
        """A core committed a load whose data was poisoned: machine check."""
        self._c_machine_checks.value += 1.0
        if self.config.machine_check_policy == "fatal":
            raise UncorrectableMemoryError(
                f"core {core_id} consumed uncorrectable data at "
                f"{request.addr:#x}",
                component=f"core{core_id}",
                addr=request.addr,
                core_id=core_id,
            )

    # ------------------------------------------------------------------
    # Degradation internals
    # ------------------------------------------------------------------
    def _note_retention(self, controller, rank_id: int, rank) -> None:
        """Track a retention error; escalate refresh on a burst."""
        config = self.config
        now = controller.engine.now
        key = (controller.mc_id, rank_id)
        events = self._retention_events.get(key)
        if events is None:
            events = self._retention_events[key] = deque()
        events.append(now)
        cutoff = now - config.escalation_window
        while events and events[0] < cutoff:
            events.popleft()
        if len(events) < config.escalation_threshold:
            return
        events.clear()
        current = rank.refresh.multiplier
        if current >= config.max_refresh_multiplier:
            return  # saturated; nothing further to escalate
        target = min(current * 2, config.max_refresh_multiplier)
        rank.refresh.set_multiplier(target, now)
        self._c_escalations.value += 1.0
        # The shadow checker's reference banks each own a private
        # RefreshSchedule; broadcast the escalation through the bank
        # observer seam so they re-anchor at the identical boundary.
        for bank_id, bank in enumerate(rank.banks):
            observers = getattr(bank.access, "observers", None)
            if not observers:
                continue
            for observer in observers:
                hook = getattr(observer, "on_refresh_escalation", None)
                if hook is not None:
                    hook(controller.mc_id, rank_id, bank_id, target, now)

    def _note_uncorrectable(self, mc: int, rank_id: int, bank_id: int) -> None:
        key = (mc, rank_id, bank_id)
        count = self._uncorrectable_by_bank.get(key, 0) + 1
        self._uncorrectable_by_bank[key] = count
        if count < self.config.bank_retire_threshold:
            return
        table = self._remap_tables[mc]
        if table.retire(rank_id, bank_id):
            self._c_banks_retired.value += 1.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def refresh_multiplier_of(self, controller, rank_id: int) -> int:
        return controller.device.ranks[rank_id].refresh.multiplier

    def result_extra(self) -> Dict[str, float]:
        """``ras_*`` keys merged into ``MachineResult.extra``."""
        stats = self.stats
        return {
            "ras_reads": stats.get("reads_checked"),
            "ras_corrected": stats.get("corrected"),
            "ras_penalty_cycles": stats.get("penalty_cycles"),
            "ras_uncorrected": stats.get("uncorrected"),
            "ras_silent": stats.get("silent"),
            "ras_retries": stats.get("retries"),
            "ras_retry_recoveries": stats.get("retry_recoveries"),
            "ras_machine_checks": stats.get("machine_checks"),
            "ras_refresh_escalations": stats.get("refresh_escalations"),
            "ras_banks_retired": stats.get("banks_retired"),
            "ras_remapped_requests": stats.get("remapped_requests"),
            "ras_storage_overhead": self.scheme.storage_overhead,
        }
