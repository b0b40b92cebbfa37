"""Instrumentation seams: attach checkers and recorders to a machine.

The simulator's hot paths carry **zero** checking overhead: nothing in
:mod:`repro.dram`, :mod:`repro.mshr`, or :mod:`repro.memctrl` ever
tests a "checking enabled?" flag.  Instead, this module *wraps instance
methods* of an already-wired machine — ``Bank.access``,
``MshrFile.search/allocate/deallocate``,
``MemoryController.enqueue/_issue`` — so instrumented objects pay for
observation and un-instrumented objects are byte-for-byte the code that
production sweeps run.  ``Bank``, the MSHR files and
``MemoryController`` declare a ``"__dict__"`` slot for these wrappers
alone; their state stays in declared slots, which the snapshot walk
reads.

Each bank carries a single observer list shared by every consumer
(timing checker, transcript recorder), so attaching both wraps the
method once.  ``attach_checkers`` is the high-level entry used by
``Machine(checkers=...)``; ``instrument_banks`` is the low-level seam
the differential harness uses to record transcripts without any
checking.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..experiments import faults
from .base import Checker, CheckerSet
from .dram_timing import DramTimingChecker
from .mshr_check import MshrConservationChecker
from .queue_check import QueueConservationChecker

#: Every registered checker, in attach order.
CHECKER_NAMES: Tuple[str, ...] = ("dram-timing", "mshr", "queue")

CheckerSpec = Union[None, bool, str, Iterable[str]]


def resolve_checker_names(spec: CheckerSpec) -> Tuple[str, ...]:
    """Normalize a user-facing checker spec to a tuple of checker names.

    Accepts ``None``/``False`` (no checkers), ``True`` or ``"all"``
    (every checker), a comma-separated string, or an iterable of names.
    """
    if spec is None or spec is False or spec == "":
        return ()
    if spec is True or spec == "all":
        return CHECKER_NAMES
    if isinstance(spec, str):
        names = tuple(part.strip() for part in spec.split(",") if part.strip())
    else:
        names = tuple(spec)
    for name in names:
        if name not in CHECKER_NAMES:
            raise ValueError(
                f"unknown checker {name!r}; known: {', '.join(CHECKER_NAMES)}"
            )
    # Preserve canonical order and drop duplicates.
    return tuple(name for name in CHECKER_NAMES if name in names)


# ----------------------------------------------------------------------
# Bank seam
# ----------------------------------------------------------------------
def _bank_observers(bank, mc_id: int, rank_id: int, bank_id: int) -> List:
    """The (single) observer list of one bank, wrapping ``access`` once.

    The list hangs off the wrapper (``bank.access.observers``), not the
    bank: instrumentation is not machine state, so a snapshot walks
    neither the wrappers nor what they observe into.
    """
    observers = bank_observers(bank)
    if observers is not None:
        return observers
    observers = []
    original = bank.access
    original_touch = bank.functional_touch

    def access(start, row, is_write, _original=original, _observers=observers):
        data_time, hit = _original(start, row, is_write)
        open_rows = bank.open_rows
        for observer in _observers:
            observer.on_bank_access(
                mc_id, rank_id, bank_id,
                start, row, is_write, data_time, hit, open_rows,
            )
        return data_time, hit

    def functional_touch(
        row, is_write, _original=original_touch, _observers=observers
    ):
        # Functional warmup (sampled simulation) moves open-row state
        # without timing; observers that track bank state must replay it
        # or their reference diverges from the real bank.
        _original(row, is_write)
        for observer in _observers:
            on_touch = getattr(observer, "on_bank_functional_touch", None)
            if on_touch is not None:
                on_touch(mc_id, rank_id, bank_id, row, is_write)

    access.observers = observers
    bank.access = access
    bank.functional_touch = functional_touch
    return observers


def bank_observers(bank) -> Optional[List]:
    """The observers instrumenting ``bank``, or None if it has none."""
    return getattr(bank.access, "observers", None)


def _controllers_of(target) -> Sequence:
    """MC list of a ``Machine`` or a ``MainMemory`` (duck-typed)."""
    memory = getattr(target, "memory", target)
    return memory.controllers


def instrument_banks(target, *observers) -> int:
    """Attach bank-access observers to every bank of a machine or memory.

    Each observer needs an ``on_bank_access(mc, rank, bank, start, row,
    is_write, data_time, hit, open_rows)`` method.  Returns the number
    of banks instrumented.
    """
    count = 0
    for controller in _controllers_of(target):
        for rank_id, rank in enumerate(controller.banks):
            for bank_id, bank in enumerate(rank):
                bank_observers = _bank_observers(
                    bank, controller.mc_id, rank_id, bank_id
                )
                bank_observers.extend(observers)
                count += 1
    return count


# ----------------------------------------------------------------------
# MSHR seam
# ----------------------------------------------------------------------
def _wrap_mshr_file(file, index: int, checker: MshrConservationChecker) -> None:
    if getattr(file, "_validate_wrapped", False):
        return
    original_search = file.search
    original_allocate = file.allocate
    original_deallocate = file.deallocate

    def search(line_addr):
        entry, probes = original_search(line_addr)
        checker.on_search(index, line_addr, entry, probes)
        return entry, probes

    def allocate(line_addr):
        entry, probes = original_allocate(line_addr)
        checker.on_allocate(index, line_addr, entry, probes)
        return entry, probes

    def deallocate(line_addr):
        probes = original_deallocate(line_addr)
        checker.on_deallocate(index, line_addr, probes)
        return probes

    file.search = search
    file.allocate = allocate
    file.deallocate = deallocate
    file._validate_wrapped = True


# ----------------------------------------------------------------------
# Memory-controller seam
# ----------------------------------------------------------------------
def _wrap_controller(controller, checker: QueueConservationChecker) -> None:
    if getattr(controller, "_validate_wrapped", False):
        return
    original_enqueue = controller.enqueue
    original_issue = controller._issue

    def enqueue(request):
        accepted = original_enqueue(request)
        checker.on_enqueue(controller.mc_id, request, accepted)
        return accepted

    def _issue(entry, now):
        checker.on_issue(controller.mc_id, entry)
        original_issue(entry, now)

    controller.enqueue = enqueue
    controller._issue = _issue
    controller._validate_wrapped = True


# ----------------------------------------------------------------------
# High-level attach
# ----------------------------------------------------------------------
def attach_checkers(machine, checkers: CheckerSpec = "all") -> CheckerSet:
    """Build and attach the named checkers to a wired ``Machine``.

    Must run after the machine is wired and before ``run()``.  If an
    active ``timing`` fault (see :mod:`repro.experiments.faults`)
    matches this machine's (config, workload) cell, the DRAM array
    timings are corrupted *after* the timing checker captures its
    reference — exactly the seeded-bug drill the acceptance criteria
    exercise.
    """
    names = resolve_checker_names(checkers)
    attached: List[Checker] = []
    for name in names:
        if name == "dram-timing":
            timing_checker = DramTimingChecker()
            for controller in _controllers_of(machine):
                for rank_id, rank in enumerate(controller.banks):
                    for bank_id, bank in enumerate(rank):
                        timing_checker.register_bank(
                            controller.mc_id, rank_id, bank_id, bank
                        )
                        _bank_observers(
                            bank, controller.mc_id, rank_id, bank_id
                        ).append(timing_checker)
            attached.append(timing_checker)
        elif name == "mshr":
            mshr_checker = MshrConservationChecker()
            for index, file in enumerate(machine.l2_mshr_files):
                mshr_checker.register_file(index, file, label=f"l2.mshr{index}")
                _wrap_mshr_file(file, index, mshr_checker)
            attached.append(mshr_checker)
        elif name == "queue":
            queue_checker = QueueConservationChecker()
            for controller in _controllers_of(machine):
                queue_checker.register_controller(controller.mc_id, controller)
                _wrap_controller(controller, queue_checker)
            attached.append(queue_checker)
    if names:
        _apply_timing_fault(machine)
    return CheckerSet(attached)


def _apply_timing_fault(machine) -> None:
    """Corrupt DRAM array timings when a ``timing`` fault matches."""
    spec = faults.fault_for(
        "timing",
        getattr(machine.config, "name", ""),
        getattr(machine, "workload_name", ""),
    )
    if spec is None:
        return
    factor = spec.timing_factor
    for controller in _controllers_of(machine):
        for rank in controller.banks:
            for bank in rank:
                bank.timing = bank.timing.scaled(factor)
