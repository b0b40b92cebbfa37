"""Checker protocol shared by every runtime invariant checker.

A checker is attached to one wired machine, observes events through the
instrumentation seams in :mod:`repro.validate.hooks`, and raises
:class:`~repro.common.errors.CheckViolation` as soon as an invariant
breaks — failing at the violating event, not at the end of the run, so
the simulated cycle and component state in the error point directly at
the bug.
"""

from __future__ import annotations

from typing import List

from ..common.errors import CheckViolation


class Checker:
    """Base class: a named invariant checker with an end-of-run hook."""

    __slots__ = ()

    #: Registry name; subclasses override.
    name = "checker"

    def finish(self) -> None:
        """End-of-run consistency audit (the run completed normally).

        Called by :meth:`repro.system.machine.Machine.run` after the
        measurement window ends.  Cores keep executing past their quota,
        so outstanding in-flight work is *legal* here; implementations
        should only assert internal bookkeeping consistency.  Use
        :meth:`assert_drained` from tests that run a workload to
        completion.
        """

    def assert_drained(self) -> None:
        """Assert no tracked work remains (for drained test workloads)."""

    def violation(
        self,
        message: str,
        *,
        cycle: int = None,
        constraint: str = None,
        **state,
    ) -> CheckViolation:
        """Build (not raise) a violation tagged with this checker's name."""
        return CheckViolation(
            f"[{self.name}] {message}",
            checker=self.name,
            cycle=cycle,
            constraint=constraint,
            state=state,
        )


class CheckerSet:
    """The checkers attached to one machine, driven as a unit."""

    __slots__ = ("checkers",)

    def __init__(self, checkers: List[Checker]) -> None:
        self.checkers = list(checkers)

    def __iter__(self):
        return iter(self.checkers)

    def __len__(self) -> int:
        return len(self.checkers)

    def __getitem__(self, name: str) -> Checker:
        for checker in self.checkers:
            if checker.name == name:
                return checker
        raise KeyError(f"no attached checker named {name!r}")

    def finish(self) -> None:
        for checker in self.checkers:
            checker.finish()

    def assert_drained(self) -> None:
        for checker in self.checkers:
            checker.assert_drained()
