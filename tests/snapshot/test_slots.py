"""Model state lives in declared ``__slots__``, and a snapshot keeps it there.

The state walk reads declared slots only.  Reading an instance
``__dict__`` instead turns an unslotted component's attribute storage
into a plain dict for the rest of the process, and every later load and
store on it gets slower.  Each case below captures a machine mid-run
and restores the tree into a fresh one, then checks three things:

* every class in the tree's layouts declares ``__slots__`` on each MRO
  entry;
* no component the walk reaches holds an instance dict, on either
  machine.  ``gc.get_referents`` shows a dict only once one exists, and
  unlike ``vars()`` it does not create one.  The one exception is the
  explicit ``__dict__`` slot of a bank, an MSHR file or a controller on
  a checked machine: it holds the method wrappers of
  :mod:`repro.validate.hooks` and nothing else;
* capture refuses, by name, a component whose class declares no slots.
"""

import enum
import functools
import gc
import types
from collections import deque

import pytest

from repro.common.errors import SnapshotError, SnapshotPreempted
from repro.common.stats import StatRegistry
from repro.snapshot import SnapshotPlan, preemption
from repro.snapshot.codec import _resolve
from repro.system.machine import Machine
from tests.snapshot.test_roundtrip import (
    EVERY, MEASURE, MIX, RANDOM_RESUMES, SHAPES, WARMUP,
)
from tests.strategies import random_benchmarks, random_system_config

_PRIMS = (int, float, str, bool, bytes, type(None))

#: Everything :mod:`repro.validate.hooks` sets on an instance.
_INSTRUMENTATION = frozenset({
    "access", "functional_touch", "search", "allocate", "deallocate",
    "enqueue", "_issue", "_validate_wrapped",
})


def _declared(kind):
    """The slot names ``kind``'s MRO declares; None if an entry declares none."""
    names = set()
    for klass in kind.__mro__[:-1]:
        slots = klass.__dict__.get("__slots__")
        if slots is None:
            return None
        names.update((slots,) if isinstance(slots, str) else slots)
    return names - {"__dict__", "__weakref__"}


def _components(machine):
    """Every model object reachable from ``machine`` through model
    objects' referents, container items, method receivers and partials."""
    seen, found, stack = set(), [], [machine]
    while stack:
        value = stack.pop()
        if isinstance(value, _PRIMS) or id(value) in seen:
            continue
        seen.add(id(value))
        kind = type(value)
        if isinstance(value, (list, tuple, set, deque)):
            stack.extend(value)
        elif kind is dict:
            stack.extend(value.keys())
            stack.extend(value.values())
        elif kind is types.MethodType:
            stack.append(value.__self__)
        elif kind is functools.partial:
            stack += [value.func, *value.args, *value.keywords.values()]
        elif kind.__module__.startswith("repro.") and not (
            issubclass(kind, enum.Enum) or getattr(kind, "__dataclass_params__", None)
        ):
            found.append(value)
            stack.extend(gc.get_referents(value))
    return found


def _instance_dicts(obj):
    """The dicts ``obj`` holds other than as the value of a declared slot."""
    held = {id(getattr(obj, name, None)) for name in _declared(type(obj)) or ()}
    return [
        ref
        for ref in gc.get_referents(obj)
        if type(ref) is dict and id(ref) not in held
    ]


def _cases():
    for name, (config, checkers, plan) in SHAPES.items():
        yield name, config, MIX, 7, checkers, plan
    for seed in RANDOM_RESUMES:
        config, mix = random_system_config(seed), random_benchmarks(seed)
        yield f"seed{seed}", config, mix, seed, None, None
        yield f"seed{seed}-checkers", config, mix, seed, "all", None


CASES = {case[0]: case[1:] for case in _cases()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_snapshot_leaves_every_component_in_its_slots(name):
    config, mix, seed, checkers, plan = CASES[name]

    def build():
        return Machine(config, mix, seed=seed, workload_name="test", checkers=checkers)

    machine = build()
    preemption.clear()
    preemption.request_preemption()
    try:
        with pytest.raises(SnapshotPreempted):
            machine.run(
                WARMUP, MEASURE, sampling=plan,
                snapshot=SnapshotPlan(every=EVERY, write=False, preemptible=True),
            )
    finally:
        preemption.clear()
    tree = machine.capture_state()
    fresh = build()
    fresh.restore_state(tree)

    for module, qualname, _ in tree["layouts"]:
        assert _declared(_resolve((module, qualname))) is not None, qualname
    for live in (machine, fresh):
        components = _components(live)
        assert len(components) > 20
        holding = sorted({
            type(obj).__qualname__
            for obj in components
            for attrs in _instance_dicts(obj)
            if not (checkers and _INSTRUMENTATION.issuperset(attrs))
        })
        assert holding == []

    class LooseRegistry(StatRegistry):
        """A component class that declares no ``__slots__``."""

        # The walk visits classes of the model's own modules only.
        __module__ = StatRegistry.__module__

    fresh.l2._inclusion_listeners.append(LooseRegistry())
    with pytest.raises(SnapshotError, match="LooseRegistry declares no __slots__"):
        fresh.capture_state()
