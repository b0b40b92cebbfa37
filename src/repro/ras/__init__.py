"""In-simulation RAS: fault injection, ECC, poison, graceful degradation.

The subsystem is strictly opt-in: a machine built without a
:class:`RasConfig` takes no RAS branches anywhere on the request path
(verified byte-for-byte by the differential transcript harness).  With
one attached, every DRAM read is fault-checked, correctable errors pay
an ECC latency, uncorrectable ones poison the data MCA-style, and the
memory controllers degrade gracefully (retry, refresh escalation, bank
retirement) instead of silently corrupting the run.

Entry point: ``attach_ras(machine, ras_config, seed)`` — called by
``Machine.__init__`` when ``SystemConfig.ras`` is set.
"""

from __future__ import annotations

from .config import ECC_SCHEMES, MCE_POLICIES, RasConfig

# Only the config dataclass is needed to describe a machine (SystemConfig
# has a ``ras`` field); the controller, injector, ECC and PRNG modules
# load on first use, so a fault-free run never imports them.
_LAZY = {
    "RasController": "controller",
    "GROSS_CORRUPTION_BITS": "ecc",
    "OUTCOME_CORRECTED": "ecc",
    "OUTCOME_DETECTED": "ecc",
    "OUTCOME_OK": "ecc",
    "OUTCOME_SILENT": "ecc",
    "SCHEMES": "ecc",
    "EccScheme": "ecc",
    "get_scheme": "ecc",
    "AccessToken": "injector",
    "FaultInjector": "injector",
    "ReadFaults": "injector",
    "hash64": "prng",
    "stable_label_hash": "prng",
    "uniform": "prng",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AccessToken",
    "ECC_SCHEMES",
    "EccScheme",
    "FaultInjector",
    "GROSS_CORRUPTION_BITS",
    "MCE_POLICIES",
    "OUTCOME_CORRECTED",
    "OUTCOME_DETECTED",
    "OUTCOME_OK",
    "OUTCOME_SILENT",
    "RasConfig",
    "RasController",
    "ReadFaults",
    "SCHEMES",
    "attach_ras",
    "get_scheme",
    "hash64",
    "stable_label_hash",
    "uniform",
]


def attach_ras(machine, ras_config: RasConfig, seed: int,
               thermal_factor: float = 1.0) -> "RasController":
    """Wire a RasController into an already-built machine.

    Must run after the memory system and cores exist and before the
    simulation starts.  ``seed`` should already mix the experiment seed
    with a process-stable hash of the config name (see
    :func:`~repro.ras.prng.stable_label_hash`) so every sweep cell
    draws an independent, reproducible fault universe.
    """
    from .controller import RasController

    timing = machine.memory.controllers[0].device.timing
    ras = RasController(
        ras_config,
        seed,
        stats=machine.registry.group("ras"),
        timing=timing,
        thermal_factor=thermal_factor,
    )
    for controller in machine.memory.controllers:
        ras.register_controller(controller)
    for core in machine.cores:
        core.ras_monitor = ras
    return ras
