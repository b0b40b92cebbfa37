"""Steady-state thermal model of the 3D stack (Section 2.4's check).

The paper ran HotSpot and reports one qualitative result: the worst-case
temperature anywhere in the stack stays within the SDRAM thermal limit.
We reproduce that check with a one-dimensional series resistance model,
which is the appropriate fidelity for a stack whose lateral dimensions
(~17 mm) dwarf its vertical ones (tens of microns per layer): heat
generated in layer *i* flows down through every interface between it and
the heat sink.

    T_i = T_ambient + R_sink * P_total + sum_{j<=i} R_j * P_above_j

Layer 0 is the processor die (attached to the sink through the package);
higher indices stack upward, away from the sink, like Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

#: Samsung DDR2 operating limit the paper cites (case temperature, C).
DRAM_THERMAL_LIMIT_C = 85.0


@dataclass(frozen=True)
class ThermalLayer:
    """One die in the stack."""

    name: str
    power_w: float
    # Vertical specific thermal resistance of the die + its bond
    # interface, in K*mm^2/W (thinned silicon is negligible; the bond
    # layer dominates).
    interface_resistance_kmm2_w: float = 10.0

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ValueError("layer power cannot be negative")
        if self.interface_resistance_kmm2_w <= 0:
            raise ValueError("interface resistance must be positive")


@dataclass
class StackThermalModel:
    """1D steady-state thermal solve for a die stack."""

    layers: List[ThermalLayer] = field(default_factory=list)
    die_area_mm2: float = 294.0
    ambient_c: float = 45.0
    sink_resistance_k_w: float = 0.30

    def add_layer(self, layer: ThermalLayer) -> None:
        self.layers.append(layer)

    @property
    def total_power_w(self) -> float:
        return sum(layer.power_w for layer in self.layers)

    def temperatures(self) -> List[float]:
        """Steady-state temperature of each layer, bottom (sink side) up."""
        if not self.layers:
            raise ValueError("no layers in the stack")
        if self.die_area_mm2 <= 0:
            raise ValueError("die area must be positive")
        temperature = self.ambient_c + self.sink_resistance_k_w * self.total_power_w
        result = [temperature]
        # Heat still flowing upward past layer j is the power of all
        # layers above j; it crosses layer j's interface resistance.
        remaining = self.total_power_w
        for layer_below, layer in zip(self.layers, self.layers[1:]):
            remaining -= layer_below.power_w
            resistance = layer_below.interface_resistance_kmm2_w / self.die_area_mm2
            temperature += resistance * remaining
            result.append(temperature)
        return result

    def max_dram_temperature(self) -> float:
        """Hottest DRAM layer (any layer whose name marks it as DRAM)."""
        temps = self.temperatures()
        dram = [
            t
            for layer, t in zip(self.layers, temps)
            if "dram" in layer.name.lower()
        ]
        if not dram:
            raise ValueError("stack has no DRAM layers")
        return max(dram)

    def within_dram_limit(self, limit_c: float = DRAM_THERMAL_LIMIT_C) -> bool:
        return self.max_dram_temperature() <= limit_c


def refresh_period_for_temperature(max_dram_temp_c: float) -> float:
    """Retention-safe refresh period (ms) at a given DRAM temperature.

    DRAM retention roughly halves per ~10 C of additional heat.  Vendors
    bucket this: 64 ms up to the standard 85 C limit, 32 ms for the
    extended 85-95 C range (the paper's on-stack assumption, consistent
    with the Samsung datasheet it cites), halving again beyond.
    """
    if max_dram_temp_c <= 85.0:
        return 64.0
    if max_dram_temp_c <= 95.0:
        return 32.0
    if max_dram_temp_c <= 105.0:
        return 16.0
    raise ValueError(
        f"{max_dram_temp_c:.1f} C exceeds any rated DRAM operating range"
    )


def default_stack(
    num_dram_layers: int = 8,
    cpu_power_w: float = 70.0,
    dram_layer_power_w: float = 1.5,
    logic_layer_power_w: float = 3.0,
    include_logic_layer: bool = True,
    die_area_mm2: float = 294.0,
) -> StackThermalModel:
    """The paper's configuration: quad-core die under 8 (+1) DRAM layers."""
    if num_dram_layers < 1:
        raise ValueError("need at least one DRAM layer")
    model = StackThermalModel(die_area_mm2=die_area_mm2)
    model.add_layer(ThermalLayer("cpu", cpu_power_w))
    if include_logic_layer:
        model.add_layer(ThermalLayer("dram-logic", logic_layer_power_w))
    for i in range(num_dram_layers):
        model.add_layer(ThermalLayer(f"dram{i}", dram_layer_power_w))
    return model
