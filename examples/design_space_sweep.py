#!/usr/bin/env python3
"""Design-space exploration: memory controllers x ranks x row buffers.

Sweeps the Figure 5/6 design space on one memory-intensive mix and
prints the HMIPC grid — the workflow an architect would use this library
for when sizing a stacked-DRAM organization.

Usage::

    python examples/design_space_sweep.py [mix]
"""

import sys

from repro import config_3d_fast, run_workload
from repro.workloads import MIXES


def sweep(mix_name: str) -> None:
    mix = MIXES[mix_name]
    print(f"Workload {mix.name}: {', '.join(mix.benchmarks)}\n")

    mc_options = (1, 2, 4)
    rank_options = (8, 16)
    rb_options = (1, 4)

    baseline = None
    for row_buffers in rb_options:
        print(f"=== {row_buffers} row-buffer entr{'y' if row_buffers == 1 else 'ies'} per bank ===")
        header = f"{'ranks':>6s} " + "".join(f"{m}MC".rjust(10) for m in mc_options)
        print(header)
        for ranks in rank_options:
            cells = []
            for num_mcs in mc_options:
                config = config_3d_fast().derive(
                    name=f"{num_mcs}MC-{ranks}R-{row_buffers}RB",
                    num_mcs=num_mcs,
                    total_ranks=ranks,
                    row_buffer_entries=row_buffers,
                    l2_mshr_per_bank=max(4, 8 // num_mcs),
                )
                result = run_workload(
                    config,
                    mix.benchmarks,
                    warmup_instructions=4_000,
                    measure_instructions=12_000,
                    workload_name=mix.name,
                )
                if baseline is None:
                    baseline = result.hmipc
                cells.append(result.hmipc / baseline)
            print(
                f"{ranks:>6d} "
                + "".join(f"{value:9.2f}x" for value in cells)
            )
        print()
    print(
        "Reading the grid (paper Figure 6): moving right (more MCs) pays"
        "\nmuch more than moving down (more ranks).  The paper's extra"
        "\nrow-buffer entries add ~25-35 %; here the 1- and 4-entry grids"
        "\nnearly match (FIDELITY.json rows 'figure6b: gm ... / ...-1RB',"
        "\nstatus DEVIATES)."
    )


if __name__ == "__main__":
    sweep(sys.argv[1] if len(sys.argv) > 1 else "VH2")
