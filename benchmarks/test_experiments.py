"""Regenerates every table, figure, ablation and study of the catalog.

One bench per catalog entry: it runs the experiment, prints the same
rows the paper reports, then asserts the entry's headline *shape*
(``SHAPES`` below; entries without one are report-only).  Scale and
mix selection come from the environment — see ``conftest.py``.
"""

import pytest

from repro.experiments.catalog import CATALOG, HEADLINE_GROUPS, run_experiment
from repro.workloads.mixes import MIXES

from conftest import bench_mixes, bench_scale

HV = HEADLINE_GROUPS


def _groups(result):
    return {MIXES[m].group for m in result.table.mixes}


def table2a(r):
    # Measured MPKI must preserve the paper's coarse ordering.
    assert r.mpki["S.copy"] > r.mpki["milc"] > r.mpki["namd"]
    assert r.mpki["tigr"] > r.mpki["mcf"]


def table2b(r):
    groups = {name: MIXES[name].group for name in r.hmipc}
    vh = [v for n, v in r.hmipc.items() if groups[n] == "VH"]
    m = [v for n, v in r.hmipc.items() if groups[n] == "M"]
    if vh and m:
        # VH mixes are far slower than M mixes on the 2D baseline.
        assert max(vh) < min(m)


def figure4(r):
    if _groups(r) & set(HV):
        # The paper's ordering and a clear win for the full combination.
        assert 1.0 < r.gm("3D", HV) < r.gm("3D-wide", HV) < r.gm("3D-fast", HV)
        assert r.gm("3D-fast", HV) > 1.5
        if "M" in _groups(r):
            assert r.gm("3D-fast", ("M",)) < r.gm("3D-fast", HV)


def figure6a(r):
    # MC scaling dominates, rank scaling is minor, more L2 does almost
    # nothing for memory-intensive workloads.
    assert r.gm("4MC-16R") > r.gm("1MC-16R")
    assert r.gm("4MC-16R") > 1.1
    assert r.gm("+1M-L2") < 1.1


def figure6b(r):
    for family in ("2MC-8R", "4MC-16R"):
        one = r.gm(f"{family}-1RB")
        # Entries help (or are neutral) and never hurt meaningfully.
        assert r.gm(f"{family}-2RB") > one * 0.97
        assert r.gm(f"{family}-4RB") > one * 0.97


def figure7(r):
    if _groups(r) & set(HV):
        gm4 = r.gm("4xMSHR", HV)
        assert gm4 > 3.0  # bigger MSHRs clearly help
        assert r.gm("8xMSHR", HV) < gm4 + 12.0  # saturation beyond 4x
        assert r.gm("Dynamic", HV) > -2.0  # dynamic tuning never loses overall


def figure9(r):
    if _groups(r) & set(HV):
        # The scalable MHA is a clear win over the 8-entry baseline...
        assert r.gm("V+D", HV) > 5.0
        # ...and the practical VBF tracks the impractical ideal CAM.
        assert r.gm("VBF", HV) > r.gm("8xMSHR", HV) - 6.0
    # Probe counts: small, and in the paper's band (incl. mandatory 1st).
    assert 1.0 <= r.probes("VBF", HV) <= 4.0


def ablation_scheduler(r):
    # Open-row-first scheduling never loses to FIFO on these workloads.
    assert r.gm("fcfs") <= 1.03


def ablation_interleave(r):
    # The shared request bus of conventional banking costs performance.
    assert r.gm("line-interleaved") <= 1.05


def ablation_prefetch(r):
    assert r.gm("prefetch-off") > 0  # report-only: sign varies by mix


def ablation_mshr_org(r):
    assert r.probes("vbf") <= r.probes("linear-probe")
    assert r.gm("vbf") >= r.gm("linear-probe") - 0.02


def study_stack(r):
    # Paper Section 6's ranking on memory-intensive workloads:
    # stacked cache < conventionally stacked memory < re-architected.
    assert r.gm("3D-fast") > r.gm("2D+L3")
    assert r.gm("quad-MC") >= r.gm("3D-fast") * 0.95


def ras_study(r):
    assert r.check_monotone() == []


SHAPES = {
    "table2a": table2a,
    "table2b": table2b,
    "figure4": figure4,
    "figure6a": figure6a,
    "figure6b": figure6b,
    "figure7_dual": figure7,
    "figure7_quad": figure7,
    "figure9_dual": figure9,
    "figure9_quad": figure9,
    "ablation_scheduler": ablation_scheduler,
    "ablation_interleave": ablation_interleave,
    "ablation_prefetch": ablation_prefetch,
    "ablation_mshr_org": ablation_mshr_org,
    "study_stack": study_stack,
    "ras_study": ras_study,
}


def test_every_shape_names_a_catalog_entry():
    assert set(SHAPES) <= set(CATALOG)


@pytest.mark.parametrize("name", list(CATALOG))
def test_regenerate(benchmark, name):
    scale, mixes = bench_scale(), bench_mixes()

    # pytest-benchmark: a full experiment is one (slow) iteration.
    result = benchmark.pedantic(
        lambda: run_experiment(name, scale=scale, mixes=mixes),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    print()
    print(result.format())
    SHAPES.get(name, lambda r: None)(result)
