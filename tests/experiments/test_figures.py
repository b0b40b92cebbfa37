"""Mechanics tests for the experiment catalog (tiny scale, few mixes).

These verify structure, formatting and bookkeeping; the *shape*
assertions against the paper live in tests/integration/.
"""

from functools import lru_cache

import pytest

from repro.experiments.catalog import CATALOG, render, run_experiment
from repro.experiments.table2 import run_table2a
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1200)
ONE_MIX = [MIXES["H3"]]


@lru_cache(maxsize=None)
def run(name):
    return run_experiment(name, scale=TINY, mixes=ONE_MIX, workers=1)


@pytest.mark.parametrize("name", list(CATALOG))
def test_every_catalog_entry_runs_formats_and_charts(name):
    """The catalog is the parameter list: what holds for every entry."""
    experiment = CATALOG[name]
    names = [config.name for config in experiment.configs()]
    assert len(set(names)) == len(names)
    assert experiment.default_mixes()

    result = run(name)
    assert result.table.configs == names
    assert not result.table.failures
    # Every claim's quantities name configs of the matrix (else KeyError).
    assert render(experiment, result)
    if experiment.run is None and experiment.result is None:
        assert experiment.title in result.format()
        assert result.baseline == names[0]
        assert "#" in result.chart(width=20)


def test_figure4_structure_and_format():
    result = run("figure4")
    assert result.value("2D", "H3") == pytest.approx(1.0)
    for config in ("3D", "3D-wide", "3D-fast"):
        assert result.value(config, "H3") > 0
    text = result.format()
    assert "Figure 4" in text
    assert "H3" in text and "3D-fast" in text and "GM(all)" in text
    # The claims (paper values included) are the rendered note; this
    # run's one H mix leaves the claim over the M mixes unmeasured.
    note = render(CATALOG["figure4"], result)[len(text):]
    assert "gm 3D-fast @H,VH in [" in note and "(paper 2.168)" in note
    assert "not measured on these mixes" in note


def test_figure6a_structure():
    result = run("figure6a")
    assert result.gm("1MC-8R") == pytest.approx(1.0)
    text = result.format()
    assert "4MC-16R" in text and "+1M-L2" in text and "paper" in text


def test_figure6b_structure():
    result = run("figure6b")
    for family in ("2MC-8R", "4MC-16R"):
        for entries in range(1, 5):
            assert result.gm(f"{family}-{entries}RB") > 0
    assert "row-buffer" in result.format()


@pytest.mark.parametrize("panel", ["dual-mc", "quad-mc"])
def test_figure7_structure(panel):
    result = run(f"figure7_{panel[:4]}")
    assert result.value("2xMSHR", "H3") == pytest.approx(
        (result.table.speedup("2xMSHR", "H3", "1x") - 1) * 100
    )
    text = result.format()
    assert panel in text and "Dynamic" in text and "8xMSHR" in text
    assert "1x" not in result.shown  # the baseline gets no column


def test_figure7_rejects_unknown_panel():
    with pytest.raises(ValueError, match="figure7_quad"):
        run("figure7_octo")


def test_figure9_structure():
    result = run("figure9_quad")
    for variant in ("8xMSHR", "VBF", "Dynamic", "V+D"):
        assert isinstance(result.value(variant, "H3"), float)
    probes = result.probes("VBF")
    assert probes >= 1.0
    text = result.format()
    assert "V+D" in text
    note = render(CATALOG["figure9_quad"], result)[len(text):]
    assert "gm V+D @H,VH in [" in note and "(paper 17.8)" in note
    assert "probes VBF @H,VH in [" in note and "(paper 2.21)" in note


def test_figure9_rejects_unknown_panel():
    with pytest.raises(ValueError, match="figure9_dual"):
        run("figure9_none")


def test_table2a_measures_requested_benchmarks():
    result = run_table2a(scale=TINY, benchmarks=["S.copy", "namd"])
    assert set(result.mpki) == {"S.copy", "namd"}
    # Stream misses far more than namd even at tiny scale.
    assert result.mpki["S.copy"] > result.mpki["namd"]
    text = result.format()
    assert "Table 2(a)" in text and "paper" in text


def test_table2a_takes_checkers_and_sampling():
    with pytest.raises(ValueError, match="unknown checker"):
        run_table2a(scale=TINY, benchmarks=["namd"], checkers="no-such-checker")
    result = run_table2a(
        scale=ExperimentScale("sampled", 2_000, 20_000),
        benchmarks=["namd"],
        sampling="detailed:400,warmup:800,detail_warmup:100,min_intervals:2",
    )
    assert "sampled simulation (1/1 cells" in result.format()


def test_table2b_structure():
    result = run_experiment("table2b", scale=TINY, mixes=[MIXES["M3"]], workers=1)
    assert result.table.hmipc("2D", "M3") > 0
    assert "Table 2(b)" in result.format()


def test_figure4_chart_rendering():
    chart = run("figure4").chart(width=30)
    assert "Figure 4" in chart
    assert "3D-fast" in chart
    assert "#" in chart


def test_stack_study_structure():
    result = run("study_stack")
    assert result.gm("2D") == pytest.approx(1.0)
    for name in ("2D+L3", "3D", "3D-fast", "quad-MC"):
        assert result.gm(name) > 0
    assert "cache vs memory" in result.format()


def test_remaining_figures_have_charts():
    assert "Figure 6(a)" in run("figure6a").chart(width=20)
    assert "row-buffer entries" in run("figure6b").chart(width=20)
    assert "dual-mc" in run("figure7_dual").chart(width=20)
    assert "quad-mc" in run("figure9_quad").chart(width=20)


def test_mshr_org_ablation_reports_probes():
    result = run("ablation_mshr_org")
    assert result.gm("ideal-cam") == pytest.approx(1.0)
    assert result.probes("vbf") <= result.probes("linear-probe")
    text = result.format()
    assert "GM speedup vs ideal" in text and "probes/access" in text
