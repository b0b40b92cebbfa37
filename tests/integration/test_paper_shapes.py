"""The paper's claims, gated: ``FIDELITY.json`` is what the model measures.

Each claim is a ``Band``/``Ordering`` in a catalog entry's ``expect``,
measured by ``python -m repro validate fidelity`` into the committed
``FIDELITY.json``.  The simulator is deterministic, so the gate is exact:
regenerating the smoke column must reproduce that file and EXPERIMENTS.md
byte for byte, and every committed value must lie in its band.

The ``test_figure*`` checks read the same smoke run's tables (the
catalog's matrices on the gate mixes), so they cost no simulation of
their own.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import fidelity
from repro.experiments.catalog import CATALOG, render
from repro.experiments.fidelity import Band
from repro.experiments.runner import CellFailure, ResultTable, run_matrix
from repro.system.config import config_2d, config_quad_mc
from repro.system.scale import SMOKE
from repro.validate import tools
from repro.workloads.mixes import MIXES

REPO_ROOT = Path(__file__).resolve().parents[2]
GENERATED = ("FIDELITY.json", "EXPERIMENTS.md")
HV = ("H", "VH")


def _copy_generated(workdir):
    for name in GENERATED:
        shutil.copy(REPO_ROOT / name, workdir / name)


def _assert_generated_unchanged(workdir):
    for name in GENERATED:
        assert (workdir / name).read_bytes() == (REPO_ROOT / name).read_bytes(), (
            f"{name} drifted: re-run `python -m repro validate fidelity "
            f"--scale smoke` (and --scale default) and commit the result"
        )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``validate fidelity --scale smoke`` in a copy of the generated
    files: ``(exit code, its directory, {entry: ResultTable}, stdout,
    {entry: result})``."""
    workdir = tmp_path_factory.mktemp("fidelity")
    _copy_generated(workdir)
    results, run = {}, tools.run_experiment

    def recording(experiment, *args, **kwargs):
        results[experiment.name] = run(experiment, *args, **kwargs)
        return results[experiment.name]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.chdir(workdir)
        # ~160 cells, ~67 s serial on a 2-core host; two workers: ~58 s.
        mp.setenv("REPRO_PARALLEL", "2")
        mp.setattr(tools, "run_experiment", recording)
        code = main(["validate", "fidelity", "--scale", "smoke"])
    tables = {name: result.table for name, result in results.items()}
    return code, workdir, tables, out.getvalue(), results


def test_smoke_column_regenerates_byte_identical(smoke):
    code, workdir = smoke[:2]
    assert code == 0
    _assert_generated_unchanged(workdir)


def test_fidelity_prints_every_entry_in_catalog_order(smoke):
    """The one whole-catalog run is also the report: every entry's
    rendered tables and claims, in catalog order, then the verdict."""
    out, results = smoke[3:]
    assert list(results) == list(CATALOG)
    reports = "".join(f"{render(CATALOG[name], results[name])}\n\n" for name in CATALOG)
    assert out == reports + "validate fidelity: OK\n"


def test_fidelity_goes_on_past_a_failed_cell_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    """Stubbed entries, no simulation: the one with a failed cell
    renders "report incomplete" under its title, the run goes on to the
    next entry, and exits 1 with both generated files untouched."""
    failure = CellFailure("3D", "H1", "InjectedFault", "boom", "", 1, 0.0)

    class Stub:
        def __init__(self, name):
            failed = {("3D", "H1"): failure} if name == "figure4" else {}
            self.name, self.table = name, ResultTable([], [], {}, failed)

        def format(self):
            for cell in self.table.failures:
                self.table.result(*cell)  # raises CellFailedError
            return f"stub {self.name}"

    _copy_generated(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tools, "run_experiment", lambda e, *args: Stub(e.name))
    assert main(["validate", "fidelity", "--scale", "smoke"]) == 1
    out, err = capsys.readouterr()
    title = CATALOG["figure4"].title
    heads = [line.split(" — ")[0] for line in out.splitlines()
             if line.startswith(("stub ", "report incomplete", title))]
    expected = []
    for name in CATALOG:
        expected += [title, "report incomplete"] if name == "figure4" else [f"stub {name}"]
    assert heads == expected
    assert f"{title}\n{'=' * len(title)}\nreport incomplete — " in out
    assert f"FAIL: {failure.describe()}" in err
    _assert_generated_unchanged(tmp_path)


def test_figure4_ordering_holds_on_memory_intensive_mixes(smoke):
    table = smoke[2]["figure4"]
    for mix in ("H1", "VH2"):
        s3d = table.speedup("3D", mix, "2D")
        wide = table.speedup("3D-wide", mix, "2D")
        fast = table.speedup("3D-fast", mix, "2D")
        assert 1.0 < s3d < wide < fast, (mix, s3d, wide, fast)


def test_figure4_3d_fast_wins_big_on_memory_intensive(smoke):
    # Paper: 2.17x GM; we accept anything clearly >1.5x.
    assert smoke[2]["figure4"].gm_speedup("3D-fast", "2D", groups=HV) > 1.5


def test_figure4_moderate_mixes_benefit_less(smoke):
    table = smoke[2]["figure4"]
    fast_m = table.speedup("3D-fast", "M3", "2D")
    fast_vh = table.speedup("3D-fast", "VH2", "2D")
    assert fast_m < fast_vh
    assert fast_m < 2.0  # "these programs spend less time waiting on memory"


def test_figure6a_more_mcs_beats_more_ranks(smoke):
    table = smoke[2]["figure6a"]
    mc_gain = table.gm_speedup("4MC-16R", "1MC-8R")
    rank_gain = table.gm_speedup("1MC-16R", "1MC-8R")
    assert mc_gain > 1.02
    assert mc_gain > rank_gain


def test_figure6b_row_buffer_entries_help_with_diminishing_returns(smoke):
    """Row-buffer cache entries help (a little, here) and never hurt.

    Our synthetic workloads hit in the row buffers far more often than
    the paper's real applications (first-touch allocation de-conflicts
    concurrent streams), so the absolute gain is much smaller than the
    paper's +41%; the *shape* — entry #2 carries whatever benefit
    exists, entries #3/#4 add nearly nothing — still holds.  See
    EXPERIMENTS.md.
    """
    table = smoke[2]["figure6b"]
    base = "3D-fast-1MC-8R-1RB"
    one = table.gm_speedup("4MC-16R-1RB", base)
    two = table.gm_speedup("4MC-16R-2RB", base)
    four = table.gm_speedup("4MC-16R-4RB", base)
    assert two > one * 0.97  # the first extra entry helps (or is neutral)
    assert four >= two * 0.97  # more entries never hurt much
    # Most of whatever row-buffer benefit exists comes from entry #2.
    assert (two - one) > (four - two) - 0.05


def test_figure7_bigger_mshrs_help_memory_intensive(smoke):
    assert smoke[2]["figure7_quad"].gm_speedup("4xMSHR", "1x", HV) > 1.05


def test_figure7_8x_saturates(smoke):
    table = smoke[2]["figure7_quad"]
    gain_4x = table.gm_speedup("4xMSHR", "1x", HV)
    gain_8x = table.gm_speedup("8xMSHR", "1x", HV)
    # 8x adds little beyond 4x (paper: "no significant additional benefit").
    assert gain_8x < gain_4x * 1.10


def test_figure9_vbf_matches_ideal_cam(smoke):
    # "we achieve performance that is about the same as the ideal (and
    # impractical) single-cycle, fully-associative traditional MSHR."
    # ablation_mshr_org is Figure 9's quad-MC 8x point plus linear probing.
    assert smoke[2]["ablation_mshr_org"].gm_speedup("vbf", "ideal-cam") > 0.95


def test_figure9_vbf_beats_plain_linear_probing(smoke):
    table = smoke[2]["ablation_mshr_org"]
    assert (
        table.gm_speedup("vbf", "ideal-cam")
        >= table.gm_speedup("linear-probe", "ideal-cam")
    )


def test_figure9_vbf_probe_counts_are_small(smoke):
    # Paper: 2.21-2.31 probes per access including the mandatory first.
    table = smoke[2]["ablation_mshr_org"]
    for mix in ("H1", "VH2"):
        vbf_probes = table.result("vbf", mix).mshr_avg_probes
        linear_probes = table.result("linear-probe", mix).mshr_avg_probes
        assert 1.0 <= vbf_probes <= 4.0
        assert vbf_probes <= linear_probes


def test_committed_rows_lie_in_their_bands():
    rows, columns = fidelity.loads((REPO_ROOT / "FIDELITY.json").read_text("utf-8"))
    assert fidelity.violations(rows) == []
    # Both columns were measured: a missing one would pass vacuously.
    for column in ("smoke", "default"):
        assert any(value is not None for value in columns[column].values())


def test_status_rule_ties_a_band_to_the_paper():
    """The status is not free text: a band that excludes the paper's
    value *is* a claim the model does not reproduce, so it must say why
    (DEVIATES), and a band that contains it is reproduced, so it cannot
    DEVIATE — otherwise a gap could be widened into MET silently, or a
    reproduced claim hidden behind an excuse."""
    with pytest.raises(ValueError, match="needs a reason"):
        Band("gm 3D-fast @H,VH", 2.4, 2.8, paper=2.168)
    with pytest.raises(ValueError, match="cannot DEVIATE"):
        Band("gm 3D-fast @H,VH", 2.0, 2.8, paper=2.168, reason="runs hot")
    assert Band("gm 3D-fast @H,VH", 2.4, 2.8, paper=2.168, reason="runs hot")


def test_scalable_mha_matters_far_less_on_2d():
    """Section 5's closing check: on off-chip memory, other bottlenecks
    (the FSB) dominate, so the scalable MHA buys far less than on the
    3D-stacked organizations.  Our 2D baseline retains some MSHR
    sensitivity (see EXPERIMENTS.md), so we assert the *relative* claim.
    """
    mixes = [MIXES["H1"], MIXES["VH2"]]
    flat = config_2d()
    dual = config_quad_mc().derive(
        name="dual", num_mcs=2, total_ranks=8
    )
    configs = [
        flat.derive(name="2d-base"),
        flat.derive(
            name="2d-vbf-dyn", l2_mshr_per_bank=64,
            l2_mshr_organization="vbf", l2_mshr_dynamic=True,
        ),
        dual.derive(name="dual-base"),
        dual.derive(
            name="dual-vbf-dyn",
            l2_mshr_per_bank=dual.l2_mshr_per_bank * 8,
            l2_mshr_organization="vbf", l2_mshr_dynamic=True,
        ),
    ]
    table = run_matrix(configs, mixes, SMOKE, workers=1)
    gain_2d = table.gm_speedup("2d-vbf-dyn", "2d-base")
    gain_3d = table.gm_speedup("dual-vbf-dyn", "dual-base")
    assert gain_3d > gain_2d * 1.15
    assert gain_2d < 1.5  # never a dramatic win off-chip
