"""Unit tests for the command-line interface."""

import pytest

from repro.cli import CONFIGS, build_parser, main


def test_list_benchmarks(capsys):
    assert main(["list", "benchmarks"]) == 0
    out = capsys.readouterr().out
    assert "S.copy" in out and "namd" in out and "paper MPKI" in out


def test_list_mixes(capsys):
    assert main(["list", "mixes"]) == 0
    out = capsys.readouterr().out
    assert "H1" in out and "VH1" in out and "S.all" in out


def test_list_configs(capsys):
    assert main(["list", "configs"]) == 0
    out = capsys.readouterr().out
    for name in CONFIGS:
        assert name in out


def test_run_smoke(capsys, monkeypatch):
    # Shrink the smoke scale further for test speed.
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(["run", "--config", "3d-fast", "--mix", "M3"]) == 0
    out = capsys.readouterr().out
    assert "HMIPC" in out
    assert "row-hit rate" in out
    assert "nJ/access" in out


def test_profile_run_reports_each_memory_controller(capsys, monkeypatch):
    import re

    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(
        ["profile", "run", "--config", "quad-mc", "--mix", "H1", "--top", "1"]
    ) == 0
    out = capsys.readouterr().out
    lines = re.findall(
        r"^  mc\d: issued \d+, row-hit rate [01]\.\d{3}, "
        r"mean queue wait \d+\.\d cyc, mean MRQ occupancy \d+\.\d{2}, "
        r"MRQ rejections \d+$",
        out, re.MULTILINE,
    )
    assert len(lines) == 4
    assert "parked" in out


def test_figure4_via_cli(capsys, monkeypatch):
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(["figure", "4", "--mixes", "M3", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out and "3D-fast" in out


def test_table2b_via_cli(capsys, monkeypatch):
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(["table", "2b", "--mixes", "M3", "--workers", "1"]) == 0
    assert "Table 2(b)" in capsys.readouterr().out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["teleport"])


def test_parser_rejects_unknown_config():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--config", "4d"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_custom_benchmarks(capsys, monkeypatch):
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main([
        "run", "--config", "3d-fast",
        "--benchmarks", "gzip,namd,mesa,astar",
    ]) == 0
    out = capsys.readouterr().out
    assert "custom" in out and "gzip" in out


def test_run_custom_benchmarks_wrong_count():
    with pytest.raises(SystemExit, match="4 names"):
        main(["run", "--benchmarks", "gzip,namd"])


def test_analyze_command(capsys, monkeypatch):
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(["analyze", "--config", "2d", "--mix", "M3"]) == 0
    out = capsys.readouterr().out
    assert "dominant pressure" in out
    assert "HMIPC" in out


def test_fairness_command(capsys, monkeypatch):
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(["fairness", "--config", "3d-fast", "--mix", "M3"]) == 0
    out = capsys.readouterr().out
    assert "weighted speedup" in out


def test_figure_with_journal_and_resume(capsys, monkeypatch, tmp_path):
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    journal = tmp_path / "fig4.journal.jsonl"
    argv = ["figure", "4", "--mixes", "M3", "--workers", "1",
            "--journal", str(journal)]
    assert main(argv) == 0
    assert journal.exists()
    capsys.readouterr()
    # Resuming re-renders the figure entirely from the journal.
    assert main(argv + ["--resume"]) == 0
    assert "Figure 4" in capsys.readouterr().out


def test_figure_with_injected_failure_degrades(capsys, monkeypatch, tmp_path):
    from repro.experiments import faults
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    monkeypatch.setenv(faults.ENV_VAR, "raise:3D-wide:M3:-1")
    assert main(["figure", "4", "--mixes", "M3", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "report incomplete" in out
    assert "WARNING: 1 cell(s) failed" in out
    assert "--resume" in out


def test_resilience_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["figure", "4", "--cell-timeout", "30", "--retries", "2", "--resume"]
    )
    assert args.cell_timeout == 30.0
    assert args.retries == 2
    assert args.resume and args.journal is None
