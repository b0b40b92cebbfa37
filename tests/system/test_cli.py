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


def test_profile_run_callback_table_counts_every_event(capsys, monkeypatch):
    """The per-callback table's event counts, read from the profile's
    caller table, sum to the engine's ``events_fired`` on a full-detail
    run, and the rows are sorted by share."""
    import re

    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    assert main(
        ["profile", "run", "--config", "3d-fast", "--mix", "M1", "--top", "1"]
    ) == 0
    out = capsys.readouterr().out
    fired = int(re.search(r"^event callbacks \((\d+) events fired", out, re.M)[1])
    rows = re.findall(
        r"^  +(\d+\.\d)% +(\d+) +\d+\.\d +\d+\.\d\d  (\S+\.py:\d+\(\w+\))$",
        out, re.MULTILINE,
    )
    names = {name for _, _, name in rows}
    assert any("(_dispatch)" in name for name in names)
    assert any("(_commit)" in name for name in names)
    assert len(names) == len(rows)
    assert sum(int(events) for _, events, _ in rows) == fired > 0
    shares = [float(share) for share, _, _ in rows]
    assert shares == sorted(shares, reverse=True)


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


def test_parser_rejects_unknown_command(capsys):
    for command in ("teleport", "report"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, failing_config, entry",
    [
        (["figure", "4"], "3D-wide", "figure4"),
        (["table", "2b"], "2D", "table2b"),
        (["ablation", "scheduler"], "fcfs", "ablation_scheduler"),
    ],
    ids=["figure4", "table2b", "ablation"],
)
def test_figure_with_injected_failure_degrades(
    capsys, monkeypatch, command, failing_config, entry
):
    """A degraded run renders what it can on every experiment command,
    "report incomplete" under the entry's title."""
    from repro.experiments.catalog import CATALOG
    from repro.experiments import faults
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{failing_config}:M3:-1")
    assert main(command + ["--mixes", "M3", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    title = CATALOG[entry].title
    assert f"{title}\n{'=' * len(title)}\nreport incomplete — " in out
    assert "WARNING: 1 cell(s) failed" in out
    assert f"cell ({failing_config}, M3)" in out
    assert "--resume" in out


def test_resilience_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["figure", "4", "--cell-timeout", "30", "--retries", "2", "--resume"]
    )
    assert args.cell_timeout == 30.0
    assert args.retries == 2
    assert args.resume and args.journal is None


def test_check_and_sample_travel_as_arguments_not_environment(
    capsys, monkeypatch
):
    import os

    from repro.system import scale as scale_mod

    small = scale_mod.ExperimentScale("smoke", 2_000, 20_000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", small)
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    before = dict(os.environ)
    assert main([
        "figure", "4", "--mixes", "M3", "--workers", "1", "--check", "mshr",
        "--sample", "detailed:400,warmup:800,detail_warmup:100,min_intervals:2",
    ]) == 0
    assert dict(os.environ) == before
    # ...and both reached the cells: the report says it was sampled.
    assert "sampled simulation (4/4 cells" in capsys.readouterr().out


def test_table2a_honours_check_and_sample(capsys, monkeypatch):
    from repro.experiments import table2
    from repro.system import scale as scale_mod

    small = scale_mod.ExperimentScale("smoke", 2_000, 20_000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", small)
    monkeypatch.setattr(table2, "BENCHMARKS", {"namd": table2.BENCHMARKS["namd"]})
    with pytest.raises(ValueError, match="unknown checker"):
        main(["table", "2a", "--check", "no-such-checker"])
    assert main([
        "table", "2a",
        "--sample", "detailed:400,warmup:800,detail_warmup:100,min_intervals:2",
    ]) == 0
    assert "sampled simulation (1/1 cells" in capsys.readouterr().out
    with pytest.raises(ValueError, match="bad sampling spec"):
        main(["table", "2a", "--sample", "detailed"])


def test_table2a_journal_resumes_without_simulating(capsys, monkeypatch, tmp_path):
    """``table 2a --journal`` records its cells; adding ``--resume``
    simulates none of them and prints the same table."""
    from repro.experiments import table2
    from repro.system import machine as machine_mod
    from repro.system import scale as scale_mod

    small = scale_mod.ExperimentScale("smoke", 500, 2_000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", small)
    monkeypatch.setattr(
        table2, "BENCHMARKS",
        {name: table2.BENCHMARKS[name] for name in ("namd", "S.copy")},
    )
    journal = str(tmp_path / "table2a.journal.jsonl")
    assert main(["table", "2a", "--scale", "smoke", "--journal", journal]) == 0
    first = capsys.readouterr().out
    assert "namd" in first and "S.copy" in first

    def build(*args, **kwargs):
        raise AssertionError("a cell was simulated again")

    monkeypatch.setattr(machine_mod.Machine, "__init__", build)
    assert main([
        "table", "2a", "--scale", "smoke", "--journal", journal, "--resume",
    ]) == 0
    assert capsys.readouterr().out == first


def test_ablation_choices_are_the_catalogs():
    from repro.experiments.catalog import CATALOG

    (ablation,) = [
        action.choices["ablation"]
        for action in build_parser()._subparsers._group_actions
    ]
    (which,) = [a for a in ablation._actions if a.dest == "which"]
    assert [f"ablation_{choice}" for choice in which.choices] == [
        name for name in CATALOG if name.startswith("ablation_")
    ]
    assert "scheduler" in which.choices and "mshr_org" in which.choices


def test_figure7_resume_reprints_from_its_journal(capsys, monkeypatch, tmp_path):
    """``--resume`` alone journals to ``results/<catalog name>``; the
    second run simulates nothing and prints the same text."""
    from repro.experiments import runner
    from repro.system import scale as scale_mod

    tiny = scale_mod.ExperimentScale("smoke", 300, 1000)
    monkeypatch.setitem(scale_mod._SCALES, "smoke", tiny)
    monkeypatch.chdir(tmp_path)
    argv = ["figure", "7", "--panel", "dual-mc", "--mixes", "M3",
            "--workers", "1", "--resume"]
    assert main(argv) == 0
    assert (tmp_path / "results" / "figure7_dual.journal.jsonl").exists()
    figure = capsys.readouterr().out

    def no_simulation(task):
        raise AssertionError(f"re-simulated {task.scenario()}")

    monkeypatch.setattr(runner, "run_cell", no_simulation)
    assert main(argv) == 0
    assert capsys.readouterr().out == figure


@pytest.mark.parametrize(
    "argv, code, said",
    [
        # The reproduced defect: the snapshot driver's `--one bogus` ran
        # zero scenarios, printed nothing and exited 0.
        (["validate", "resume", "--shape", "bogus"], 2, "unknown shape 'bogus'"),
        (["validate"], 2, "{timing,resume,sampling,fidelity}"),
        # No --smoke switch overriding the other flags: each is honoured,
        # and the defaults are the old smoke values.
        (["validate", "sampling", "--smoke"], 2, "unrecognized arguments: --smoke"),
        (["validate", "sampling"], 0, "H1 large 42 None"),
        (
            ["validate", "sampling", "--mix", "VH1", "--spec", "detailed:500",
             "--scale", "smoke", "--seed", "7"],
            0, "VH1 smoke 7 detailed:500",
        ),
        # FIDELITY.json has a smoke and a default column, nothing else.
        (["validate", "fidelity", "--scale", "bogus"], 2, "invalid choice: 'bogus'"),
    ],
)
def test_validate_that_checks_nothing_does_not_pass(
    capsys, monkeypatch, argv, code, said
):
    from repro.validate import tools

    def sampling(mix, scale, seed, spec):
        print(mix.name, scale.name, seed, spec)
        return 0

    monkeypatch.setattr(tools, "sampling", sampling)
    try:
        exited = main(argv)
    except SystemExit as exc:
        exited = exc.code
    assert exited == code
    captured = capsys.readouterr()
    assert said in captured.out + captured.err
