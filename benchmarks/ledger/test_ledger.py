"""Drives the whole ledger pipeline at ``--quick`` scale (budgets x 0.02).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (the
``PYTHONPATH`` is for ``benchmarks/conftest.py``, which pytest loads on
the way here; the ledger itself finds ``src/`` on its own).  Outside the
tier-1 ``testpaths``.
"""

import json
import re

import pytest

import run as ledger


@pytest.fixture(scope="module")
def spec():
    return ledger.load_spec()


@pytest.fixture(scope="module")
def reports(spec, tmp_path_factory):
    """Two quick ledgers at seed 42 and one at seed 7, as loaded reports."""
    out = tmp_path_factory.mktemp("ledger")
    loaded = {}
    for label, seed, repeats in (("a", 42, 2), ("b", 42, 1), ("other_seed", 7, 1)):
        path = out / f"{label}.json"
        status = ledger.ledger_run(spec, seed, repeats, quick=True, out=str(path))
        assert status == 0, f"quick ledger {label} reported failures"
        loaded[label] = json.loads(path.read_text())
        loaded[label]["path"] = str(path)
    return loaded


def test_spec_names_the_ledger_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(ledger.WORKLOADS)
    assert spec["paths"] == ["benchmarks/ledger"]


def test_every_metric_is_named_and_declared(spec, reports):
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, entry in reports["a"]["workloads"].items():
        for name in entry["metrics"]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
            assert name in declared, f"{workload}: {name} not in BENCHMARK.json"
        for m in spec["end_to_end"]:
            assert m["name"] in entry["metrics"], f"{workload} lacks {m['name']}"
        assert entry["metrics"]["failed_frac"]["value"] == 0.0


def test_layer_shares_sum_to_one(reports):
    for workload, entry in reports["a"]["workloads"].items():
        shares = [
            entry["metrics"][f"{layer}.self_frac"]["value"]
            for layer in ledger.LAYERS
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), workload


def test_same_seed_repeats_counts_and_digests(reports):
    for workload, entry in reports["a"]["workloads"].items():
        again = reports["b"]["workloads"][workload]
        assert entry["counts"] and entry["counts"] == again["counts"], workload
        assert entry["stats_digest"] == again["stats_digest"] is not None


def test_another_seed_changes_the_digest(reports):
    # stream_2d is left out: S.all is a fixed sequential sweep that draws
    # nothing from the seed, so its digest is the same at every seed.
    for workload in ("hits_3dfast", "mha_quadmc", "fig_sweep"):
        entry = reports["a"]["workloads"][workload]
        other = reports["other_seed"]["workloads"][workload]
        assert entry["stats_digest"] != other["stats_digest"], workload


def test_compare_refuses_quick_reports(spec, reports):
    assert ledger.compare(spec, reports["a"]["path"], reports["b"]["path"]) == 2


def test_children_do_not_see_repro_switches(spec, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "raise:2D:H2:-1")
    unit = ledger.run_unit("fig_sweep", 42, ledger.QUICK_SCALE)
    assert unit["failures"] == []


def test_injected_failing_cell_raises_failed_frac(spec):
    unit = ledger.run_unit(
        "fig_sweep", 42, ledger.QUICK_SCALE,
        extra_env={"REPRO_FAULTS": "raise:2D:H2:-1"},
    )
    entry = ledger.summarize(spec, "fig_sweep", [unit])
    assert entry["failed"] == 1 and entry["attempted"] == 12
    assert entry["metrics"]["failed_frac"]["value"] == pytest.approx(1 / 12)
