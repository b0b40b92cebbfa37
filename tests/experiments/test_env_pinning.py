"""Pin the public environment-variable names.

``REPRO_PARALLEL`` is user-facing contract: it appears in the README and
the generated API docs.  These tests fail if the literal name drifts in
any of the places that consume or document it.
"""

from pathlib import Path

import pytest

from repro.experiments.runner import parallelism_from_env

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repro_parallel_is_read_by_that_exact_name(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "3")
    assert parallelism_from_env() == 3


def test_repro_parallel_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    assert parallelism_from_env() == 1


def test_repro_parallel_auto_uses_cpu_count(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "auto")
    assert parallelism_from_env() >= 1


@pytest.mark.parametrize("bad", ["0", "-2", "many"])
def test_repro_parallel_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("REPRO_PARALLEL", bad)
    with pytest.raises(ValueError, match="REPRO_PARALLEL"):
        parallelism_from_env()


@pytest.mark.parametrize("relpath", ["README.md", "docs/api.md"])
def test_literal_name_documented(relpath):
    text = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    assert "REPRO_PARALLEL" in text, f"{relpath} lost the REPRO_PARALLEL name"

