"""Cache-key canonicalization: the contract the whole service rests on.

Two halves, both load-bearing:

* *stability* — keys must NOT change across process boundaries, dict
  field order, spelling variants of the same checkers/sampling spec, or
  a permuted benchmark list (canonical core placement makes a mix a
  multiset, see ``tests/integration/test_golden.py``);
* *sensitivity* — keys MUST change for anything that changes simulation
  output: any config knob, checkers on/off, the sampling
  plan, the seed, the instruction budgets, and the config/mix names
  (embedded in the stored result).
"""

import json
import os
import subprocess
import sys

from repro.experiments.spec import (
    canonical_json,
    cell_key,
    cell_payload,
    config_from_dict,
    config_to_dict,
)
from repro.system.config import config_memcache
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

from .conftest import TINY, small_config

BASE = small_config("base")
M1 = MIXES["M1"]


def key(config=BASE, mix_name=M1.name, benchmarks=M1.benchmarks,
        scale=TINY, seed=42, checkers=None, sampling=None):
    return cell_key(config, mix_name, benchmarks, scale, seed,
                    checkers=checkers, sampling=sampling)


# ----------------------------------------------------------------------
# Stability: everything cosmetic hashes identically


def test_key_is_deterministic_in_process():
    assert key() == key()
    assert len(key()) == 64 and all(c in "0123456789abcdef" for c in key())


def test_key_stable_across_process_boundaries():
    """A fresh interpreter derives the same key (no per-process state,
    no hash randomization leakage, no dict-order dependence)."""
    from pathlib import Path

    tests_dir = Path(__file__).resolve().parent.parent
    src_dir = tests_dir.parent / "src"
    program = (
        f"import sys; sys.path.insert(0, {str(src_dir)!r}); "
        f"sys.path.insert(0, {str(tests_dir)!r})\n"
        "from service.test_keys import key\n"
        "print(key())\n"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "random"
    child = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == key()


def test_key_ignores_dict_field_order():
    """A config rebuilt from a field-reordered dict keys identically."""
    forward = config_to_dict(BASE)
    reordered = dict(reversed(list(forward.items())))
    rebuilt = config_from_dict(reordered)
    assert rebuilt == BASE
    assert key(config=rebuilt) == key()


def test_key_ignores_benchmark_order():
    """Permuted mixes are the same multiset → the same cached cell."""
    benchmarks = list(M1.benchmarks)
    permuted = benchmarks[::-1]
    assert permuted != benchmarks  # the permutation is real
    assert key(benchmarks=permuted) == key(benchmarks=benchmarks)


def test_key_preserves_repeated_benchmarks():
    """Sorting must not collapse duplicates: a multiset, not a set."""
    assert key(benchmarks=["mcf", "mcf", "gzip", "gzip"]) != key(
        benchmarks=["mcf", "gzip", "gzip", "gzip"]
    )


def test_key_ignores_benchmarks_container_type():
    assert key(benchmarks=tuple(M1.benchmarks)) == key(
        benchmarks=list(M1.benchmarks)
    )


def test_key_ignores_scale_name():
    """Two scales with equal budgets run the same simulation."""
    renamed = ExperimentScale("production", TINY.warmup_instructions,
                              TINY.measure_instructions)
    assert key(scale=renamed) == key()


def test_checker_spellings_normalize():
    """``all`` and the explicit full list share one cache entry."""
    from repro.validate import CHECKER_NAMES

    explicit = ",".join(CHECKER_NAMES)
    assert key(checkers="all") == key(checkers=explicit)
    shuffled = ",".join(reversed(CHECKER_NAMES))
    assert key(checkers="all") == key(checkers=shuffled)


def test_sampling_spellings_normalize():
    """``on`` and the default plan spelled out share one cache entry."""
    from repro.sampling.plan import SamplingPlan

    default = SamplingPlan()
    spelled = (
        f"detailed:{default.detailed}"
        f",warmup:{default.warmup}"
        f",detail_warmup:{default.detail_warmup}"
        f",min_intervals:{default.min_intervals}"
    )
    assert key(sampling="on") == key(sampling=spelled)
    assert key(sampling="on") == key(sampling=default)


def test_payload_is_json_canonical():
    """The payload serializes identically regardless of insertion order."""
    payload = cell_payload(BASE, M1.name, M1.benchmarks, TINY, 42)
    shuffled = json.loads(canonical_json(payload))
    assert canonical_json(shuffled) == canonical_json(payload)


# ----------------------------------------------------------------------
# Sensitivity: anything that changes output changes the key


def test_key_changes_with_config_knobs():
    assert key(config=small_config("base", rob_size=128)) != key()
    assert key(config=small_config("base", memory_bus="tsv8")) != key()


def test_key_changes_with_config_name():
    """``MachineResult.config_name`` is part of the cached result: a
    renamed config must miss, or the hit would carry the old name."""
    assert key(config=small_config("renamed")) != key()


def test_key_changes_with_mix_name():
    assert key(mix_name="M1-alias") != key()


def test_key_changes_with_benchmarks():
    assert key(benchmarks=MIXES["M3"].benchmarks) != key()


def test_key_changes_with_seed():
    assert key(seed=43) != key()


def test_key_changes_with_instruction_budgets():
    assert key(scale=ExperimentScale("tiny", 400, 1000)) != key()
    assert key(scale=ExperimentScale("tiny", 300, 2000)) != key()


def test_key_changes_with_checkers_on_off_and_subset():
    assert key(checkers="all") != key()
    assert key(checkers="mshr") != key(checkers="all")
    assert key(checkers="mshr") != key()


def test_key_changes_with_sampling():
    assert key(sampling="on") != key()
    assert key(sampling="detailed:600,warmup:2000") != key(sampling="on")


def test_config_dict_round_trip_with_stack_mode():
    config = config_memcache(base=BASE)
    assert config_from_dict(config_to_dict(config)) == config
    assert key(config=config_from_dict(config_to_dict(config))) == key(
        config=config
    )
