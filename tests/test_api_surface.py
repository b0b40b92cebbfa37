"""Public API surface checks: everything advertised is importable."""

import ast
import importlib
import pathlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.engine",
    "repro.common",
    "repro.dram",
    "repro.memctrl",
    "repro.interconnect",
    "repro.cache",
    "repro.mshr",
    "repro.cpu",
    "repro.workloads",
    "repro.stack3d",
    "repro.system",
    "repro.experiments",
    "repro.service",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} is advertised but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"


def test_top_level_quickstart_names():
    import repro

    for name in ("config_2d", "config_3d_fast", "run_workload",
                 "Machine", "MIXES", "BENCHMARKS", "__version__"):
        assert hasattr(repro, name)


def test_every_public_module_has_docstring():
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    checked = 0
    for path in sorted(root.rglob("*.py")):
        if path.name in ("__main__.py",):
            continue
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module_name = ".".join(("repro",) + parts)
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        checked += 1
    assert checked > 50  # the whole library really was swept


def test_only_the_runner_and_faults_read_the_environment():
    """``run_matrix`` resolves ``REPRO_PARALLEL`` and ``REPRO_CHECK`` once,
    the fault injector reads ``REPRO_FAULTS``; no other module consults
    the environment, so a worker simulates exactly what its task says."""
    root = pathlib.Path(repro.__file__).parent
    names = ("environ", "getenv")
    readers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                reads = (
                    node.attr in names
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                )
            elif isinstance(node, ast.ImportFrom):
                reads = node.module == "os" and any(
                    alias.name in names for alias in node.names
                )
            else:
                continue
            if reads:
                parts = path.relative_to(root.parent).with_suffix("").parts
                readers.add(".".join(parts))
    assert readers == {"repro.experiments.runner", "repro.experiments.faults"}
