#!/usr/bin/env python3
"""Regenerate docs/api.md from the live docstrings.

Run from the repository root::

    python docs/generate_api.py
"""

import importlib
import inspect
import pathlib

PACKAGES = [
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
    "repro.sampling",
    "repro.snapshot",
    "repro.validate",
]


def describe(name: str, obj) -> str:
    if inspect.isclass(obj):
        kind = "class"
        doc = inspect.getdoc(obj) or ""
    elif callable(obj):
        kind = "function"
        doc = inspect.getdoc(obj) or ""
    else:
        kind = "constant"
        doc = ""  # builtins' docstrings are noise for plain values
    first = doc.splitlines()[0] if doc else ""
    suffix = f" — {first}" if first else ""
    return f"* **`{name}`** ({kind}){suffix}"


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated from the live docstrings (`python docs/generate_api.py`).",
        "One entry per public symbol of each subpackage's `__all__`.",
        "Narrative guides: [modeling](modeling.md), [workloads](workloads.md),",
        "[extending](extending.md), [resilience](resilience.md) (watchdogs,",
        "retries, checkpoint/resume).",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`")
        lines.append("")
        summary = (module.__doc__ or "").strip().splitlines()[0]
        lines.append(summary)
        lines.append("")
        for name in sorted(getattr(module, "__all__", [])):
            lines.append(describe(name, getattr(module, name)))
        lines.append("")
    output = pathlib.Path(__file__).parent / "api.md"
    output.write_text("\n".join(lines))
    print(f"wrote {output} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
