"""Paper claims as data: every catalog entry's ``expect``, measured.

Each claim of the paper's evaluation is declared once, in the ``expect``
of its :class:`~repro.experiments.catalog.Experiment`, as a
:class:`Band` (a quantity lies in ``[lo, hi]``; ``paper`` is the paper's
value, if it gives one) or an :class:`Ordering` (quantities strictly
increase, over the run's mixes or on each mix).  A quantity reads
``<gm|probes|hmipc|mpki> <config>[ -|/ <config>][ @<sel>]``: the
geometric-mean speedup over the entry's first config (a % improvement
on a ``percent`` entry), the mean MSHR probes per access, the
geometric-mean HMIPC or the mean per-core L2 MPKI; its difference or
ratio against a second config; over the mix groups or names ``sel``
(``@H,VH``, ``@M3``; default: every mix of the run).

A ``reason`` makes the status ``DEVIATES(reason)`` instead of ``MET``,
and the status rule ties it to the numbers: a Band's band contains its
``paper`` value iff it has no reason (checked on declaration), an
Ordering holds iff it has no reason (checked on measurement).  The
measurements render the report notes (:func:`claims_note`), the GM-row "paper"
column (:func:`paper_column`), ``FIDELITY.json`` (:func:`rows`, written
by ``python -m repro validate fidelity``) and EXPERIMENTS.md's tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..common.errors import CellFailedError
from ..system.scale import DEFAULT, SMOKE
from ..workloads.mixes import MIXES
from .runner import ResultTable, geometric_mean

#: The mixes of the ``smoke`` column (each entry keeps those in its groups).
GATE_MIXES = ("H1", "VH2", "M3")

#: ``FIDELITY.json``'s header: what each field of a row holds.
COLUMNS = {
    "claim": "<catalog entry>: <quantity>, or <q0> < <q1> < ... (grammar: repro.experiments.fidelity)",
    "kind": "band: lo <= value <= hi; ordering: the values strictly increase",
    "paper": "the paper's value (null: the paper gives none)",
    "band": "[lo, hi], where the value must lie in both columns",
    "smoke": f"SMOKE scale ({SMOKE.warmup_instructions:,} warm-up + {SMOKE.measure_instructions:,} "
    f"measured instructions per core), seed 42, gate mixes {', '.join(GATE_MIXES)} in the entry's "
    "groups (table2a: every benchmark); null: no gate mix in the claim's selection",
    "default": f"DEFAULT scale ({DEFAULT.warmup_instructions:,} + "
    f"{DEFAULT.measure_instructions:,}), seed 42, each entry's own mixes",
    "status": "MET, or DEVIATES(reason): not reproduced; the band excludes the paper's value, "
    "or the ordering fails",
}

_METRICS = ("gm", "probes", "hmipc", "mpki")


def _parse(quantity: str) -> Tuple[str, List[str], Optional[str], Optional[Tuple[str, ...]]]:
    """``(metric, configs, op, selection)`` of a quantity string."""
    words = quantity.split()
    selection = None
    if words and words[-1].startswith("@"):
        selection = tuple(words.pop()[1:].split(","))
    if len(words) not in (2, 4) or words[0] not in _METRICS or words[2:3] not in ([], ["-"], ["/"]):
        raise ValueError(f"bad quantity {quantity!r}: see repro.experiments.fidelity")
    return words[0], words[1::2], words[2] if len(words) == 4 else None, selection


def _increasing(value: Union[List[float], Dict[str, List[float]]]) -> bool:
    lists = value.values() if isinstance(value, dict) else [value]
    return all(a < b for values in lists for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class Band:
    """``lo <= quantity <= hi``; ``paper`` is the paper's value, if any."""

    quantity: str
    lo: float
    hi: float
    paper: Optional[float] = None
    reason: str = ""

    def __post_init__(self) -> None:
        _parse(self.quantity)
        if not self.lo <= self.hi:
            raise ValueError(f"{self.quantity}: empty band {self.band}")
        if self.paper is not None and (self.lo <= self.paper <= self.hi) == bool(self.reason):
            raise ValueError(f"{self.quantity}: band {self.band} " + (
                f"contains the paper's {self.paper}, so it cannot DEVIATE" if self.reason
                else f"excludes the paper's {self.paper}: that needs a reason"
            ))

    @property
    def expression(self) -> str:
        return self.quantity

    @property
    def band(self) -> List[float]:
        return [self.lo, self.hi]


@dataclass(frozen=True)
class Ordering:
    """``quantities[0] < quantities[1] < ...`` over the run's mixes, or on
    each of them (``per_mix``)."""

    quantities: Tuple[str, ...]
    per_mix: bool = False
    reason: str = ""

    paper = None
    band = None

    def __post_init__(self) -> None:
        if len(self.quantities) < 2:
            raise ValueError(f"an ordering needs two quantities: {self.quantities}")
        for quantity in self.quantities:
            _parse(quantity)

    @property
    def expression(self) -> str:
        return " < ".join(self.quantities) + (" on each mix" if self.per_mix else "")


Expectation = Union[Band, Ordering]


def _quantity(quantity: str, percent: bool, table: ResultTable, mixes) -> Optional[float]:
    metric, configs, op, selection = _parse(quantity)
    chosen = [
        m for m in mixes
        if selection is None or m in selection or (m in MIXES and MIXES[m].group in selection)
    ]
    if not chosen:
        return None
    values = []
    for config in configs:
        if metric == "gm":
            speedup = geometric_mean(table.speedup(config, m, table.configs[0]) for m in chosen)
            values.append((speedup - 1.0) * 100.0 if percent else speedup)
        elif metric == "hmipc":
            values.append(geometric_mean(table.hmipc(config, m) for m in chosen))
        else:
            results = [table.result(config, m) for m in chosen]
            samples = (
                [r.mshr_avg_probes for r in results] if metric == "probes"
                else [core.l2_mpki for r in results for core in r.cores]
            )
            values.append(sum(samples) / len(samples))
    if op is None:
        return values[0]
    return values[0] - values[1] if op == "-" else values[0] / values[1]


def measure(experiment, table: ResultTable) -> Dict[str, Any]:
    """``{claim: value}`` for every expectation of ``experiment``: a float
    (Band), a list of floats (Ordering) or ``{mix: [floats]}`` (per-mix
    Ordering), rounded to 4 decimals; None where the run has no healthy
    mix the claim selects."""

    def values(quantities, mixes):
        found = [_quantity(q, experiment.percent, table, mixes) for q in quantities]
        return None if None in found else [round(v, 4) for v in found]

    def one(e):
        try:
            if isinstance(e, Band):
                return (values([e.quantity], table.mixes) or [None])[0]
            if not e.per_mix:
                return values(e.quantities, table.mixes)
            per_mix = {m: values(e.quantities, [m]) for m in table.mixes}
            return {m: v for m, v in per_mix.items() if v is not None} or None
        except CellFailedError:
            return None

    return {f"{experiment.name}: {e.expression}": one(e) for e in experiment.expect}


def _format(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, dict):
        return "; ".join(f"{m}: {_format(v)}" for m, v in value.items())
    if isinstance(value, list):
        return ", ".join(f"{v:.4g}" for v in value)
    return f"{value:.4g}"


def _broken(row: Dict[str, Any], column: str) -> Optional[str]:
    """Why ``row[column]`` breaks the row's claim (None: it does not)."""
    value = row[column]
    if value is None:
        return None
    if row["kind"] == "band":
        lo, hi = row["band"]
        return None if lo <= value <= hi else f"{column} {value:.4g} outside [{lo:g}, {hi:g}]"
    holds = _increasing(value)
    return None if holds == (row["status"] == "MET") else (
        f"{column} ordering {'holds' if holds else 'fails'} but the status is {row['status']}")


def paper_column(expect: Sequence[Expectation]) -> Dict[str, float]:
    """The paper's GM per config: the ``paper`` of every plain
    ``gm <config>`` Band (no second config, no mix selection)."""
    bands = [(e, _parse(e.quantity)) for e in expect if isinstance(e, Band) and e.paper is not None]
    return {q[1][0]: e.paper for e, q in bands if (q[0], q[2], q[3]) == ("gm", None, None)}


def rows(experiments, measured: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One ``FIDELITY.json`` row per expectation of ``experiments``;
    ``measured`` maps ``smoke`` / ``default`` to ``{claim: value}``."""
    out = []
    for experiment in experiments:
        for e in experiment.expect:
            claim = f"{experiment.name}: {e.expression}"
            out.append({
                "claim": claim,
                "kind": type(e).__name__.lower(),
                "paper": e.paper,
                "band": e.band,
                "smoke": measured.get("smoke", {}).get(claim),
                "default": measured.get("default", {}).get(claim),
                "status": f"DEVIATES({e.reason})" if e.reason else "MET",
            })
    return out


def claims_note(experiment, table: ResultTable) -> str:
    """The report note: every claim of ``experiment`` measured on ``table``."""
    lines = []
    # This run's values ride in the rows' "smoke" slot.
    for row in rows([experiment], {"smoke": measure(experiment, table)}):
        status, _, reason = row["status"].partition("(")
        text = "not measured on these mixes" if row["smoke"] is None else _format(row["smoke"])
        if row["paper"] is not None:
            text += f" (paper {row['paper']:g})"
        if _broken(row, "smoke"):
            text += " — BROKEN"
        if reason:
            text += f" — {reason[:-1]}"
        band = "" if row["band"] is None else " in [{:g}, {:g}]".format(*row["band"])
        lines.append(f"{status} {row['claim'].split(': ', 1)[1]}{band}: {text}")
    return "\n".join(lines)


def violations(table_rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Every value outside its row's band, and every ordering whose
    outcome contradicts its status."""
    return [
        f"{row['claim']}: {broken}"
        for row in table_rows
        for broken in (_broken(row, "smoke"), _broken(row, "default"))
        if broken
    ]


def dumps(table_rows: Sequence[Dict[str, Any]]) -> str:
    """``FIDELITY.json``'s text: the header, then one row a line."""
    lines = [f"  {json.dumps(row, ensure_ascii=False)}" for row in table_rows]
    header = json.dumps(COLUMNS, indent=2, ensure_ascii=False)
    return f'{{\n "columns": {header},\n "rows": [\n' + ",\n".join(lines) + "\n ]\n}\n"


def loads(text: str) -> Tuple[List[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """A ``FIDELITY.json`` text's rows, and its columns as :func:`rows` takes them."""
    table_rows = json.loads(text)["rows"]
    return table_rows, {c: {r["claim"]: r[c] for r in table_rows} for c in ("smoke", "default")}


def _markdown(table_rows: Sequence[Dict[str, Any]], name: str) -> str:
    if name == "deviations":
        return "".join(
            f"- `{row['claim']}`: {row['status'][len('DEVIATES('):-1]}\n"
            for row in table_rows if row["status"] != "MET"
        )
    lines = ["| claim | paper | band | measured (default) | status |", "|---|---|---|---|---|"]
    for row in table_rows:
        entry, claim = row["claim"].split(": ", 1)
        if entry == name:
            band = "—" if row["band"] is None else "[{:g}, {:g}]".format(*row["band"])
            paper = "—" if row["paper"] is None else f"{row['paper']:g}"
            lines.append(
                f"| `{claim}` | {paper} | {band} | {_format(row['default'])} "
                f"| {row['status'].split('(')[0]} |"
            )
    return "\n".join(lines) + "\n"


def rewrite_tables(text: str, table_rows: Sequence[Dict[str, Any]]) -> str:
    """``text`` (EXPERIMENTS.md) with each block from a line ``<!--
    fidelity:NAME -->`` to a line ``<!-- /fidelity -->`` regenerated:
    NAME's rows as a table (``deviations``: every DEVIATES reason)."""
    head, *blocks = text.split("\n<!-- fidelity:")
    out = [head]
    for block in blocks:
        name, rest = block.split(" -->\n", 1)
        _, tail = f"\n{rest}".split("\n<!-- /fidelity -->", 1)
        out.append(f"\n<!-- fidelity:{name} -->\n{_markdown(table_rows, name)}<!-- /fidelity -->{tail}")
    return "".join(out)
