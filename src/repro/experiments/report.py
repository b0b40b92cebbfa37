"""Plain-text table formatting for experiment reports.

The harness prints the same row/column structure as the paper's figures
so paper-vs-measured comparison is a side-by-side read.
"""

from __future__ import annotations

from typing import Dict, Sequence


def format_table(
    title: str,
    row_labels: Sequence[str],
    columns: Dict[str, Sequence[float]],
    value_format: str = "{:.3f}",
    note: str = "",
) -> str:
    """Render a labelled table of numeric columns.

    Args:
        title: heading line.
        row_labels: one label per row.
        columns: column name -> values (must match ``row_labels`` length).
        value_format: format applied to every cell.
        note: optional trailing note line.
    """
    for name, values in columns.items():
        if len(values) != len(row_labels):
            raise ValueError(
                f"column {name!r} has {len(values)} values for "
                f"{len(row_labels)} rows"
            )
    label_width = max([len(r) for r in row_labels] + [8])
    headers = list(columns)
    widths = [
        max(len(h), *(len(value_format.format(v)) for v in columns[h]))
        for h in headers
    ]
    lines = [title, "=" * len(title)]
    header = " " * label_width + "  " + "  ".join(
        h.rjust(w) for h, w in zip(headers, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, label in enumerate(row_labels):
        cells = "  ".join(
            value_format.format(columns[h][i]).rjust(w)
            for h, w in zip(headers, widths)
        )
        lines.append(label.ljust(label_width) + "  " + cells)
    if note:
        lines.append(note)
    return "\n".join(lines)


def with_sampling_note(note: str, table) -> str:
    """``note`` plus the table's sampled-run annotation, when it has one.

    Every report built on a :class:`~repro.experiments.runner.ResultTable`
    passes its note through here, so a sampled run's confidence travels
    with the numbers whatever the experiment.
    """
    return "\n".join(part for part in (note, table.sampling_note()) if part)

