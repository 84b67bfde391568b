"""Trial-record serialization: aligned table, csv, and json-lines.

All floating-point values are rendered with 17 significant digits, enough to
reconstruct the float64 bit pattern exactly, so emitted files are both
byte-reproducible and lossless under round-trip parsing.  In json-lines a
non-finite value is written as ``NaN``, ``Infinity`` or ``-Infinity``, the
tokens :func:`json.loads` reads back.
"""
from __future__ import annotations

import io
import json

import numpy as np

from .errors import ContractViolation
from .experiments import RECORD_FIELDS, TrialRecord

_FLOAT_FIELDS = ("min_lower_margin", "min_upper_margin", "worst_residual")

#: json-lines tokens of the non-finite cells, which JSON itself has no numbers for
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _record_cells(record: TrialRecord) -> list[str]:
    cells = []
    for name in RECORD_FIELDS:
        value = getattr(record, name)
        if name in _FLOAT_FIELDS:
            cells.append(format_float(value))
        elif name == "passed":
            cells.append("true" if value else "false")
        else:
            cells.append(str(value))
    return cells


def emit_csv(records, stream) -> None:
    stream.write(",".join(RECORD_FIELDS) + "\n")
    for record in records:
        cells = _record_cells(record)
        # quote the free-text notes column if it could break the row
        if any(c in cells[-1] for c in ",\"\n"):
            cells[-1] = '"' + cells[-1].replace('"', '""') + '"'
        stream.write(",".join(cells) + "\n")


def emit_json_lines(records, stream) -> None:
    for record in records:
        parts = []
        for name, cell in zip(RECORD_FIELDS, _record_cells(record)):
            token = json.dumps(cell) if name in ("suite", "notes") else cell
            parts.append(f"{json.dumps(name)}: {_JSON_NON_FINITE.get(token, token)}")
        stream.write("{" + ", ".join(parts) + "}\n")


def parse_json_lines(text: str) -> list[TrialRecord]:
    """Inverse of :func:`emit_json_lines` (the round-trip contract)."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        records.append(TrialRecord(**{name: data[name] for name in RECORD_FIELDS}))
    return records


def summarize(records) -> list[str]:
    """Per-suite pass rates and worst observed margins/residuals."""
    lines = []
    for suite in dict.fromkeys(r.suite for r in records):
        group = [r for r in records if r.suite == suite]
        passes = sum(r.passed for r in group)
        # np.min and np.max keep a NaN wherever it stands; Python's drop it unless it comes first
        worst_margin = np.min([(r.min_lower_margin, r.min_upper_margin) for r in group])
        worst_residual = np.max([r.worst_residual for r in group])
        lines.append(
            f"{suite}: {passes}/{len(group)} passed, "
            f"min margin {worst_margin:.3e}, worst residual {worst_residual:.3e}"
        )
    total = sum(r.passed for r in records)
    lines.append(f"total: {total}/{len(records)} passed")
    return lines


def emit_table(records, stream) -> None:
    headers = list(RECORD_FIELDS)
    rows = [_record_cells(r) for r in records]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    stream.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for row in rows:
        stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    stream.write("\n")
    for line in summarize(records):
        stream.write(line + "\n")


#: report format -> emitter; the one list of output formats
EMITTERS = {"table": emit_table, "csv": emit_csv, "json-lines": emit_json_lines}
FORMATS = tuple(EMITTERS)


def render(records, format: str) -> str:
    """The records as one report in ``format``, one of :data:`FORMATS`."""
    if format not in EMITTERS:
        raise ContractViolation(f"unknown format {format!r}, expected one of {FORMATS}")
    buffer = io.StringIO()
    EMITTERS[format](records, buffer)
    return buffer.getvalue()
