"""CSV/JSON artifact helpers with fixed, reproducible formatting."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def fmt_float(value: float) -> str:
    """17-significant-digit decimal rendering (exact binary64 round trip)."""
    return format(float(value), ".17g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    """Comma-separated, header row, LF line endings, 17-digit floats; rows stream, and a Python float skips ``_cell``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if type(v) is float else _cell(v) for v in row])


def read_csv(path):
    """Header plus rows of strings; empty cells stay empty strings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def write_json(path, obj) -> None:
    """Deterministic JSON artifact (sorted keys, exact float round trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
