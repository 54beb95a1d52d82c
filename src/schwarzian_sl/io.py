"""Deterministic CSV/JSON export with a provenance header block.

Every file starts with a header recording the run configuration, the tool
version and the provenance tags of any reference targets involved, so a
result file can be reproduced from its own header.  Numbers are written in
shortest round-trip form, which makes identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__ as _version


def format_number(value: Any) -> str:
    """Shortest representation that round-trips the float exactly."""
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def header_lines(meta: dict[str, Any]) -> list[str]:
    lines = [f"# tool: schwarzian-sl {_version}"]
    for key in meta:
        value = meta[key]
        if isinstance(value, (dict, list, tuple)):
            value = json.dumps(value, sort_keys=True, default=str)
        lines.append(f"# {key}: {value}")
    return lines


def complex_columns(name: str, values: Sequence[complex]) -> list[tuple[str, list]]:
    """Split a complex column into Re/Im columns."""
    arr = np.asarray(values, dtype=complex)
    return [(f"Re {name}", arr.real.tolist()), (f"Im {name}", arr.imag.tolist())]


def write_csv(
    path: str | Path,
    meta: dict[str, Any],
    columns: Iterable[tuple[str, Sequence[Any]]],
) -> Path:
    path = Path(path)
    cols = list(columns)
    names = [name for name, _ in cols]
    series = [list(values) for _, values in cols]
    n = len(series[0]) if series else 0
    if any(len(v) != n for v in series):
        raise ValueError("all columns must have the same length")
    out = header_lines(meta)
    out.append(",".join(names))
    for i in range(n):
        out.append(",".join(format_number(v[i]) for v in series))
    path.write_text("\n".join(out) + "\n")
    return path


def _jsonable(value: Any) -> Any:
    """Plain JSON values; non-finite floats (failed samples) become None."""
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def write_json(path: str | Path, meta: dict[str, Any], payload: Any) -> Path:
    path = Path(path)
    doc = {"meta": {"tool": f"schwarzian-sl {_version}", **_jsonable(meta)},
           "data": _jsonable(payload)}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path
