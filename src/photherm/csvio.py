"""Plain-text tabular output: CSV with ``#``-prefixed metadata headers.

Every data file starts with ``# key: value`` lines (provenance: tool
version, parameter digest, producing manifest), then a column-name row,
then rows of values.  Floats are written with 17 significant digits so a
rerun of the same configuration reproduces files byte for byte; no
timestamps ever appear in data files.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

FLOAT_FORMAT = "{:.17g}"  # float cells; write_csv's "%.17g" writes the same bytes
ROW_BLOCK = 1024  # rows formatted and written at a time


def _cells(arr: np.ndarray) -> tuple[str, list]:
    """The %-template field of one column and its cells: floats stay floats
    for "%.17g", bools become 1/0, anything else (integers in full,
    strings) goes through str."""
    kind = arr.dtype.kind
    if kind == "f":
        return "%.17g", arr.astype(float, copy=False).tolist()
    if kind == "b":
        return "%s", ["1" if v else "0" for v in arr.tolist()]
    return "%s", list(map(str, arr.tolist()))


def write_csv(path: str | Path, columns: dict, metadata: dict | None = None) -> Path:
    """Write named columns (equal-length sequences) with metadata lines.

    Rows are streamed ROW_BLOCK at a time, each block formatted by one
    %-template, so memory does not grow with the file.
    """
    path = Path(path)
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[name]) for name in names]
    length = arrays[0].shape[0]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"column {name!r} is not a length-{length} vector")
    header = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
    header.append(",".join(names))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write("\n".join(header) + "\n")
        for start in range(0, length, ROW_BLOCK):
            fields, cells = zip(*(_cells(arr[start : start + ROW_BLOCK]) for arr in arrays))
            row = ",".join(fields) + "\n"
            out.write((row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))
    return path


def read_csv(path: str | Path) -> tuple[dict, dict]:
    """Read a metadata-headed CSV back into (metadata, column arrays).

    Columns parse as float arrays when every cell converts, otherwise as
    string arrays.
    """
    lines = Path(path).read_text().splitlines()
    metadata: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if ":" in body:
            key, _, value = body.partition(":")
            metadata[key.strip()] = value.strip()
        i += 1
    if i >= len(lines):
        raise ValueError(f"{path}: no column header found")
    names = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :] if line]
    for j, row in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"{path}: row {j} has {len(row)} cells, expected {len(names)}")
    columns: dict[str, np.ndarray] = {}
    for ci, name in enumerate(names):
        cells = [row[ci] for row in rows]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = np.array(cells)
    return metadata, columns
