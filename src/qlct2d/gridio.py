"""Reading and writing sampled grids as CSV or JSON files.

The path's extension names the form, on read and on write alike:

* a path ending in ``.json`` (in any case) is a single JSON file
  embedding the grid header, the values and any parameters;
* any other path is CSV with header ``x1,x2,qa,qb,qc,qd`` and one row
  per node in row-major order, plus a JSON sidecar ``<path>.json``
  holding the grid bounds (and transform parameters for spectra).  The
  sidecar is optional on read; without it the grid is inferred from
  the coordinate columns.  Either way each row's coordinates must be its
  node's to within 1e-9 of the spacing, or the file is malformed.

A header's parameters parse as a ``--params`` file's do, through
:meth:`TransformParams.from_dict`, and every header error names its file.

Floats are written with :func:`repr`, whose shortest round-trip
representation reproduces the exact binary value on read.  Each path
runs in C: the CSV body is parsed by :func:`numpy.loadtxt` and written
as one ``%r`` format string with ``\r\n`` line ends, and JSON is read
by :func:`json.load` and written as one :func:`json.dumps` string,
because ``json.dump`` to a file never uses the C encoder.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from .field import GridSpec, SampledField, _grid_values
from .lct import TransformParams
from .transform import Spectrum

__all__ = [
    "ParseError",
    "read_field",
    "write_field",
    "read_spectrum",
    "write_spectrum",
]

_CSV_HEADER = ["x1", "x2", "qa", "qb", "qc", "qd"]


class ParseError(ValueError):
    """A grid file is missing, empty, or malformed."""


def _sidecar_path(path: str) -> str | None:
    """A CSV grid's JSON sidecar, or None for a path ending in .json."""
    if os.path.splitext(path)[1].lower() == ".json":
        return None
    return path + ".json"


def _header_dict(spec: GridSpec, params: TransformParams | None) -> dict:
    d = spec.to_dict()
    if params is not None:
        d["params"] = params.to_dict()
    return d


def _write_csv(path: str, spec: GridSpec, values: np.ndarray,
               params: TransformParams | None):
    table = np.column_stack([_node_columns(spec), values.reshape(-1, 4)])
    # %r is the float repr the csv module writes, and \r\n its line end
    body = (",".join(_CSV_HEADER) + "\r\n"
            + ("%r,%r,%r,%r,%r,%r\r\n" * table.shape[0])
            % tuple(table.ravel().tolist()))
    side = json.dumps(_header_dict(spec, params), indent=1) + "\n"
    # both strings exist before either file is opened, so a value that
    # cannot be encoded leaves no file behind; the sidecar goes first, so
    # a sidecar that cannot be written leaves no CSV without its header
    with open(_sidecar_path(path), "w") as fh:
        fh.write(side)
    with open(path, "w", newline="") as fh:
        fh.write(body)


def _node_columns(spec: GridSpec) -> np.ndarray:
    """The (x1, x2) columns of the grid's nodes in row-major order."""
    return np.column_stack([np.repeat(spec.x1_nodes(), spec.n2),
                            np.tile(spec.x2_nodes(), spec.n1)])


def _infer_spec_from_columns(path: str, x1: np.ndarray,
                             x2: np.ndarray) -> GridSpec:
    """Reconstruct the grid from row-major coordinate columns."""
    n2 = 1
    while n2 < x1.size and x1[n2] == x1[0]:
        n2 += 1
    if x1.size % n2 != 0:
        raise ParseError(f"{path}: row count is not a multiple of the "
                         f"inferred row length {n2}")
    n1 = x1.size // n2
    try:
        return GridSpec(float(x1[0]), float(x1[-1]),
                        float(x2[0]), float(x2[n2 - 1]), n1, n2)
    except ValueError as e:
        raise ParseError(f"{path}: the coordinate columns give no grid "
                         f"({e})") from e


def _load_json(path: str):
    """The parsed contents of a JSON file; an unreadable file or invalid
    JSON is a ParseError naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from e


def _from_header(path: str, parse, entry):
    """parse(entry) for a GridSpec or TransformParams entry of a header
    or parameter file; a missing or mistyped key is a ParseError naming
    the file, while an invariant violation stays a ValueError, prefixed
    with the file's path."""
    try:
        return parse(entry)
    except (KeyError, TypeError) as e:
        raise ParseError(f"{path}: malformed header "
                         f"({type(e).__name__}: {e})") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _read_csv(path: str) -> tuple[GridSpec, np.ndarray, TransformParams | None]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    # blank lines are skipped, as loadtxt skips them in the body
    head, _, body = text.lstrip("\n").partition("\n")
    if not head:
        raise ParseError(f"{path}: no rows")
    if [h.strip() for h in head.split(",")] != _CSV_HEADER:
        raise ParseError(f"{path}: expected header {','.join(_CSV_HEADER)}, "
                         f"got {head[:80]!r}")
    if not body.strip("\n"):
        raise ParseError(f"{path}: no rows after header")
    try:
        # comments=None keeps "#" a bad cell; quotechar accepts "1"
        data = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                          quotechar='"', ndmin=2)
    except ValueError as e:
        raise ParseError(f"{path}: non-numeric cell ({e})") from e
    if data.shape[1] != 6:
        raise ParseError(f"{path}: expected 6 columns, got {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        row = int(np.argwhere(~np.isfinite(data))[0, 0])
        raise ParseError(f"{path}: non-finite cell in data row {row + 1}")

    params = None
    side = _sidecar_path(path)
    if os.path.exists(side):
        header = _load_json(side)
        spec = _from_header(side, GridSpec.from_dict, header)
        if "params" in header:
            params = _from_header(side, TransformParams.from_dict,
                                  header["params"])
    else:
        spec = _infer_spec_from_columns(path, data[:, 0], data[:, 1])
    if data.shape[0] != spec.n1 * spec.n2:
        raise ParseError(f"{path}: {data.shape[0]} rows for a "
                         f"{spec.n1} x {spec.n2} grid")
    # the tolerance of field._origin_offset, 1e-9 h, on each axis
    off = (np.abs(data[:, :2] - _node_columns(spec))
           > 1e-9 * np.array([spec.h1, spec.h2]))
    if off.any():
        row = int(np.argwhere(off)[0, 0])
        raise ParseError(f"{path}: data row {row + 1} is not at its node of "
                         f"the row-major {spec.n1} x {spec.n2} grid")
    values = data[:, 2:].reshape(spec.n1, spec.n2, 4)
    return spec, values, params


def _write_json(path: str, spec: GridSpec, values: np.ndarray,
                params: TransformParams | None):
    doc = {"grid": _header_dict(spec, None), "values": values.tolist()}
    if params is not None:
        doc["params"] = params.to_dict()
    text = json.dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _read_json(path: str) -> tuple[GridSpec, np.ndarray, TransformParams | None]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "grid" not in doc or "values" not in doc:
        raise ParseError(f"{path}: expected an object with grid and values")
    spec = _from_header(path, GridSpec.from_dict, doc["grid"])
    try:
        values = _grid_values(spec, doc["values"])
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e
    # numpy reads true and false as 1.0 and 0.0, so only the rows that
    # hold such a value need the types of their cells looked at
    rows = np.flatnonzero(((values == 0.0) | (values == 1.0)).any(axis=(1, 2)))
    cells = chain.from_iterable(chain.from_iterable(
        doc["values"][r] for r in rows))
    if bool in map(type, cells):
        raise ParseError(f"{path}: a boolean in values is not a number")
    params = None
    if "params" in doc:
        params = _from_header(path, TransformParams.from_dict, doc["params"])
    return spec, values, params


def _codec(path: str):
    """(reader, writer) by path's extension: .json, in any case, is
    single-file JSON and any other is CSV with a sidecar."""
    if _sidecar_path(path) is None:
        return _read_json, _write_json
    return _read_csv, _write_csv


def write_field(f: SampledField, path: str):
    """Write a field as CSV (with JSON sidecar) or single-file JSON."""
    _codec(path)[1](path, f.spec, f.values, None)


def read_field(path: str) -> SampledField:
    """Read a field; the format is taken from the extension."""
    spec, values, _ = _codec(path)[0](path)
    return SampledField(spec, values)


def write_spectrum(s: Spectrum, path: str):
    """Write a spectrum; its transform parameters go in the header."""
    _codec(path)[1](path, s.spec, s.values, s.params)


def read_spectrum(path: str) -> Spectrum:
    """Read a spectrum, restoring embedded transform parameters."""
    return Spectrum(*_codec(path)[0](path))
