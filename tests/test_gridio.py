"""On-disk grid formats: bit-exact roundtrips and malformed-input errors."""

import csv
import io
import json
import os

import numpy as np
import pytest

from qlct2d.field import GridSpec, SampledField
from qlct2d.gridio import (ParseError, read_field, read_spectrum, write_field,
                           write_spectrum)
from qlct2d.lct import LctParams, TransformParams
from qlct2d.prob import MomentReport, QpdfReport
from qlct2d.quaternion import Quaternion
from qlct2d.transform import Spectrum
from qlct2d.verify import Claim


def _field():
    spec = GridSpec(-1.0, 1.0, 0.0, 2.0, 5, 7)
    rng = np.random.default_rng(3)
    return SampledField(spec, rng.standard_normal((5, 7, 4)))


def _spectrum():
    spec = GridSpec(-3.0, 3.0, -3.0, 3.0, 4, 4)
    rng = np.random.default_rng(5)
    params = TransformParams(LctParams(1.0, 0.5, 0.0, 1.0),
                             LctParams(0.0, 1.0, -1.0, 0.0))
    return Spectrum(spec, rng.standard_normal((4, 4, 4)), params)


def test_field_csv_roundtrip_bit_exact(tmp_path):
    f = _field()
    path = str(tmp_path / "field.csv")
    write_field(f, path)
    g = read_field(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)


def test_field_json_roundtrip_bit_exact(tmp_path):
    f = _field()
    path = str(tmp_path / "field.json")
    write_field(f, path)
    g = read_field(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)


def test_csv_read_without_sidecar_infers_grid(tmp_path):
    f = _field()
    path = str(tmp_path / "field.csv")
    write_field(f, path)
    os.remove(path + ".json")
    g = read_field(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)


def test_spectrum_roundtrip_keeps_params(tmp_path):
    s = _spectrum()
    for name in ("spec.csv", "spec.json"):
        path = str(tmp_path / name)
        write_spectrum(s, path)
        t = read_spectrum(path)
        assert t.spec == s.spec
        assert t.params == s.params
        assert np.array_equal(t.values, s.values)


def test_extension_names_the_format(tmp_path):
    # .json in any case is single-file JSON; any other path is CSV with
    # a <path>.json sidecar, on write and on read alike
    f = _field()
    dat, upper = tmp_path / "field.dat", tmp_path / "field.JSON"
    write_field(f, str(dat))
    write_field(f, str(upper))
    assert dat.read_text().startswith("x1,x2,qa,qb,qc,qd\n")
    assert "n1" in json.loads((tmp_path / "field.dat.json").read_text())
    assert "values" in json.loads(upper.read_text())
    assert not (tmp_path / "field.JSON.json").exists()
    for path in (dat, upper):
        g = read_field(str(path))
        assert g.spec == f.spec
        assert np.array_equal(g.values, f.values)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        read_field(str(tmp_path / "absent.csv"))
    with pytest.raises(ParseError):
        read_field(str(tmp_path / "absent.json"))


def test_empty_csv_is_parse_error(tmp_path):
    path = str(tmp_path / "empty.csv")
    open(path, "w").close()
    with pytest.raises(ParseError, match="no rows"):
        read_field(path)


def test_bad_header_is_parse_error(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("a,b,c,d,e,f\n0,0,1,0,0,0\n")
    with pytest.raises(ParseError, match="header"):
        read_field(path)


def test_long_bad_header_is_quoted_short(tmp_path):
    # a JSON grid saved under a CSV name is one long line; the error
    # names the file and the expected header, not the whole line
    path = str(tmp_path / "big.csv")
    with open(path, "w") as fh:
        fh.write(json.dumps({"grid": {}, "values": [[0.0] * 4] * 5000}))
    with pytest.raises(ParseError) as exc:
        read_field(path)
    message = str(exc.value)
    assert len(message) < 300
    assert path in message and "x1,x2,qa,qb,qc,qd" in message


def test_non_numeric_cell_is_parse_error(tmp_path):
    path = str(tmp_path / "cell.csv")
    with open(path, "w") as fh:
        fh.write("x1,x2,qa,qb,qc,qd\n0,0,one,0,0,0\n")
    with pytest.raises(ParseError, match="non-numeric"):
        read_field(path)


def test_row_count_mismatch_is_parse_error(tmp_path):
    f = _field()
    path = str(tmp_path / "short.csv")
    write_field(f, path)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-2])
    with pytest.raises(ParseError, match="rows"):
        read_field(path)


def test_corrupt_sidecar_is_parse_error(tmp_path):
    f = _field()
    path = str(tmp_path / "field.csv")
    write_field(f, path)
    with open(path + ".json", "w") as fh:
        fh.write("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        read_field(path)


def test_json_missing_keys_is_parse_error(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"values": [[1]]}, fh)
    with pytest.raises(ParseError, match="grid"):
        read_field(path)


def test_json_shape_mismatch_is_parse_error(tmp_path):
    path = str(tmp_path / "shape.json")
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    with open(path, "w") as fh:
        json.dump({"grid": spec.to_dict(),
                   "values": np.zeros((3, 2, 4)).tolist()}, fh)
    with pytest.raises(ParseError, match="shape"):
        read_field(path)


def _csv_variant(tmp_path, edit):
    """A written field and its CSV file rewritten as edit(lines) gives."""
    f = _field()
    path = tmp_path / "field.csv"
    write_field(f, str(path))
    lines = path.read_text().splitlines()
    with open(path, "w", newline="") as fh:
        fh.write(edit(lines))
    return f, str(path)


def _cell(lines, row, col, text):
    cells = lines[row].split(",")
    cells[col] = text
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


@pytest.mark.parametrize("edit", [
    lambda ls: "\n".join(ls[:3] + [""] + ls[3:]) + "\n",
    lambda ls: "\n" + "\n".join(ls) + "\n",
    lambda ls: "\r\n".join(ls) + "\r\n",
    lambda ls: "\n".join(ls) + "\n",
    lambda ls: "\n".join(ls),
    lambda ls: "\n".join(_cell(ls, 1, 2, f'"{ls[1].split(",")[2]}"')),
], ids=["blank-body-line", "leading-blank-line", "crlf", "lf",
        "no-final-newline", "quoted-cell"])
def test_csv_reader_accepts(tmp_path, edit):
    f, path = _csv_variant(tmp_path, edit)
    g = read_field(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("edit", [
    lambda ls: "\n".join(ls[:2] + [ls[2].rsplit(",", 1)[0]] + ls[3:]),
    # in the first column a comment character would hide the whole row
    lambda ls: "\n".join(_cell(ls, 1, 0, "#1")),
    lambda ls: "\n".join(ls[:2] + [ls[2] + ","] + ls[3:]),
    lambda ls: "\n".join(ls[:3] + ["   "] + ls[3:]),
    # float() reads "1_0" as 10.0, but a grid file holds no such cell
    lambda ls: "\n".join(_cell(ls, 1, 2, "1_0")),
], ids=["ragged-row", "hash-cell", "trailing-comma", "whitespace-line",
        "underscore-digits"])
def test_csv_reader_rejects(tmp_path, edit):
    _, path = _csv_variant(tmp_path, edit)
    with pytest.raises(ParseError, match="non-numeric"):
        read_field(path)


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls[0] + "\r\n\r\n", "no rows after header"),
    (lambda ls: "\n".join(ls[:2]), "1 rows for a 5 x 7 grid"),
    (lambda ls: "\n".join(ls[:1] + [r + ",0" for r in ls[1:]]),
     "expected 6 columns, got 7"),
], ids=["header-only", "single-row", "seven-columns"])
def test_csv_reader_counts_rows(tmp_path, edit, message):
    _, path = _csv_variant(tmp_path, edit)
    with pytest.raises(ParseError, match=message):
        read_field(path)


def test_csv_without_sidecar_needs_whole_rows(tmp_path):
    # x1 changes after two rows, so three rows are no whole grid rows
    path = tmp_path / "f.csv"
    path.write_text("x1,x2,qa,qb,qc,qd\n0,0,1,0,0,0\n0,1,1,0,0,0\n"
                    "1,0,1,0,0,0\n")
    with pytest.raises(ParseError, match="row count is not a multiple of "
                                         "the inferred row length 2"):
        read_field(str(path))


def _column_major(tmp_path):
    """A 5 x 7 field file, sidecar kept, whose rows run down the columns."""
    _, path = _csv_variant(tmp_path, lambda ls: "\n".join(
        ls[:1] + [ls[1 + 7 * r + c] for c in range(7) for r in range(5)]))
    return path


def _non_uniform(tmp_path):
    """A 3 x 2 field file without sidecar whose x1 nodes are 0, 0.1, 1."""
    path = tmp_path / "field.csv"
    write_field(SampledField(GridSpec(0.0, 1.0, 0.0, 1.0, 3, 2),
                             np.ones((3, 2, 4))), str(path))
    os.remove(str(path) + ".json")
    lines = path.read_text().splitlines()
    for row in (3, 4):
        lines = _cell(lines, row, 0, "0.1")
    path.write_text("\n".join(lines))
    return str(path)


@pytest.mark.parametrize("make, row", [(_column_major, 2), (_non_uniform, 3)],
                         ids=["column-major", "non-uniform"])
def test_csv_rows_off_their_nodes_are_parse_errors(tmp_path, make, row):
    with pytest.raises(ParseError, match=f"data row {row} is not at its node"):
        read_field(make(tmp_path))


def test_writers_match_csv_and_json_module_bytes(tmp_path):
    extremes = [5e-324, -0.0, 1e16, 1e-5, 1.7976931348623157e308,
                -2.5e-300, 0.1, 1 / 3]
    spec = GridSpec(-1.0, 1.0, 0.0, 2.0, 2, 2)
    f = SampledField(spec, np.array(extremes + extremes[::-1]).reshape(2, 2, 4))
    rows = [[x1, x2] + f.values[r, c].tolist()
            for r, x1 in enumerate(spec.x1_nodes().tolist())
            for c, x2 in enumerate(spec.x2_nodes().tolist())]
    want_csv = io.StringIO(newline="")
    csv.writer(want_csv).writerows([["x1", "x2", "qa", "qb", "qc", "qd"]]
                                   + rows)
    want_sidecar = json.dumps(spec.to_dict(), indent=1) + "\n"
    want_json = io.StringIO()
    json.dump({"grid": spec.to_dict(), "values": f.values.tolist()},
              want_json)
    want_json.write("\n")

    write_field(f, str(tmp_path / "f.csv"))
    write_field(f, str(tmp_path / "f.json"))
    assert (tmp_path / "f.csv").read_bytes() == want_csv.getvalue().encode()
    assert (tmp_path / "f.csv.json").read_bytes() == want_sidecar.encode()
    assert (tmp_path / "f.json").read_bytes() == want_json.getvalue().encode()
    back = read_field(str(tmp_path / "f.csv"))
    assert np.array_equal(back.values, f.values)
    assert np.signbit(back.values[0, 0, 1])


@pytest.mark.parametrize("count", [np.int64(9), 9.0], ids=["int64", "float"])
@pytest.mark.parametrize("name", ["f.csv", "f.json"])
def test_numpy_and_float_counts_roundtrip(tmp_path, count, name):
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, count, count)
    f = SampledField(spec, np.ones((9, 9, 4)))
    path = str(tmp_path / name)
    write_field(f, path)
    g = read_field(path)
    assert g.spec == spec and type(spec.n1) is type(g.spec.n1) is int
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("name", ["f.csv", "f.json"])
def test_numpy_scalar_bounds_roundtrip(tmp_path, name):
    spec = GridSpec(np.float32(-1.0), np.float64(1.0), -1, 1.0, 9, 9)
    f = SampledField(spec, np.ones((9, 9, 4)))
    path = str(tmp_path / name)
    write_field(f, path)
    g = read_field(path)
    assert g.spec == spec and np.array_equal(g.values, f.values)


@pytest.mark.parametrize("name", ["s.csv", "s.json"])
def test_numpy_scalar_params_roundtrip(tmp_path, name):
    params = TransformParams(LctParams(np.float32(1.0), 0.5, 0.0, 1.0),
                             LctParams(np.float64(0.0), np.float64(1.0),
                                       -1.0, np.float32(0.0)))
    s = Spectrum(_spectrum().spec, _spectrum().values, params)
    path = str(tmp_path / name)
    write_spectrum(s, path)
    t = read_spectrum(path)
    assert t.params == params and np.array_equal(t.values, s.values)
    assert all(type(v) is float
               for p in (t.params.A1, t.params.A2, params.A1, params.A2)
               for v in p.to_dict().values())


@pytest.mark.parametrize("name", ["f.csv", "f.json"])
def test_failed_write_leaves_no_file(tmp_path, name):
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    # a header value json cannot encode, planted past __post_init__
    object.__setattr__(spec, "x1_min", np.float32(-1.0))
    with pytest.raises(TypeError, match="float32"):
        write_field(SampledField(spec, np.ones((9, 9, 4))),
                    str(tmp_path / name))
    assert list(tmp_path.iterdir()) == []


def test_unwritable_sidecar_leaves_no_csv(tmp_path):
    # a CSV whose sidecar could not be written would read back without
    # its grid and transform parameters
    (tmp_path / "out.csv.json").mkdir()
    with pytest.raises(OSError):
        write_spectrum(_spectrum(), str(tmp_path / "out.csv"))
    assert not (tmp_path / "out.csv").exists()


# a record's field order decides the bytes of sidecars, headers, the
# ledger and the moment and density reports, so each layout is pinned
# here, key order included
@pytest.mark.parametrize("record, want", [
    (GridSpec(-1.0, 1.0, 0.0, 2.0, 5, 7),
     {"x1_min": -1.0, "x1_max": 1.0, "x2_min": 0.0, "x2_max": 2.0,
      "n1": 5, "n2": 7}),
    (LctParams(1.0, 0.5, 0.0, 1.0), {"a": 1.0, "b": 0.5, "c": 0.0, "d": 1.0}),
    (_spectrum().params,
     {"A1": {"a": 1.0, "b": 0.5, "c": 0.0, "d": 1.0},
      "A2": {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0}}),
    (Claim("x.y", "1", "1.0", "reproduced", True, False, "note"),
     {"claim_id": "x.y", "stated": "1", "measured": "1.0",
      "verdict": "reproduced", "required": True, "passed": False,
      "detail": "note"}),
    (MomentReport(*(Quaternion(k, 0.0, 0.5, -1.0) for k in range(9)),
                  resolution={"n1": 3}),
     {"e_x1": [0.0, 0.0, 0.5, -1.0], "e_x2": [1.0, 0.0, 0.5, -1.0],
      "e_x1x2": [2.0, 0.0, 0.5, -1.0], "e_x1sq": [3.0, 0.0, 0.5, -1.0],
      "e_x2sq": [4.0, 0.0, 0.5, -1.0], "var_x1": [5.0, 0.0, 0.5, -1.0],
      "var_x2": [6.0, 0.0, 0.5, -1.0], "cov_12": [7.0, 0.0, 0.5, -1.0],
      "cov_21": [8.0, 0.0, 0.5, -1.0], "resolution": {"n1": 3}}),
    (QpdfReport(False, True, (1.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
                Quaternion(1.0, 0.5),
                ("component b integrates to 0.5, not 1",)),
     {"strict_ok": False, "relaxed_ok": True,
      "component_integrals": [1.0, 0.5, 0.0, 0.0],
      "component_minima": [0.0, 0.0, 0.0, 0.0],
      "total_integral": [1.0, 0.5, 0.0, 0.0],
      "violations": ["component b integrates to 0.5, not 1"]}),
])
def test_record_layouts(record, want):
    assert json.dumps(record.to_dict()) == json.dumps(want)
