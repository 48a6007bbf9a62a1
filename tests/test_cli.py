"""Command-line interface: happy paths, determinism, exit codes."""

import json
import math
import warnings

import numpy as np
import pytest

from qlct2d import verify
from qlct2d.cli import _check_out, main
from qlct2d.field import GridSpec, SampledField
from qlct2d.gridio import read_field, read_spectrum, write_field, write_spectrum
from qlct2d.lct import LctParams, TransformParams, fourier_params
from qlct2d.prob import charfn
from qlct2d.transform import forward, inverse


def _gaussian(n: int = 65, box: float = 6.0) -> SampledField:
    spec = GridSpec(-box, box, -box, box, n, n)
    x1 = spec.x1_nodes()[:, None]
    x2 = spec.x2_nodes()[None, :]
    v = np.zeros((n, n, 4))
    v[..., 0] = np.exp(-(x1 ** 2 + x2 ** 2) / 2.0)
    v[..., 2] = 0.5 * v[..., 0]
    return SampledField(spec, v)


def _write_params(path, a=0.0, b=1.0, c=-1.0, d=0.0):
    doc = {"A1": {"a": a, "b": b, "c": c, "d": d},
           "A2": {"a": a, "b": b, "c": c, "d": d}}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_transform_matches_library(tmp_path):
    f = _gaussian()
    src = str(tmp_path / "field.csv")
    out = str(tmp_path / "spec.json")
    write_field(f, src)
    params = _write_params(tmp_path / "params.json")
    rc = main(["transform", src, "--params", params,
               "--freq-grid=-6,6,-6,6,65,65", "--out", out])
    assert rc == 0
    got = read_spectrum(out)
    fourier = TransformParams(LctParams(0.0, 1.0, -1.0, 0.0),
                              LctParams(0.0, 1.0, -1.0, 0.0))
    want = forward(f, fourier, GridSpec(-6.0, 6.0, -6.0, 6.0, 65, 65))
    assert np.max(np.abs(got.values - want.values)) <= 1e-9
    assert got.params == fourier


def test_invert_roundtrip(tmp_path):
    f = _gaussian()
    src = str(tmp_path / "field.csv")
    spec_path = str(tmp_path / "spec.json")
    back_path = str(tmp_path / "back.csv")
    write_field(f, src)
    assert main(["transform", src, "--freq-grid=-8,8,-8,8,65,65",
                 "--out", spec_path]) == 0
    assert main(["invert", spec_path, "--grid=-6,6,-6,6,65,65",
                 "--out", back_path]) == 0
    back = read_field(back_path)
    want = inverse(read_spectrum(spec_path), f.spec)
    assert np.max(np.abs(back.values - want.values)) <= 5e-9
    rel = np.sqrt(np.sum((back.values - f.values) ** 2)) \
        / np.sqrt(np.sum(f.values ** 2))
    assert rel <= 1e-2


def test_charfn_command(tmp_path):
    f = _gaussian()
    src = str(tmp_path / "field.csv")
    out = str(tmp_path / "cf.json")
    write_field(f, src)
    rc = main(["charfn", src, "--freq-grid=-4,4,-4,4,17,17", "--out", out])
    assert rc == 0
    got = read_spectrum(out)
    want = charfn(f, GridSpec(-4.0, 4.0, -4.0, 4.0, 17, 17)).spectrum
    assert np.max(np.abs(got.values - want.values)) <= 1e-9


def test_charfn_params_selects_the_lct_kernels(tmp_path):
    # --params alone picks the canonical-transform kernels: the output is
    # the forward transform with those parameters, byte for byte
    f = _gaussian(17, 2.0)
    src = str(tmp_path / "field.csv")
    out, want = tmp_path / "cf.json", tmp_path / "want.json"
    write_field(f, src)
    params = _write_params(tmp_path / "p.json", 1.0, 0.5, 0.0, 1.0)
    assert main(["charfn", src, "--freq-grid=-4,4,-4,4,9,9",
                 "--params", params, "--out", str(out)]) == 0
    p = LctParams(1.0, 0.5, 0.0, 1.0)
    write_spectrum(forward(read_field(src), TransformParams(p, p),
                           GridSpec(-4.0, 4.0, -4.0, 4.0, 9, 9)), str(want))
    assert out.read_bytes() == want.read_bytes()


def test_moments_command(tmp_path):
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 65, 65)
    v = np.zeros((65, 65, 4))
    v[..., 0] = 1.0
    src = str(tmp_path / "u.csv")
    out = str(tmp_path / "moments.json")
    write_field(SampledField(spec, v), src)
    assert main(["moments", src, "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["e_x1"][0] == pytest.approx(0.5, abs=1e-9)
    assert doc["var_x1"][0] == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert math.hypot(*doc["cov_12"]) <= 1e-9
    assert doc["resolution"]["n1"] == 65


def test_verify_quick_is_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "ledger1.json")
    out2 = str(tmp_path / "ledger2.json")
    assert main(["verify", "--quick", "--out", out1]) == 0
    text1 = capsys.readouterr().out
    assert main(["verify", "--quick", "--out", out2]) == 0
    text2 = capsys.readouterr().out
    assert text1 == text2
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["all_required_pass"] is True
    assert doc["resolution_profile"] == "quick"
    for claim in doc["claims"]:
        assert claim["verdict"] in ("reproduced",
                                    "reproduced-with-different-constant",
                                    "not-reproduced", "diagnostic-only")
    assert "required checks:" in text1


def test_verify_impossible_tolerance_exits_4(tmp_path):
    assert main(["verify", "--quick", "--tol", "1e-30"]) == 4


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_invalid_tolerance_exits_3_without_a_ledger(tol, capsys):
    # no threshold can be compared with NaN, and none is negative: the
    # value is a config error, caught before any claim is computed
    assert main(["verify", "--quick", "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol" in captured.err


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_run_verify_rejects_invalid_tolerance_before_any_check(
        tol, monkeypatch):
    def unreachable(n):
        raise AssertionError("a check ran before the tolerance was checked")

    monkeypatch.setattr(verify, "example1_numerator", unreachable)
    with pytest.raises(ValueError, match="tol"):
        verify.run_verify(quick=True, tol=tol)


def test_verify_loose_tolerance_changes_nothing(tmp_path, capsys):
    # --tol only tightens: a loose value judges every claim at its
    # default threshold, so the ledger is the default one, byte for byte
    out = str(tmp_path / "default.json")
    loose = str(tmp_path / "loose.json")
    assert main(["verify", "--quick", "--out", out]) == 0
    assert main(["verify", "--quick", "--tol", "1e9", "--out", loose]) == 0
    capsys.readouterr()
    with open(out, "rb") as fa, open(loose, "rb") as fb:
        assert fa.read() == fb.read()


def test_verify_loose_tolerance_cannot_pass_a_failing_claim(
        tmp_path, monkeypatch, capsys):
    # fd(1,1) off by 1e-3 fails property6's default threshold of 1e-4;
    # a loose --tol must leave that claim failed, and the run exiting 4
    fd_moment = verify.fd_moment
    monkeypatch.setattr(verify, "fd_moment", lambda f, m, n, h: (
        fd_moment(f, m, n, h) + (1e-3 if (m, n) == (1, 1) else 0.0)))
    out = str(tmp_path / "ledger.json")
    assert main(["verify", "--quick", "--tol", "1e9", "--out", out]) == 4
    capsys.readouterr()
    with open(out) as fh:
        claims = json.load(fh)["claims"]
    assert [c["claim_id"] for c in claims if not c["passed"]] == [
        "property6.fd_moments"]


def test_empty_input_exits_2(tmp_path):
    src = str(tmp_path / "empty.csv")
    open(src, "w").close()
    assert main(["transform", src, "--out", str(tmp_path / "o.json")]) == 2


def test_corrupt_params_exits_2(tmp_path):
    f = _gaussian(17, 2.0)
    src = str(tmp_path / "f.csv")
    write_field(f, src)
    bad = str(tmp_path / "params.json")
    with open(bad, "w") as fh:
        fh.write("{broken")
    assert main(["transform", src, "--params", bad,
                 "--out", str(tmp_path / "o.json")]) == 2


def test_non_unimodular_params_exit_3(tmp_path, capsys):
    f = _gaussian(17, 2.0)
    src = str(tmp_path / "f.csv")
    write_field(f, src)
    bad = _write_params(tmp_path / "params.json", a=1.0, b=0.5, c=0.0, d=0.9)
    assert main(["transform", src, "--params", bad,
                 "--out", str(tmp_path / "o.json")]) == 3
    assert "det(A1)" in capsys.readouterr().err


def test_invert_without_grid_exits_3(tmp_path):
    f = _gaussian(17, 2.0)
    src = str(tmp_path / "f.csv")
    spec_path = str(tmp_path / "s.json")
    write_field(f, src)
    assert main(["transform", src, "--freq-grid=-4,4,-4,4,17,17",
                 "--out", spec_path]) == 0
    assert main(["invert", spec_path,
                 "--out", str(tmp_path / "o.csv")]) == 3


def test_grid_beyond_physical_memory_exits_3_and_writes_nothing(tmp_path,
                                                                 capsys):
    # the estimate of a 200001^2 output's peak, about 1.6 TB, exceeds
    # the memory of the machines the tests run on: the sandwich refuses
    # before it allocates
    f = _gaussian(17, 2.0)
    src, spec_path = str(tmp_path / "f.csv"), str(tmp_path / "s.json")
    write_field(f, src)
    assert main(["transform", src, "--freq-grid=-4,4,-4,4,17,17",
                 "--out", spec_path]) == 0
    before = sorted(tmp_path.iterdir())
    assert main(["invert", spec_path, "--grid=-8,8,-8,8,200001,200001",
                 "--out", str(tmp_path / "o.csv")]) == 3
    assert "GB" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, option", [
    (["invert", "missing.json"], "--grid"),
    (["charfn", "missing.csv"], "--freq-grid"),
    (["transform", "missing.csv", "--freq-grid=1,2,3"], "--freq-grid"),
], ids=["invert-grid", "charfn-freq-grid", "transform-freq-grid"])
def test_grid_option_is_checked_before_the_input_is_read(
        tmp_path, monkeypatch, capsys, argv, option):
    # the input file does not exist, but the grid option fails first
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o.json"]) == 3
    assert option in capsys.readouterr().err


def test_malformed_grid_argument_exits_3(tmp_path):
    f = _gaussian(17, 2.0)
    src = str(tmp_path / "f.csv")
    write_field(f, src)
    assert main(["transform", src, "--freq-grid=1,2,3",
                 "--out", str(tmp_path / "o.json")]) == 3


@pytest.mark.parametrize("grid", ["x,2,-2,2,9,9", "-2,2,-2,2,9.5,9",
                                  "-2,2,-2,2,9,1", "2,-2,-2,2,9,9",
                                  "-2,2,nan,2,9,9"])
def test_grid_argument_errors_exit_3(tmp_path, grid):
    src = str(tmp_path / "f.csv")
    write_field(_gaussian(17, 2.0), src)
    assert main(["transform", src, f"--freq-grid={grid}",
                 "--out", str(tmp_path / "o.json")]) == 3


def test_nonfinite_csv_cell_exits_2(tmp_path, capsys):
    src = tmp_path / "f.csv"
    write_field(_gaussian(17, 2.0), str(src))
    lines = src.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    src.write_text("\n".join(lines) + "\n")
    assert main(["moments", str(src), "--out", str(tmp_path / "m.json")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_degenerate_csv_grid_exits_2(tmp_path, capsys):
    # without a sidecar, every x1 = 0 gives a grid of zero width
    src = tmp_path / "f.csv"
    src.write_text("x1,x2,qa,qb,qc,qd\n"
                   + "".join(f"0,{c},1,0,0,0\n" for c in range(4)))
    assert main(["moments", str(src), "--out", str(tmp_path / "m.json")]) == 2
    assert "give no grid" in capsys.readouterr().err


def test_nonfinite_json_spectrum_exits_2(tmp_path, capsys):
    src = str(tmp_path / "f.csv")
    spec_path = tmp_path / "s.json"
    write_field(_gaussian(17, 2.0), src)
    assert main(["transform", src, "--freq-grid=-4,4,-4,4,17,17",
                 "--out", str(spec_path)]) == 0
    doc = json.loads(spec_path.read_text())
    doc["values"][1][2][0] = math.inf
    spec_path.write_text(json.dumps(doc))
    assert main(["invert", str(spec_path), "--grid=-2,2,-2,2,17,17",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "non-finite value at node (1, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("name, keys, argv", [
    ("f.json", ("grid", "n2"), ["moments", "f.json"]),
    ("s.json", ("params", "A2"), ["invert", "s.json", "--grid=-2,2,-2,2,17,17"]),
    ("f.csv.json", ("x2_max",), ["moments", "f.csv"]),
], ids=["json-grid-n2", "spectrum-params-A2", "csv-sidecar-x2_max"])
def test_header_missing_key_exits_2(tmp_path, monkeypatch, capsys,
                                    name, keys, argv):
    monkeypatch.chdir(tmp_path)
    f = _gaussian(17, 2.0)
    write_field(f, "f.json")
    write_field(f, "f.csv")
    write_spectrum(forward(f, fourier_params(), f.spec), "s.json")
    doc = json.loads((tmp_path / name).read_text())
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    del entry[keys[-1]]
    (tmp_path / name).write_text(json.dumps(doc))
    assert main(argv + ["--out", "out"]) == 2
    assert f"{name}: malformed header" in capsys.readouterr().err


@pytest.mark.parametrize("name, keys, text, argv", [
    ("f.csv.json", ("n1",), '"x"', ["moments", "f.csv"]),
    ("f.csv.json", ("n1",), "1e400", ["moments", "f.csv"]),
    ("f.json", ("grid", "x1_min"), '"abc"', ["moments", "f.json"]),
    ("f.csv.json", ("n1",), "17.9", ["moments", "f.csv"]),
    ("f.csv.json", ("x1_max",), "true", ["moments", "f.csv"]),
    ("f.json", ("grid", "n2"), "true", ["moments", "f.json"]),
], ids=["csv-sidecar-n1", "csv-sidecar-n1-overflow", "json-grid-x1_min",
        "csv-sidecar-n1-fractional", "csv-sidecar-x1_max-boolean",
        "json-grid-n2-boolean"])
def test_header_non_numeric_entry_exits_2(tmp_path, monkeypatch, capsys,
                                          name, keys, text, argv):
    monkeypatch.chdir(tmp_path)
    f = _gaussian(17, 2.0)
    write_field(f, "f.json")
    write_field(f, "f.csv")
    doc = json.loads((tmp_path / name).read_text())
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = "@"
    (tmp_path / name).write_text(json.dumps(doc).replace('"@"', text))
    assert main(argv + ["--out", "out"]) == 2
    assert f"{name}: malformed header" in capsys.readouterr().err


_DET_09 = {"a": 1.0, "b": 0.5, "c": 0.0, "d": 0.9}
_B_ZERO = {"a": 1.0, "b": 0.0, "c": 0.5, "d": 1.0}


@pytest.mark.parametrize("name, keys, value, argv, message", [
    ("s.json", ("params", "A1"), _DET_09,
     ["invert", "s.json", "--grid=-2,2,-2,2,17,17"], "s.json: A1: det(A1) != 1"),
    ("s.csv.json", ("params", "A2"), _B_ZERO,
     ["invert", "s.csv", "--grid=-2,2,-2,2,17,17"], "s.csv.json: A2: b = 0"),
    ("f.csv.json", ("x1_min",), 5.0, ["moments", "f.csv"],
     "f.csv.json: GridSpec: x1_min must be < x1_max"),
], ids=["json-spectrum-A1-det", "csv-sidecar-A2-b-zero",
        "csv-sidecar-x1-bounds"])
def test_header_invariant_violation_names_its_file_and_exits_3(
        tmp_path, monkeypatch, capsys, name, keys, value, argv, message):
    # a header holds the record a --params file does, so its errors name
    # the file and the matrix as a --params file's do
    monkeypatch.chdir(tmp_path)
    f = _gaussian(17, 2.0)
    write_field(f, "f.csv")
    s = forward(f, fourier_params(), f.spec)
    write_spectrum(s, "s.json")
    write_spectrum(s, "s.csv")
    doc = json.loads((tmp_path / name).read_text())
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    (tmp_path / name).write_text(json.dumps(doc))
    assert main(argv + ["--out", "out.json"]) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_integral_float_count_is_accepted(tmp_path):
    src = tmp_path / "f.csv"
    write_field(_gaussian(17, 2.0), str(src))
    sidecar = tmp_path / "f.csv.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(doc, n1=17.0)))
    assert main(["moments", str(src), "--out", str(tmp_path / "m.json")]) == 0


def test_sidecar_directory_exits_2(tmp_path, capsys):
    src = tmp_path / "f.csv"
    write_field(_gaussian(17, 2.0), str(src))
    sidecar = tmp_path / "f.csv.json"
    sidecar.unlink()
    sidecar.mkdir()
    assert main(["moments", str(src), "--out", str(tmp_path / "m.json")]) == 2
    assert f"cannot read {sidecar}" in capsys.readouterr().err


def test_unwritable_sidecar_exits_2_and_leaves_no_csv(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    write_field(_gaussian(9, 2.0), "pdf.csv")
    (tmp_path / "out.csv.json").mkdir()
    assert main(["transform", "pdf.csv", "--out", "out.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["transform", "f.csv"],
    ["invert", "s.json", "--grid=-2,2,-2,2,9,9"],
    ["charfn", "f.csv", "--freq-grid=-2,2,-2,2,9,9"],
    ["moments", "f.csv"],
    ["verify", "--quick"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    f = _gaussian(9, 2.0)
    write_field(f, "f.csv")
    write_spectrum(forward(f, fourier_params(), f.spec), "s.json")
    out = str(tmp_path / "missing" / "o.json")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and out in err


@pytest.mark.parametrize("argv", [
    ["transform", "f.csv"],
    ["verify", "--quick"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["missing/o.json", "."],
                         ids=["no-directory", "a-directory"])
def test_unwritable_out_exits_before_any_work(tmp_path, monkeypatch, capsys,
                                              argv, out):
    monkeypatch.chdir(tmp_path)
    write_field(_gaussian(9, 2.0), "f.csv")

    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    for name in ("forward", "read_field", "run_verify"):
        monkeypatch.setattr(f"qlct2d.cli.{name}", never)
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --out ")


@pytest.mark.parametrize("argv", [
    ["transform", "f.csv", "--out", "o.csv"],
    ["invert", "s.json", "--grid=-2,2,-2,2,9,9", "--out", "o.txt"],
    ["charfn", "f.csv", "--freq-grid=-2,2,-2,2,9,9", "--out", "o.dat"],
], ids=lambda argv: argv[0])
def test_unwritable_csv_sidecar_exits_before_any_work(tmp_path, monkeypatch,
                                                      capsys, argv):
    # a CSV --out is written with its JSON sidecar <out>.json, so a
    # sidecar path that is a directory exits 2 before the input is read
    monkeypatch.chdir(tmp_path)
    sidecar = argv[-1] + ".json"
    (tmp_path / sidecar).mkdir()

    def never(*args, **kwargs):
        raise AssertionError("read the input before the sidecar was checked")

    for name in ("read_field", "read_spectrum"):
        monkeypatch.setattr(f"qlct2d.cli.{name}", never)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and sidecar in err
    assert not (tmp_path / argv[-1]).exists()


def test_moments_out_has_no_sidecar(tmp_path, monkeypatch):
    # moments writes JSON whatever --out's extension, so a directory at
    # <out>.json is no sidecar in its way
    monkeypatch.chdir(tmp_path)
    write_field(_gaussian(9, 2.0), "f.csv")
    (tmp_path / "m.csv.json").mkdir()
    assert main(["moments", "f.csv", "--out", "m.csv"]) == 0
    assert "e_x1" in json.loads((tmp_path / "m.csv").read_text())


@pytest.mark.parametrize("spec", ["s.JSON", "s.dat"])
def test_cli_reads_back_every_grid_it_writes(tmp_path, monkeypatch, spec):
    # the extension alone names the format, so invert reads the spectrum
    # that transform wrote, whatever its name
    monkeypatch.chdir(tmp_path)
    f = _gaussian(9, 2.0)
    write_field(f, "f.csv")
    assert main(["transform", "f.csv", "--out", spec]) == 0
    assert main(["invert", spec, "--grid=-2,2,-2,2,9,9",
                 "--out", "back.dat"]) == 0
    assert main(["charfn", "back.dat", "--freq-grid=-2,2,-2,2,9,9",
                 "--out", "cf.json"]) == 0
    assert np.array_equal(read_spectrum(spec).values,
                          forward(f, fourier_params(), f.spec).values)


def test_out_check_creates_nothing(tmp_path):
    out = tmp_path / "o.json"
    _check_out(str(out))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["moments", "f.csv", "--params", "missing.json", "--out", "m.json"],
    ["transform", "f.csv", "--grid=-1,1,-1,1,5,5", "--out", "o.json"],
    ["verify", "--quick", "--format", "json"],
    ["charfn", "f.csv", "--mode", "lct", "--freq-grid=-2,2,-2,2,9,9",
     "--out", "cf.json"],
    ["transform", "f.csv", "--format", "json", "--out", "s.dat"],
    ["invert", "s.json", "--grid=-1,1,-1,1,5,5", "--format", "json",
     "--out", "o.dat"],
    ["charfn", "f.csv", "--freq-grid=-2,2,-2,2,9,9", "--format", "json",
     "--out", "cf.dat"],
    ["invert", "s.json", "--grid=-1,1,-1,1,5,5", "--params", "p.json",
     "--out", "o.csv"],
], ids=["moments-params", "transform-grid", "verify-format", "charfn-mode",
        "transform-format", "invert-format", "charfn-format",
        "invert-params"])
def test_flag_the_subcommand_ignores_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_single_matrix_params_apply_to_both_axes(tmp_path, monkeypatch):
    # one matrix is read as {"A1": m, "A2": m}, byte for byte
    monkeypatch.chdir(tmp_path)
    write_field(_gaussian(17, 2.0), "f.csv")
    m = {"a": 0.8, "b": 0.6, "c": -0.6, "d": 0.8}
    (tmp_path / "one.json").write_text(json.dumps(m))
    (tmp_path / "two.json").write_text(json.dumps({"A1": m, "A2": m}))
    for name in ("one", "two"):
        assert main(["transform", "f.csv", "--params", f"{name}.json",
                     "--freq-grid=-4,4,-4,4,9,9",
                     "--out", f"s-{name}.json"]) == 0
    assert ((tmp_path / "s-one.json").read_bytes()
            == (tmp_path / "s-two.json").read_bytes())


def test_out_in_unwritable_directory_exits_2(tmp_path, monkeypatch, capsys):
    # file modes do not bind every user (root writes anywhere), so the
    # permission check itself is what reports the directory unwritable
    monkeypatch.chdir(tmp_path)
    write_field(_gaussian(9, 2.0), "f.csv")
    monkeypatch.setattr("qlct2d.cli.os.access", lambda path, mode: False)
    assert main(["moments", "f.csv", "--out", "m.json"]) == 2
    assert "is not writable" in capsys.readouterr().err


def test_b_zero_nonpositive_d_params_exit_3(tmp_path, capsys):
    f = _gaussian(17, 2.0)
    src = str(tmp_path / "f.csv")
    write_field(f, src)
    bad = _write_params(tmp_path / "params.json", a=-2.0, b=0.0, c=3.0, d=-0.5)
    assert main(["transform", src, "--params", bad,
                 "--out", str(tmp_path / "o.json")]) == 3
    assert "b = 0" in capsys.readouterr().err


def test_b_zero_positive_d_params_exit_3(tmp_path, capsys):
    # b = 0 has no integral kernel; the transform must not write a
    # spectrum for it
    src = str(tmp_path / "f.csv")
    out = tmp_path / "o.json"
    write_field(_gaussian(17, 2.0), src)
    bad = _write_params(tmp_path / "params.json", a=1.0, b=0.0, c=0.5, d=1.0)
    assert main(["transform", src, "--params", bad, "--out", str(out)]) == 3
    assert "b = 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_params_entry_exits_3(tmp_path, capsys):
    # a = inf makes det(A) NaN, which no det tolerance rejects; the entry
    # itself must be rejected, before any kernel is built
    src = str(tmp_path / "f.csv")
    out = tmp_path / "o.json"
    write_field(_gaussian(17, 2.0), src)
    params = tmp_path / "params.json"
    params.write_text('{"a": 1e400, "b": 1, "c": -1, "d": 0}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["transform", src, "--params", str(params),
                   "--out", str(out)])
    assert rc == 3
    assert f"{params}: A: non-finite entry a = inf" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


_FOUR = {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0}


@pytest.mark.parametrize("doc, message", [
    ({"A1": {"a": 0.0, "b": 1.0, "c": -1.0}, "A2": _FOUR}, "KeyError: 'd'"),
    ({"A1": _FOUR}, "missing matrix A2"),
    ({"A1": [0.0, 1.0, -1.0, 0.0], "A2": _FOUR}, "TypeError"),
    ([_FOUR, _FOUR], "expected a JSON object"),
    ({"a": "abc", "b": 1.0, "c": -1.0, "d": 0.0}, "non-numeric entry"),
    # json reads true as True, which float() would take for 1.0
    ({"a": True, "b": True, "c": False, "d": True}, "a boolean"),
], ids=["A1-without-d", "no-A2", "A1-list", "top-level-list",
        "a-non-numeric", "booleans"])
def test_params_missing_or_mistyped_entry_exits_2(tmp_path, capsys,
                                                  doc, message):
    src = str(tmp_path / "f.csv")
    write_field(_gaussian(17, 2.0), src)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    assert main(["transform", src, "--params", str(params),
                 "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert f"{params}:" in err and message in err


def test_json_values_object_exits_2(tmp_path, capsys):
    src = tmp_path / "f.json"
    write_field(_gaussian(17, 2.0), str(src))
    doc = json.loads(src.read_text())
    doc["values"] = {"a": 1}
    src.write_text(json.dumps(doc))
    assert main(["moments", str(src), "--out", str(tmp_path / "m.json")]) == 2
    assert f"{src}:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["one", "all"])
def test_json_boolean_values_exit_2(tmp_path, capsys, grid):
    # json reads true as True, which numpy would take for 1.0
    src = tmp_path / "f.json"
    write_field(_gaussian(17, 2.0), str(src))
    doc = json.loads(src.read_text())
    if grid == "one":
        doc["values"][3][5][2] = True
    else:
        doc["values"] = np.ones((17, 17, 4), dtype=bool).tolist()
    src.write_text(json.dumps(doc))
    assert main(["moments", str(src), "--out", str(tmp_path / "m.json")]) == 2
    assert f"{src}: a boolean" in capsys.readouterr().err
