"""Command-line front end.

Subcommands: transform, invert, charfn, moments, verify.  A grid path
ending in .json (in any case) is single-file JSON, and any other is
CSV with a JSON sidecar header, on read and on write alike, so every
grid a subcommand writes can be read back.  A --params file holds the
record a spectrum header does, per-axis unimodular matrices or one for
both axes, and both parse through TransformParams.from_dict; invert
takes its kernels from the spectrum alone.

Exit codes: 0 success, 2 input/parse error or an unwritable --out
path, 3 config/invariant violation, 4 verification failure.  Each
subcommand parses its options, and checks that --out (and a CSV's
sidecar) can be written, before it reads its input file, so a bad
option exits before any large allocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .field import GridSpec
from .gridio import (ParseError, _from_header, _load_json, _sidecar_path,
                     read_field, read_spectrum, write_field, write_spectrum)
from .lct import TransformParams, fourier_params
from .prob import charfn, covariance
from .transform import forward, inverse
from .verify import ledger_json, ledger_text, run_verify

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4


def _parse_grid(option: str, text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(
            f"{option} expects x1min,x1max,x2min,x2max,n1,n2 (got {text!r})")
    return GridSpec.from_dict(
        dict(zip((f.name for f in fields(GridSpec)), parts)))


def _load_params(path: str) -> TransformParams:
    return _from_header(path, TransformParams.from_dict, _load_json(path))


def _check_out(path: str):
    """Refuse an --out path that could not be written: one that is a
    directory, or whose directory is missing or not writable.  Creates
    nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise OSError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise OSError(f"--out {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise OSError(f"--out {path}: directory {parent} is not writable")


def _cmd_transform(args) -> int:
    params = _load_params(args.params) if args.params else fourier_params()
    freq = args.freq_grid and _parse_grid("--freq-grid", args.freq_grid)
    f = read_field(args.input)
    # the frequency grid defaults to the spatial grid box
    s = forward(f, params, freq or f.spec)
    write_spectrum(s, args.out)
    return EXIT_OK


def _cmd_invert(args) -> int:
    if args.grid is None:
        raise ValueError("invert requires --grid for the output box")
    space = _parse_grid("--grid", args.grid)
    write_field(inverse(read_spectrum(args.input), space), args.out)
    return EXIT_OK


def _cmd_charfn(args) -> int:
    if args.freq_grid is None:
        raise ValueError("charfn requires --freq-grid")
    freq = _parse_grid("--freq-grid", args.freq_grid)
    params = _load_params(args.params) if args.params else None
    f = read_field(args.input)
    # --params picks the LCT kernels, and no --params the Fourier ones
    cf = charfn(f, freq, "fourier" if params is None else "lct", params)
    write_spectrum(cf.spectrum, args.out)
    return EXIT_OK


def _cmd_moments(args) -> int:
    f = read_field(args.input)
    report = covariance(f)
    with open(args.out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    claims = run_verify(quick=args.quick, tol=args.tol)
    sys.stdout.write(ledger_text(claims))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ledger_json(claims, quick=args.quick))
    if not all(c.passed for c in claims if c.required):
        print("error: one or more required checks failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# each subcommand declares only the options it reads, so argparse
# rejects any other with exit code 2
_OPTIONS = {
    "--params": dict(help="transform parameter JSON file"),
    "--grid": dict(help="x1min,x1max,x2min,x2max,n1,n2"),
    "--freq-grid": dict(help="frequency grid, same form as --grid"),
    "--quick": dict(action="store_true",
                    help="reduced resolutions for a fast run"),
    "--tol": dict(type=float, default=None, help="tolerance override"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlct2d",
        description="two-sided 2D quaternion linear canonical transform")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help, func, *options):
        p = sub.add_parser(name, help=help)
        needs_input = name != "verify"
        if needs_input:
            p.add_argument("input", help="input grid file (csv or json)")
        for opt in options:
            p.add_argument(opt, **_OPTIONS[opt])
        p.add_argument("--out", required=needs_input, help="output path")
        p.set_defaults(func=func)

    add("transform", "forward transform of a field", _cmd_transform,
        "--params", "--freq-grid")
    add("invert", "inverse transform of a spectrum", _cmd_invert, "--grid")
    add("charfn", "characteristic function of a density", _cmd_charfn,
        "--params", "--freq-grid")
    add("moments", "moment and covariance report", _cmd_moments)
    add("verify", "run the verification suite", _cmd_verify,
        "--quick", "--tol")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
            # a CSV grid has a JSON sidecar; moments and verify write JSON
            side = _sidecar_path(args.out)
            if side and args.command in ("transform", "invert", "charfn"):
                _check_out(side)
        return args.func(args)
    except (ParseError, OSError) as e:
        # an OSError here is an --out path that cannot be written; every
        # read failure is already a ParseError naming its file
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, TypeError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
