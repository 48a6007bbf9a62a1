"""Spans recorded from outside the library, and the per-layer numbers
derived from them.

A `Tracer` replaces selected public qlct2d functions with timing
wrappers.  A function is rebound everywhere a qlct2d module holds it,
so calls through names that modules imported directly (``verify``
binds ``forward``, ``cli`` binds the gridio readers, ...) are traced
as well.  Spans stay in memory until `dump` writes them as JSON lines.

This module imports only the standard library: ``cli_entry.py``
imports it in child processes before qlct2d is loaded.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

# Every layer the per-layer metrics report, as "<module>.<function>".
LAYERS = (
    "lct.kernel_matrix",
    "transform.forward", "transform.inverse", "transform.correlate",
    "field.convolve", "field.sample",
    "prob.charfn", "prob.invert_charfn", "prob.fd_moment", "prob.covariance",
    "gridio.read_field", "gridio.write_field",
    "gridio.read_spectrum", "gridio.write_spectrum",
    "verify.run_verify",
    "cli.main",
)

GRIDIO_FUNCS = ("read_field", "write_field", "read_spectrum", "write_spectrum")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    t0: float
    t1: float
    pid: int
    attrs: dict = field(default_factory=dict)


# --- computed counts attached to spans (sizes only, never measured) -------

def _kernel_attrs(args, kwargs, _result) -> dict:
    p, x, u = args[:3]
    conjugate = bool(kwargs.get("conjugate", args[3] if len(args) > 3 else False))
    digest = hashlib.blake2b(digest_size=12)
    digest.update(repr(p).encode())
    digest.update(x.tobytes())
    digest.update(u.tobytes())
    digest.update(b"c" if conjugate else b"n")
    return {"bytes": 16 * len(x) * len(u), "key": digest.hexdigest()}


def _sandwich_flops(n_out1: int, n_in1: int, n_in2: int, n_out2: int) -> int:
    # two complex (n_out1 x n_in1) @ (n_in1 x n_in2) products, then two
    # (n_out1 x n_in2) @ (n_in2 x n_out2) products; 8 flops per complex
    # multiply-add.  32 n^3 on square grids.
    return 16 * n_out1 * n_in1 * n_in2 + 16 * n_out1 * n_in2 * n_out2


def _forward_attrs(args, kwargs, _result) -> dict:
    f = args[0]
    freq = args[2] if len(args) > 2 else kwargs["freq"]
    return {"flops": _sandwich_flops(freq.n1, f.spec.n1, f.spec.n2, freq.n2)}


def _inverse_attrs(args, kwargs, _result) -> dict:
    s = args[0]
    space = args[1] if len(args) > 1 else kwargs["space"]
    return {"flops": _sandwich_flops(space.n1, s.spec.n1, s.spec.n2, space.n2)}


def _direct_sum_attrs(args, _kwargs, _result) -> dict:
    # _conv_full_all_pairs: per row shift, a (4 n1 x n2) @ (n2 x 4(2 n2 - 1))
    # real product, i.e. about 64 n1^2 n2^2 flops over all n1 shifts.
    n1, n2 = args[0].spec.n1, args[0].spec.n2
    return {"flops": 32 * n1 * n1 * n2 * (2 * n2 - 1)}


def _file_bytes(path: str) -> int:
    size = os.path.getsize(path)
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        size += os.path.getsize(sidecar)
    return size


def _read_attrs(args, kwargs, _result) -> dict:
    return {"bytes": _file_bytes(args[0] if args else kwargs["path"])}


def _write_attrs(args, kwargs, _result) -> dict:
    return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}


def _cli_attrs(args, kwargs, _result) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


_ATTRS = {
    "lct.kernel_matrix": _kernel_attrs,
    "transform.forward": _forward_attrs,
    "transform.inverse": _inverse_attrs,
    "transform.correlate": _direct_sum_attrs,
    "field.convolve": _direct_sum_attrs,
    "cli.main": _cli_attrs,
    **{f"gridio.{fn}": _read_attrs if fn.startswith("read") else _write_attrs
       for fn in GRIDIO_FUNCS},
}


class Tracer:
    """Records one span per call of each wrapped qlct2d function.

    `op` is the id of the operation in progress; the workload loop sets
    it so that every span carries its op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter(), 0.0,
                    os.getpid())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span):
        span.t1 = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs_fn = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            # sized after the clock stopped, so the sizing is not timed
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS and rebind it in all qlct2d modules."""
        import importlib

        importlib.import_module("qlct2d")
        for name in LAYERS:
            mod_name, fn_name = name.split(".")
            module = importlib.import_module(f"qlct2d.{mod_name}")
            original = getattr(module, fn_name)
            wrapper = self.wrap(name, original)
            for mod in [m for k, m in list(sys.modules.items())
                        if k == "qlct2d" or k.startswith("qlct2d.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def graft(spans: list[Span], child_spans: list[Span], parent: Span) -> None:
    """Append spans recorded in a child process under `parent`.

    Ids are renumbered after the existing spans; child roots get
    `parent` as their parent and every child span takes its op.
    """
    base = len(spans)
    for s in child_spans:
        spans.append(Span(s.id + base,
                          parent.id if s.parent is None else s.parent + base,
                          parent.op, s.name, s.t0, s.t1, s.pid, s.attrs))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.t0, p.t0), min(s.t1, p.t1)
            if hi > lo:
                children.setdefault(p.id, []).append((lo, hi))
    out = {}
    for s in spans:
        covered, reach = 0.0, float("-inf")
        for lo, hi in sorted(children.get(s.id, [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def repeat_fraction(spans: list[Span]) -> float:
    """Share of kernel builds whose (params, nodes, conjugate) key already
    occurred earlier in the same process."""
    seen = set()
    calls = repeats = 0
    for s in spans:
        if s.name != "lct.kernel_matrix" or "key" not in s.attrs:
            continue
        key = (s.pid, s.attrs["key"])
        calls += 1
        repeats += key in seen
        seen.add(key)
    return repeats / calls if calls else 0.0


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self seconds, and summed computed flops and bytes."""
    selfs = self_times(spans)
    totals = {name: {"calls": 0, "self_s": 0.0, "flops": 0, "bytes": 0}
              for name in LAYERS}
    for s in spans:
        t = totals.get(s.name)
        if t is None:
            continue
        t["calls"] += 1
        t["self_s"] += selfs[s.id]
        t["flops"] += s.attrs.get("flops", 0)
        t["bytes"] += s.attrs.get("bytes", 0)
    return totals
