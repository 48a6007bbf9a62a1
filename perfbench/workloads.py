"""The three benchmark workloads: seeded inputs, one op, and its gate.

Each workload has ``setup()`` (inputs from the seed, input files),
``run_op(i)`` (one closed-loop operation) and ``check(i, out)``, which
returns None for a correct output or a one-line reason.  The library is
always called through module attributes (``tf.forward``), so wrappers
installed by the tracer see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qlct2d import field as fd
from qlct2d import gridio, lct, prob
from qlct2d import transform as tf
from qlct2d import verify as vf
from tracer import graft, load_spans

HERE = Path(__file__).resolve().parent
VERIFY_REFERENCE = HERE / "verify_reference.json"
CHILD_TIMEOUT_S = 60.0


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum((a - b) ** 2)) / np.sqrt(np.sum(b ** 2)))


def _energy(spec: fd.GridSpec, values: np.ndarray) -> float:
    w1 = fd.quad_weights_1d(spec.n1, spec.h1)
    w2 = fd.quad_weights_1d(spec.n2, spec.h2)
    return float(np.einsum("r,c,rc->", w1, w2, np.sum(values ** 2, axis=-1)))


# --------------------------------------------------------------------------
# spectral: library forward + inverse roundtrips

def gaussian_sum(rng: np.random.Generator, spec: fd.GridSpec, k: int = 5,
                 positive: bool = False) -> np.ndarray:
    """Sum of k Gaussians with random centres, widths and quaternion
    amplitudes (all components positive when `positive`)."""
    x1 = spec.x1_nodes()[:, None]
    x2 = spec.x2_nodes()[None, :]
    v = np.zeros((spec.n1, spec.n2, 4))
    for _ in range(k):
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        s = rng.uniform(0.8, 1.2)
        amp = rng.uniform(0.1, 1.0, 4) if positive else rng.normal(size=4)
        g = np.exp(-((x1 - c1) ** 2 + (x2 - c2) ** 2) / (2.0 * s * s))
        v += g[..., None] * amp
    return v


@dataclass(frozen=True)
class ParamSet:
    name: str
    params: lct.TransformParams
    freq: fd.GridSpec
    roundtrip_tol: float


class Spectral:
    """One op: ``forward`` then ``inverse`` of one seeded field.

    Ops cycle through the fields and, independently, through three
    parameter sets: Fourier, a fractional rotation by a seeded angle,
    and the shear (1, 0.5, 0, 1) onto [-12,12]^2.
    """

    ENERGY_TOL = 1e-3

    def __init__(self, seed: int, n: int = 513, n_fields: int = 4):
        self.seed, self.n, self.n_fields = seed, n, n_fields

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.spec = fd.GridSpec(-8.0, 8.0, -8.0, 8.0, self.n, self.n)
        self.fields = [fd.SampledField(self.spec, gaussian_sum(rng, self.spec))
                       for _ in range(self.n_fields)]
        self.energies = [_energy(self.spec, f.values) for f in self.fields]
        self.theta = float(rng.uniform(math.pi / 8, 3 * math.pi / 8))
        rot = lct.LctParams(math.cos(self.theta), math.sin(self.theta),
                            -math.sin(self.theta), math.cos(self.theta))
        shear = lct.LctParams(1.0, 0.5, 0.0, 1.0)
        wide = fd.GridSpec(-12.0, 12.0, -12.0, 12.0, self.n, self.n)
        # roundtrip tolerances are the verify ledger's
        self.param_sets = [
            ParamSet("fourier", lct.fourier_params(), self.spec, 1e-3),
            ParamSet("fractional", lct.TransformParams(rot, rot), self.spec, 1e-3),
            ParamSet("shear", lct.TransformParams(shear, shear), wide, 1e-2),
        ]

    def run_op(self, i: int):
        f = self.fields[i % self.n_fields]
        ps = self.param_sets[i % len(self.param_sets)]
        s = tf.forward(f, ps.params, ps.freq)
        return s, tf.inverse(s, self.spec)

    def check(self, i: int, out) -> str | None:
        s, back = out
        k = i % self.n_fields
        ps = self.param_sets[i % len(self.param_sets)]
        err = _rel_l2(back.values, self.fields[k].values)
        if not err <= ps.roundtrip_tol:
            return f"{ps.name} roundtrip error {err:.3e} > {ps.roundtrip_tol}"
        ratio = _energy(s.spec, s.values) / self.energies[k]
        if not abs(ratio - 1.0) <= self.ENERGY_TOL:
            return f"{ps.name} energy ratio {ratio!r} off 1 by > {self.ENERGY_TOL}"
        return None


# --------------------------------------------------------------------------
# verify: the full reproduction ledger

def ledger_key(ledger: str) -> list[list]:
    """Claim ids, verdicts and pass flags of a ledger JSON document."""
    doc = json.loads(ledger)
    return [[c["claim_id"], c["verdict"], c["passed"]] for c in doc["claims"]]


class Verify:
    """One op: ``run_verify()`` (full profile) and its JSON ledger.

    The ledger's fixtures are fixed, so the seed selects nothing here.
    """


    def __init__(self, seed: int, reference: Path = VERIFY_REFERENCE):
        self.seed, self.reference_path = seed, reference

    def setup(self):
        self.reference = json.loads(self.reference_path.read_text())["claims"]
        self.first: str | None = None

    def run_op(self, i: int) -> str:
        return vf.ledger_json(vf.run_verify())

    def check(self, i: int, out: str) -> str | None:
        key = ledger_key(out)
        if key != self.reference:
            bad = [a[0] for a, b in zip(key, self.reference) if a != b]
            return (f"ledger differs from the reference: {len(key)} claims "
                    f"vs {len(self.reference)}, mismatched {bad[:3]}")
        if self.first is None:
            self.first = out
        elif out != self.first:
            return "ledger bytes differ from the run's first ledger"
        return None


# --------------------------------------------------------------------------
# cli-pipeline: a chain of qlct2d subprocesses

@dataclass
class ChildResult:
    argv: list[str]
    code: int
    maxrss_kb: int


def run_child(argv: list[str], env: dict, cwd: Path) -> ChildResult:
    """Run one child to completion; its own peak RSS comes from wait4."""
    with open(cwd / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(argv, proc.returncode, usage.ru_maxrss)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv_values(path: Path) -> tuple[fd.GridSpec, np.ndarray]:
    """Parse a qlct2d CSV grid without the library's reader."""
    spec = fd.GridSpec.from_dict(json.loads(Path(str(path) + ".json").read_text()))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return spec, data[:, 2:].reshape(spec.n1, spec.n2, 4)


class CliPipeline:
    """One op: ``transform`` (CSV to JSON spectrum), ``invert`` (JSON to
    CSV), ``charfn`` and ``moments`` of the inverted field, each a fresh
    ``qlct2d`` process started by the benchmark's ``cli_entry.py``.
    """

    BOX = (-8.0, 8.0, -8.0, 8.0)
    FREQ_GRID = "-4,4,-4,4,65,65"
    OUTPUTS = ("spec.json", "back.csv", "back.csv.json", "cf.json",
               "moments.json")

    def __init__(self, seed: int, workdir: Path, env: dict, n: int = 257):
        self.seed, self.workdir, self.env, self.n = seed, workdir, env, n
        self.entry = [sys.executable, str(HERE / "cli_entry.py")]
        self.children: list[ChildResult] = []
        # set to a Tracer to trace the children; their spans are grafted
        # under one "cli.subprocess" span per child
        self.tracer = None

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        self.spec = fd.GridSpec(*self.BOX, self.n, self.n)
        self.density = gaussian_sum(rng, self.spec, k=3, positive=True)
        self.workdir.mkdir(parents=True, exist_ok=True)
        gridio.write_field(fd.SampledField(self.spec, self.density),
                           str(self.workdir / "density.csv"))
        self.first: dict[str, str] | None = None

    def commands(self) -> list[list[str]]:
        grid = ",".join(f"{v:g}" for v in self.BOX) + f",{self.n},{self.n}"
        return [
            ["transform", "density.csv", "--out", "spec.json"],
            ["invert", "spec.json", f"--grid={grid}", "--out", "back.csv"],
            ["charfn", "back.csv", f"--freq-grid={self.FREQ_GRID}",
             "--out", "cf.json"],
            ["moments", "back.csv", "--out", "moments.json"],
        ]

    def run_op(self, i: int) -> list[ChildResult]:
        results = []
        for k, cmd in enumerate(self.commands()):
            if self.tracer is None:
                r = run_child(self.entry + cmd, self.env, self.workdir)
            else:
                r = self._run_traced(self.entry + cmd, k)
            results.append(r)
            if r.code != 0:
                break
        self.children.extend(results)
        return results

    def _run_traced(self, argv: list[str], k: int) -> ChildResult:
        path = self.workdir / f"spans-{k}.jsonl"
        env = dict(self.env, PERFBENCH_TRACE=str(path))
        span = self.tracer.begin("cli.subprocess")
        try:
            r = run_child(argv, env, self.workdir)
        finally:
            self.tracer.end(span)
        if path.exists():
            graft(self.tracer.spans, load_spans(str(path)), span)
            path.unlink()
        return r

    def check(self, i: int, out: list[ChildResult]) -> str | None:
        for r in out:
            if r.code != 0:
                return f"exit code {r.code} from {' '.join(r.argv[-5:])}"
        digests = {name: _digest(self.workdir / name) for name in self.OUTPUTS}
        if self.first is None:
            err = self.check_outputs()
            if err:
                return err
            self.first = digests
        elif digests != self.first:
            changed = [k for k in digests if digests[k] != self.first[k]]
            return f"repeated chain wrote different bytes: {changed}"
        return None

    def check_outputs(self) -> str | None:
        """Check the chain's files against the source density."""
        wd = self.workdir
        spec, back = read_csv_values(wd / "back.csv")
        if spec != self.spec:
            return f"inverted grid {spec} != source grid {self.spec}"
        err = _rel_l2(back, self.density)
        if not err <= 1e-3:
            return f"inverted field differs from the source by {err:.3e}"
        doc = json.loads((wd / "spec.json").read_text())
        ratio = (_energy(fd.GridSpec.from_dict(doc["grid"]), np.asarray(doc["values"]))
                 / _energy(self.spec, self.density))
        if not abs(ratio - 1.0) <= 1e-3:
            return f"spectrum energy ratio {ratio!r} off 1 by > 1e-3"
        want = prob.covariance(fd.SampledField(spec, back)).to_dict()
        got = json.loads((wd / "moments.json").read_text())
        if got.keys() != want.keys():
            return f"moments keys {sorted(got)} != {sorted(want)}"
        for key, value in want.items():
            if key == "resolution":
                if got[key] != value:
                    return f"moments resolution {got[key]} != {value}"
            elif not np.allclose(got[key], value, rtol=1e-9, atol=1e-12):
                return f"moments {key} {got[key]} != covariance {value}"
        cf = json.loads((wd / "cf.json").read_text())
        phi = np.asarray(cf["values"])
        origin = phi[phi.shape[0] // 2, phi.shape[1] // 2]
        mass = np.einsum("r,c,rcl->l", fd.quad_weights_1d(spec.n1, spec.h1),
                         fd.quad_weights_1d(spec.n2, spec.h2), back)
        if not np.allclose(origin, mass, rtol=1e-9, atol=1e-12):
            return f"charfn at the origin {origin} != field integral {mass}"
        return None
