"""Self-tests of the benchmark: seeded inputs, span arithmetic, gates.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from qlct2d import field as fd  # noqa: E402
from qlct2d import transform as tf  # noqa: E402


# --- the same seed gives the same inputs ----------------------------------

def test_spectral_inputs_follow_the_seed():
    a, b, c = wl.Spectral(7, n=33), wl.Spectral(7, n=33), wl.Spectral(8, n=33)
    for w in (a, b, c):
        w.setup()
    assert a.theta == b.theta
    assert all(np.array_equal(f.values, g.values) for f, g in zip(a.fields, b.fields))
    assert a.theta != c.theta
    assert not np.array_equal(a.fields[0].values, c.fields[0].values)


def test_cli_input_file_follows_the_seed(tmp_path):
    def density_bytes(seed, name):
        w = wl.CliPipeline(seed, tmp_path / name, env={}, n=9)
        w.setup()
        return (w.workdir / "density.csv").read_bytes()

    assert density_bytes(3, "a") == density_bytes(3, "b")
    assert density_bytes(3, "a") != density_bytes(4, "c")


# --- self time on a synthetic span tree -----------------------------------

def _span(i, parent, t0, t1, name="x"):
    return tr.Span(i, parent, 0, name, t0, t1, 1)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),   # overlaps span 2 on [3, 4]
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),   # grandchild: counts against span 1 only
        _span(4, 0, 9.0, 12.0),  # runs past its parent: clipped to [9, 10]
    ]
    selfs = tr.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_graft_renumbers_child_spans_under_parent():
    spans = [_span(0, None, 0.0, 5.0, "op"), _span(1, 0, 0.5, 4.5, "cli.subprocess")]
    child = [_span(0, None, 1.0, 4.0, "cli.main"), _span(1, 0, 1.5, 2.0, "gridio.read_field")]
    tr.graft(spans, child, spans[1])
    assert [(s.id, s.parent) for s in spans[2:]] == [(2, 1), (3, 2)]
    assert tr.self_times(spans)[1] == pytest.approx(4.0 - 3.0)


def test_installed_wrappers_rebind_direct_imports_and_uninstall():
    from qlct2d import cli, prob, verify

    original = tf.forward
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tf.forward is not original
        assert prob.forward is tf.forward and verify.forward is tf.forward
        assert cli.read_field is wl.gridio.read_field
        spec = fd.GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
        f = fd.SampledField(spec, np.ones((5, 5, 4)))
        prob.charfn(f, spec, mode="lct", params=wl.lct.fourier_params())
    finally:
        tracer.uninstall()
    assert tf.forward is original and prob.forward is original
    names = [s.name for s in tracer.spans]
    assert names == ["prob.charfn", "transform.forward",
                     "lct.kernel_matrix", "lct.kernel_matrix"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert tracer.spans[1].attrs["flops"] == 32 * 5 ** 3
    assert tr.repeat_fraction(tracer.spans) == 0.5


# --- a wrong output fed to each gate counts as a failed op ----------------

class _Fed:
    """A workload whose op i returns outputs[i], checked by `gate`."""

    def __init__(self, gate, outputs):
        self.check, self.outputs = gate.check, outputs

    def run_op(self, i):
        return self.outputs[i]


def _failed_per_op(workload, n_ops):
    import run

    # a phase of zero seconds runs exactly one op
    phases = [run.Phase(workload, 0.0, first_op=i) for i in range(n_ops)]
    assert all(p.attempted == 1 for p in phases)
    return [p.failed for p in phases]


def test_spectral_gate():
    w = wl.Spectral(11, n=129, n_fields=1)
    w.setup()
    # at 129^2 only the Fourier set samples finely enough for the bounds
    w.param_sets = w.param_sets[:1]
    s, back = w.run_op(0)
    outputs = [
        (s, back),
        (s, fd.SampledField(back.spec, back.values * 1.01)),
        (tf.Spectrum(s.spec, s.values * 1.01, s.params), back),
    ]
    assert _failed_per_op(_Fed(w, outputs), 3) == [0, 1, 1]


def _ledger(claims, indent=None):
    return json.dumps({"claims": [{"claim_id": c, "verdict": v, "passed": p}
                                  for c, v, p in claims]}, indent=indent)


def test_verify_gate():
    w = wl.Verify(0)
    w.setup()
    flipped = [list(c) for c in w.reference]
    flipped[0][1] = "not-reproduced"
    unpassed = [list(c) for c in w.reference]
    unpassed[-1][2] = not unpassed[-1][2]
    outputs = [
        _ledger(w.reference),
        _ledger(w.reference),
        _ledger(flipped),
        _ledger(unpassed),
        _ledger(w.reference[:-1]),
        _ledger(w.reference, indent=1),  # same claims, other bytes
    ]
    assert _failed_per_op(_Fed(w, outputs), 6) == [0, 0, 1, 1, 1, 1]


def test_cli_gate(tmp_path):
    w = wl.CliPipeline(5, tmp_path, env={}, n=65)
    w.setup()
    back = tf.inverse(tf.forward(fd.SampledField(w.spec, w.density),
                                 wl.lct.fourier_params(), w.spec), w.spec)

    def write_outputs(back_values):
        f = fd.SampledField(w.spec, back_values)
        s = tf.forward(f, wl.lct.fourier_params(), w.spec)
        wl.gridio.write_spectrum(s, str(tmp_path / "spec.json"))
        wl.gridio.write_field(f, str(tmp_path / "back.csv"))
        cf = wl.prob.charfn(f, fd.GridSpec(-4, 4, -4, 4, 65, 65))
        wl.gridio.write_spectrum(cf.spectrum, str(tmp_path / "cf.json"))
        (tmp_path / "moments.json").write_text(
            json.dumps(wl.prob.covariance(f).to_dict()))

    ok = [wl.ChildResult(["qlct2d", c[0]], 0, 1000) for c in w.commands()]
    exit2 = ok[:1] + [wl.ChildResult(["qlct2d", "invert"], 2, 1000)]
    write_outputs(back.values)
    assert _failed_per_op(_Fed(w, [ok, ok, exit2]), 3) == [0, 0, 1]

    (tmp_path / "moments.json").write_text("{}")
    assert _failed_per_op(_Fed(w, [ok]), 1) == [1]

    w.first = None
    write_outputs(back.values * 1.01)
    assert _failed_per_op(_Fed(w, [ok]), 1) == [1]
