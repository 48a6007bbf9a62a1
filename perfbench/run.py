"""Benchmark of qlct2d: seeded closed-loop workloads with output gates.

    python3 perfbench/run.py --workload {spectral,verify,cli-pipeline} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qlct2d is imported from
``src/``.  One caller runs one op after another for S seconds, every
op's output is checked, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` a run spends its time in an untraced pass, a traced
pass and a single-BLAS-thread traced pass, and reports the per-layer
metrics.  Machine facts, per-op samples and spans are written under
``.perfbench_work/``.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("spectral", "verify", "cli-pipeline")
THREAD_VARS = ("QLCT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# a percentile is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100
# shares of --seconds spent by a traced run in each pass
UNTRACED_SHARE, TRACED_SHARE, SINGLE_THREAD_SHARE = 0.4, 0.4, 0.2

# metrics derived from counts computed from array sizes, not measured
COMPUTED = {"lct.kernel_matrix.bytes", "transform.forward.gflops",
            "transform.inverse.gflops", "field.convolve.gflops",
            "transform.correlate.gflops", "transform.forward.parallel_eff"}

clock = time.perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up probe and the single-thread pass run as children
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--single-thread", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    """Environment of every child: this process's thread caps and src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PERFBENCH_TRACE", None)
    return env


def timed_child(argv: list[str]) -> float:
    """Wall time of a child process that must exit 0."""
    t0 = clock()
    subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return clock() - t0


def self_command(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             check=True).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE",
                                                "LEVEL2_CACHE_SIZE",
                                                "LEVEL3_CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"seed": seed, "nproc": nproc(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cache_bytes": caches,
            "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS}}


def make_workload(name: str, seed: int, workdir: Path):
    import workloads as wl

    if name == "spectral":
        return wl.Spectral(seed)
    if name == "verify":
        return wl.Verify(seed)
    return wl.CliPipeline(seed, workdir, child_env())


class Tally:
    """Ops attempted and the failure reason of each failed op."""

    def __init__(self, attempted: int, errors: list[str]):
        self.attempted, self.errors = attempted, errors

    @property
    def failed(self) -> int:
        return len(self.errors)


class Phase(Tally):
    """Closed loop: the next op starts when the previous one is checked.

    At least one op runs; no op starts that would, at the last op's
    pace, end after `seconds`.
    """

    def __init__(self, workload, seconds: float, tracer=None, first_op: int = 0):
        self.times: list[float] = []
        self.errors: list[str] = []
        t_start = clock()
        i = first_op
        while True:
            span = None
            if tracer is not None:
                tracer.op = i
                span = tracer.begin("op")
            t0 = clock()
            try:
                out, err = workload.run_op(i), None
            except Exception as e:  # a raising op is a failed op
                out, err = None, f"raised {type(e).__name__}: {e}"
            self.times.append(clock() - t0)
            if span is not None:
                tracer.end(span)
            if err is None:
                err = workload.check(i, out)
            if err is not None:
                self.errors.append(f"op {i}: {err}")
            i += 1
            # stop before an op that would run past the phase's end
            if clock() - t_start + self.times[-1] > seconds:
                break
        self.wall = clock() - t_start
        self.attempted = len(self.times)

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.times)


def untraced_run(args, workdir: Path) -> tuple[dict, dict, list[Phase]]:
    """End-to-end metrics; set-up is timed in fresh child processes."""
    setups = [timed_child(self_command(args, "--seconds", "0", "--setup-only"))
              for _ in range(SETUP_REPEATS)]
    workload = make_workload(args.workload, args.seed, workdir)
    workload.setup()
    phase = Phase(workload, args.seconds)
    if args.workload == "cli-pipeline":
        rss_kb = max((c.maxrss_kb for c in workload.children), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = phase.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (phase.p50_ms(), "ms"),
        "ops_per_s": ((n - phase.failed) / phase.wall, "1/s"),
        "ops_ok_frac": (1.0 - phase.failed / n, "frac"),
        "peak_rss_mb": (rss_kb * 1024 / 1e6, "MB"),
    }
    extra = {"setup_s_samples": setups, "ops_failed_frac": phase.failed / n}
    if n >= P90_MIN_SAMPLES:
        extra["op_ms_p90"] = 1e3 * statistics.quantiles(phase.times, n=10)[-1]
    return metrics, extra, [phase]


def traced_pass(workload, seconds: float, first_op: int = 0):
    from tracer import Tracer

    tracer = Tracer()
    if hasattr(workload, "tracer"):  # its child processes trace themselves
        workload.tracer = tracer
    else:
        tracer.install()
    try:
        phase = Phase(workload, seconds, tracer, first_op)
    finally:
        tracer.uninstall()
    return phase, tracer


def forward_cost(spans) -> tuple[float, int]:
    from tracer import layer_totals

    t = layer_totals(spans)["transform.forward"]
    return t["self_s"], t["flops"]


def single_thread_run(args, workdir: Path) -> None:
    """Traced pass with one BLAS thread; prints its forward cost as JSON."""
    workload = make_workload(args.workload, args.seed, workdir)
    workload.setup()
    phase, tracer = traced_pass(workload, args.seconds)
    self_s, flops = forward_cost(tracer.spans)
    print(json.dumps({"attempted": phase.attempted, "failed": phase.failed,
                      "errors": phase.errors, "forward_self_s": self_s,
                      "forward_flops": flops}))


def traced_run(args, workdir: Path, threads: int) -> tuple[dict, dict, list[Phase]]:
    from tracer import GRIDIO_FUNCS, LAYERS, layer_totals, repeat_fraction

    workload = make_workload(args.workload, args.seed, workdir)
    workload.setup()
    untraced = Phase(workload, UNTRACED_SHARE * args.seconds)
    traced, tracer = traced_pass(workload, TRACED_SHARE * args.seconds,
                                 first_op=untraced.attempted)
    spans = tracer.spans
    tracer.dump(str(WORK / f"{args.workload}-s{args.seed}.spans.jsonl"))

    out = subprocess.run(
        self_command(args, "--seconds", str(SINGLE_THREAD_SHARE * args.seconds),
                     "--trace", "1", "--single-thread"),
        env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True)
    single = json.loads(out.stdout.strip().splitlines()[-1])
    import_s = statistics.median(
        timed_child([sys.executable, "-c", "import qlct2d"])
        for _ in range(IMPORT_REPEATS))

    n_ops = traced.attempted
    totals = layer_totals(spans)
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (totals[name]["calls"] / n_ops, "count/op")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"] / n_ops, "s/op")

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    km = totals["lct.kernel_matrix"]
    metrics["lct.kernel_matrix.bytes"] = (km["bytes"] / n_ops, "B/op")
    metrics["lct.kernel_matrix.repeat_frac"] = (repeat_fraction(spans), "frac")
    for name in ("transform.forward", "transform.inverse",
                 "field.convolve", "transform.correlate"):
        t = totals[name]
        metrics[f"{name}.gflops"] = (rate(t["flops"] / 1e9, t["self_s"]), "GFLOP/s")
    for fn in GRIDIO_FUNCS:
        t = totals[f"gridio.{fn}"]
        metrics[f"gridio.{fn}.mb_per_s"] = (rate(t["bytes"] / 1e6, t["self_s"]), "MB/s")
    # time per computed flop with one thread over `threads` times that with
    # the default cap
    self_p, flops_p = forward_cost(spans)
    self_1, flops_1 = single["forward_self_s"], single["forward_flops"]
    eff = (rate(self_1, flops_1) / (threads * rate(self_p, flops_p))
           if self_p > 0 and flops_1 > 0 else 0.0)
    metrics["transform.forward.parallel_eff"] = (eff, "frac")
    metrics["cli.import_s"] = (import_s, "s")
    process_s = (sum(s.t1 - s.t0 for s in spans if s.name == "cli.subprocess")
                 - sum(s.t1 - s.t0 for s in spans if s.name == "cli.main"))
    metrics["cli.process_s"] = (process_s / n_ops, "s/op")
    metrics["trace.overhead_frac"] = (
        (traced.p50_ms() - untraced.p50_ms()) / untraced.p50_ms(), "frac")
    metrics["trace.op_ms_p50"] = (traced.p50_ms(), "ms")
    metrics["trace.ops"] = (n_ops, "count")
    extra = {"untraced_op_ms_p50": untraced.p50_ms(),
             "single_thread_ops": single["attempted"]}
    # the single-thread pass's ops are gated too, and count
    return metrics, extra, [untraced, traced, Tally(single["attempted"], single["errors"])]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qlct2d" / "__init__.py").is_file():
        print(f"perfbench: no qlct2d sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the caps must be in place before numpy is first imported
    threads = 1 if args.single_thread else nproc()
    os.environ.update({v: str(threads) for v in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))

    role = "setup" if args.setup_only else "single" if args.single_thread else "main"
    workdir = WORK / f"{args.workload}-s{args.seed}-{role}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, workdir).setup()
            return 0
        if args.single_thread:
            single_thread_run(args, workdir)
            return 0
        if args.trace:
            metrics, extra, phases = traced_run(args, workdir, threads)
        else:
            metrics, extra, phases = untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    timed = phases[0] if not args.trace else phases[1]
    notes = {"setup_s": f" (n={SETUP_REPEATS})", "cli.import_s": f" (n={IMPORT_REPEATS})",
             "op_ms_p50": f" (n={timed.attempted})", "ops_per_s": f" (n={timed.attempted})",
             "trace.op_ms_p50": f" (n={timed.attempted})"}
    facts = machine_facts(args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "extra": extra,
              "op_s": [p.times for p in phases if isinstance(p, Phase)],
              "errors": [e for p in phases for e in p.errors],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (WORK / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={[p.attempted for p in phases]}")
    print("machine " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        if name in COMPUTED:
            note += " (from computed counts)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    for key, value in extra.items():
        print(f"  ({key} = {value})")
    for err in record["errors"][:10]:
        print(f"  FAILED {err}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
