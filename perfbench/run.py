"""qsshare benchmark: one workload, driven through `qsshare.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload hex-sweep --seed 1 --seconds 25 --trace 0

The benchmark calls the public CLI entry point in-process, one request at a
time (a closed loop with one client), against spec files it generates from
`--seed` under `.perfbench/`. It checks every request's output, then prints a
human-readable table and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off. With `--trace 1` the public functions of each qsshare module are wrapped
from outside (see tracer.py), the same passes are run untraced and traced, and
the metrics are per-layer counts and self times per pass plus the tracing
overhead. The span file is written to `.perfbench/traces/`.
"""

from __future__ import annotations

import os
import sys

# Leave no bytecode caches in the checkout.
sys.dont_write_bytecode = True

# One process, one client, no helper threads: cap BLAS/OpenMP pools before
# numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
# Share of --seconds spent on the untraced passes of a traced run; the traced
# replay of the same passes takes about as long again.
UNTRACED_SHARE = 0.4
# One reference kernel run (about 0.1 s) per this many seconds of the run.
GAUGE_EVERY_S = 1.0

sys.path.insert(0, os.path.join(ROOT, "src"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hex-sweep", "access-synth", "wide-certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="time import + input generation + first load in DIR, print it and a reference kernel time, exit")
    return parser.parse_args(argv)


def setup_probe(args) -> None:
    """One set-up sample: import, generate and write specs, first load.

    Prints the set-up seconds and the reference kernel's seconds measured
    right after it in the same process (the second of two runs).
    """
    start = time.perf_counter()
    import workloads  # imports numpy and qsshare

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workloads.WORKLOADS[args.workload](args.setup_probe, args.seed)
    elapsed = time.perf_counter() - start
    import reference

    reference.kernel_seconds("cpu")
    print(elapsed, reference.kernel_seconds("cpu"))


def measure_setup(args, workdir: str) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes, scaled to nominal host speed."""
    import reference

    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup{i}")
        os.mkdir(probe_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", probe_dir]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
        elapsed, kernel = (float(v) for v in done.stdout.split()[-2:])
        samples.append(elapsed * reference.NOMINAL_S["cpu"] / kernel)
        shutil.rmtree(probe_dir)
    return samples


@dataclass
class Pass:
    """One walk over the request list: each request with its wall seconds."""

    start: float
    end: float = 0.0
    timed: list[tuple] = field(default_factory=list)

    def seconds(self, kind: str | None = None) -> float:
        return sum(t for r, t in self.timed if kind in (None, r.kind))

    def items(self, kind: str) -> int:
        return sum(r.items for r, _t in self.timed if r.kind == kind)


class Runner:
    """Sends a workload's requests, times them and checks their outputs."""

    def __init__(self, cli, workloads, reference, workload, workdir: str, gauged: bool):
        self.cli = cli
        self.wl = workloads
        self.reference = reference
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.warnings: Counter = Counter()
        self.last = None  # (request, fingerprint) of the latest request
        self.gauged = gauged
        self.kernels: list[tuple[int, bool, float]] = []  # (pass, at its start, seconds)
        self.last_gauge = 0.0

    def gauge_speed(self, index: int, at_start: bool, force: bool = False) -> None:
        """Run the reference kernel once per GAUGE_EVERY_S since it last ran.

        Called between requests only, tagged with the pass it runs in and
        whether it runs before that pass's first request; `force` runs it at
        least once.
        """
        if not self.gauged:
            return
        now = time.perf_counter()
        due = int((now - self.last_gauge) / GAUGE_EVERY_S) if self.kernels else 1
        for _ in range(max(due, int(force))):
            seconds = self.reference.kernel_seconds(self.workload.gauge)
            self.kernels.append((index, at_start, seconds))
            self.last_gauge = time.perf_counter()

    def scale(self, index: int) -> float:
        """Nominal over mean kernel time around pass `index`.

        The kernels around a pass are those run before and during it and just
        after it. The mean, not the median: the host flips between a fast and
        a slow state, and a pass is slowed in proportion to its time in each.
        """
        around = [k for i, at_start, k in self.kernels
                  if i == index or (i == index + 1 and at_start)]
        return self.reference.NOMINAL_S[self.workload.gauge] / statistics.mean(around)

    def call(self, request):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                code = self.cli.main(request.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed request, not a failed run
                code = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        for item in caught:
            self.warnings[f"{item.category.__name__}: {item.message}"] += 1
        self.attempted += 1
        stdout = out.getvalue()
        problem = self.wl.check(request, code, stdout)
        if problem:
            detail = err.getvalue().strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(request.argv)}: {problem} {detail[0]}".strip())
        return elapsed, stdout, problem

    def run_pass(self, index: int) -> Pass:
        """One pass over the request list, following analyze with synthesize."""
        done = Pass(time.perf_counter())
        self.gauge_speed(index, True, force=True)
        queue = list(self.workload.pass_requests(index))
        while queue:
            request = queue.pop(0)
            self.gauge_speed(index, False)
            elapsed, stdout, problem = self.call(request)
            done.timed.append((request, elapsed))
            self.last = (request, self.fingerprint(request, stdout))
            if not problem:
                queue[0:0] = self.wl.follow_up(request, stdout, self.workdir)
        done.end = time.perf_counter()
        return done

    def run_passes(self, seconds: float, min_passes: int) -> list[Pass]:
        """At least `min_passes` passes, then more until one would overrun `seconds`."""
        passes = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            passes.append(self.run_pass(len(passes)))
            longest = max(longest, passes[-1].end - passes[-1].start)
            if len(passes) >= min_passes and time.perf_counter() - start + longest > seconds:
                self.gauge_speed(len(passes), True, force=True)
                return passes

    def check_determinism(self) -> None:
        """Repeat the latest request; its stdout (and file) must be byte-identical."""
        request, expected = self.last
        _elapsed, stdout, problem = self.call(request)
        if not problem and self.fingerprint(request, stdout) != expected:
            self.failures.append(f"{' '.join(request.argv)}: output differs on repeat")

    @staticmethod
    def fingerprint(request, stdout: str) -> str:
        if request.output and os.path.exists(request.output):
            with open(request.output, encoding="utf-8") as handle:
                return stdout + handle.read()
        return stdout


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, runner: Runner, passes: list[Pass], setup: list[float]):
    """End-to-end metrics, in seconds at nominal host speed, and a readable table."""
    kind = workload.primary
    scales = [runner.scale(i) for i in range(len(passes))]
    latencies = [t * f for d, f in zip(passes, scales) for r, t in d.timed if r.kind == kind]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(d.seconds() * f for d, f in zip(passes, scales)), "s"),
        "items_per_s": (statistics.median(d.items(kind) / (d.seconds(kind) * f)
                                          for d, f in zip(passes, scales)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    kernel_ms = 1000 * statistics.mean(k for _i, _s, k in runner.kernels)
    nominal_ms = 1000 * runner.reference.NOMINAL_S[workload.gauge]
    lines = [f"host speed: {workload.gauge} reference kernel {kernel_ms:.1f} ms (nominal "
             f"{nominal_ms:.0f} ms); timings below are scaled to nominal",
             "pass times (raw s): " + " ".join(f"{d.seconds():.3f}" for d in passes)]
    # The same figures under the names they have for this workload's user.
    if kind == "verify":
        lines += [f"certify_s             {metrics['pass_s'][0]:.4f} s (median of {len(passes)} passes)",
                  f"verifications_per_s   {metrics['items_per_s'][0]:.3f} 1/s"]
    else:
        analyze = statistics.median(d.seconds("analyze") * f for d, f in zip(passes, scales))
        lines += [f"analyze_s             {analyze:.4f} s (median of {len(passes)} passes)",
                  f"synth_ms.p50          {1000 * statistics.median(latencies):.3f} ms (n={len(latencies)})",
                  f"synth_ms.p95          {1000 * quantile(latencies, 0.95):.3f} ms (n={len(latencies)})"]
    lines += [f"setup_s               {metrics['setup_s'][0]:.4f} s (median of {len(setup)})",
              f"peak_rss_mb           {metrics['peak_rss_mb'][0]:.1f} MB"]
    return metrics, lines


def per_layer(tracer, passes: int, untraced_s: float, traced_s: float) -> dict:
    summary = tracer.summary()

    def stat(name, field):
        if not tracer.has(name):
            return None
        return summary.get(name, {}).get(field, 0) / passes

    def counter(key, *needs):
        if not all(tracer.has(name) for name in needs):
            return None
        return tracer.counts.get(key, 0) / passes

    def layer_self(prefix):
        return sum(row["self_s"] for name, row in summary.items() if name.startswith(prefix)) / passes

    plan_calls = stat("circuits.plan_reconstruction", "calls")
    distinct = counter("circuits.plan.distinct", "circuits.plan_reconstruction")
    localize = [stat("symplectic.localize_x", "calls"), stat("symplectic.localize_z", "calls")]
    updates = counter("sim.amplitude_updates.computed", "sim.apply_gate")
    peak = None
    if tracer.has("sim.apply_gate") and tracer.has("sim.basis_state"):
        peak = tracer.peaks.get("sim.peak_amplitudes", 0)
    metrics = {
        "circuits.plan_reconstruction.calls": (plan_calls, "count"),
        "circuits.plan_reconstruction.self_s": (stat("circuits.plan_reconstruction", "self_s"), "s"),
        "circuits.plan.distinct_ratio": (distinct / plan_calls if plan_calls else distinct, "ratio"),
        "circuits.synthesize_reconstruction.self_s": (stat("circuits.synthesize_reconstruction", "self_s"), "s"),
        "circuits.emit_circuit.self_s": (stat("circuits.emit_circuit", "self_s"), "s"),
        "circuits.two_qudit_gates": (counter("circuits.two_qudit_gates", "circuits.synthesize_reconstruction"), "count"),
        "symplectic.erasure_correctable.calls": (stat("symplectic.erasure_correctable", "calls"), "count"),
        "symplectic.erasure_correctable.self_s": (stat("symplectic.erasure_correctable", "self_s"), "s"),
        "symplectic.dual.calls": (stat("symplectic.dual", "calls"), "count"),
        "symplectic.qualified_sets.self_s": (stat("symplectic.qualified_sets", "self_s"), "s"),
        "symplectic.all_qualified_sets.self_s": (stat("symplectic.all_qualified_sets", "self_s"), "s"),
        "symplectic.localize.calls": (None if None in localize else sum(localize), "count"),
        "symplectic.build_code.self_s": (stat("symplectic.build_code", "self_s"), "s"),
        "linalg.rref.calls": (stat("linalg.rref", "calls"), "count"),
        "linalg.rref.self_s": (stat("linalg.rref", "self_s"), "s"),
        "linalg.rref.cells.computed": (counter("linalg.rref.cells.computed", "linalg.rref"), "count"),
        "sim.apply_circuit.self_s": (stat("sim.apply_circuit", "self_s"), "s"),
        "sim.apply_gate.calls": (stat("sim.apply_gate", "calls"), "count"),
        "sim.apply_gate.self_s": (stat("sim.apply_gate", "self_s"), "s"),
        "pauli.dense_matrix.calls": (stat("pauli.dense_matrix", "calls"), "count"),
        "sim.amplitude_updates.computed": (updates, "count"),
        "sim.bytes_moved.computed": (None if updates is None else updates * 16 * 2, "B"),
        "sim.encode_secret.self_s": (stat("sim.encode_secret", "self_s"), "s"),
        "sim.logical_zero.self_s": (stat("sim.logical_zero", "self_s"), "s"),
        "sim.logical_zero.refs_tried": (counter("sim.logical_zero.refs_tried", "sim.logical_zero", "sim.basis_state"), "count"),
        "sim.peak_amplitudes": (peak, "count"),
        "pauli.make_convention.self_s": (stat("pauli.make_convention", "self_s"), "s"),
        "pauli.stabilizer_eigenvalue.calls": (stat("pauli.stabilizer_eigenvalue", "calls"), "count"),
        "specfile.parse_code_document.self_s": (stat("specfile.parse_code_document", "self_s"), "s"),
        "cli.requests": (stat("cli.main", "calls"), "count"),
        "cli.request.self_s": (layer_self("cli."), "s"),
    }
    for layer in ("specfile", "symplectic", "linalg", "pauli", "circuits", "sim"):
        metrics[f"{layer}.self_s"] = (layer_self(f"{layer}."), "s")
    metrics["trace.spans"] = (len(tracer.spans) / passes, "count")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / passes, "s")
    return metrics


def pass_seconds(passes: list[Pass]) -> float:
    return sum(done.seconds() for done in passes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    setup_samples = [] if args.trace else measure_setup(args, workdir)

    import numpy
    import qsshare
    import qsshare.cli
    import reference
    import workloads

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
    setup_warnings = [f"{w.category.__name__}: {w.message}" for w in caught]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(qsshare)
    runner = Runner(qsshare.cli, workloads, reference, workload, workdir, gauged=tracer is None)

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
             f"numpy {numpy.__version__}"]
    if tracer is None:
        passes = runner.run_passes(args.seconds, workload.min_passes)
        runner.check_determinism()
        metrics, named = end_to_end(workload, runner, passes, setup_samples)
        lines += named
    else:
        # The first pass warms allocator and numpy paths; the overhead compares
        # the passes after it with their traced replay.
        untraced = runner.run_passes(args.seconds * UNTRACED_SHARE, 2)[1:]
        tracer.enabled = True
        traced = []
        for index in range(1, len(untraced) + 1):
            traced.append(runner.run_pass(index))
            tracer.end_pass()
        tracer.enabled = False
        runner.check_determinism()
        metrics = per_layer(tracer, len(traced), pass_seconds(untraced), pass_seconds(traced))
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")
        tracer.write(trace_path)
        lines.append(f"traced passes {len(traced)}: untraced {pass_seconds(untraced):.4f} s, "
                     f"traced {pass_seconds(traced):.4f} s; spans written to {trace_path}")
        absent = sorted(name for name, (value, _unit) in metrics.items() if value is None)
        if absent:
            lines.append("absent (function gone, or its result changed shape): " + ", ".join(absent))

    failed = len(runner.failures)
    lines.append(f"failed_ratio          {failed / runner.attempted:.4f} "
                 f"({failed} of {runner.attempted} requests)")
    runner.warnings.update(setup_warnings)
    for text, count in sorted(runner.warnings.items()):
        lines.append(f"warning x{count}: {text}")
    lines += [f"FAILED {failure}" for failure in runner.failures[:20]]
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<44} {shown} {unit}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
