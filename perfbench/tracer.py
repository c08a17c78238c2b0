"""Outside-in span recorder for the qsshare modules.

The program carries no instrumentation of its own. Instead, `Tracer.install`
replaces every public module-level function of the traced modules, in every
module namespace that binds it, with a wrapper that records a span while the
tracer is switched on. Spans stay in memory as tuples

    (span_id, parent_id, request_id, name, start, end)

and are written out once, at the end of the run. The spans opened during one
CLI request share its request id. A layer's self time is a span's duration
minus the time covered by its child spans.

Counters are recorded at the same boundaries by small observers that look at
a wrapped call's arguments and result. Counts named `*.computed` are derived
from array sizes (rows x cols x rank, amplitudes per gate), not from hardware
counters, so they ignore cache behaviour.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("specfile", "symplectic", "linalg", "pauli", "circuits", "sim", "cli")

# Called hundreds of thousands of times per pass with sub-microsecond bodies;
# wrapping them would multiply the tracing overhead without naming a layer's
# work. Their time is charged to the calling span.
UNTRACED = frozenset(
    {
        "linalg.as_field",
        "linalg.as_field_vector",
        "linalg.check_prime",
        "linalg.empty_basis",
        "linalg.fp_inv",
        "pauli.phase_order",
        "pauli.phase_value",
        "pauli.format_phase",
        "symplectic.split_parts",
    }
)

REQUEST_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self.plan_keys: set = set()
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()  # spans whose observer no longer fits
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._request = 0
        self._observers = _observers(self)

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of each layer module of `package`."""
        modules = {name: getattr(package, name) for name in LAYERS}
        originals = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNTRACED
                ):
                    originals[fn] = self._wrap(f"{layer}.{attr}", fn)
        bound = [package, *modules.values()]
        for module in bound:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(module, attr, originals[value])

    def has(self, name: str) -> bool:
        """True when `name` is wrapped and its counters could be recorded."""
        return name in self.wrapped and name not in self.broken

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        observer = self._observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(sid, name, start, end)
            if observer is not None and name not in tracer.broken:
                try:
                    observer(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The function's signature or result changed shape; its
                    # counters are reported as absent rather than wrong.
                    tracer.broken.add(name)
            return result

        return wrapper

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        if name == REQUEST_SPAN and not self._stack:
            self._request += 1
        self._stack.append((sid, name))
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((sid, parent, self._request, name, start, end))

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self._stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def end_pass(self) -> None:
        """Close a pass: count the distinct (code, set) pairs it planned."""
        self.count("circuits.plan.distinct", len(self.plan_keys))
        self.plan_keys.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for sid, parent, _req, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, _req, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span_id\tparent_id\trequest_id\tname\tstart\tend\n")
            for sid, parent, req, name, start, end in self.spans:
                handle.write(f"{sid}\t{parent}\t{req}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _code_key(code) -> tuple:
    return (
        code.p,
        code.n,
        code.k,
        code.stabilizer.tobytes(),
        code.logical_x.tobytes(),
        code.logical_z.tobytes(),
    )


def _observers(tracer: Tracer) -> dict:
    """Counters recorded at span boundaries, keyed by span name."""

    def rref(args, kwargs, result):
        reduced, _pivots, rank = result
        rows, cols = reduced.shape
        tracer.count("linalg.rref.cells.computed", rows * cols * rank)

    def apply_gate(args, kwargs, result):
        amplitudes = result.p**result.m
        tracer.count("sim.amplitude_updates.computed", amplitudes)
        tracer.peak("sim.peak_amplitudes", amplitudes)

    def basis_state(args, kwargs, result):
        tracer.peak("sim.peak_amplitudes", result.p**result.m)
        if tracer.inside("sim.logical_zero"):
            tracer.count("sim.logical_zero.refs_tried")

    def plan(args, kwargs, result):
        tracer.plan_keys.add((_code_key(args[0]), tuple(result.available)))

    def synthesize(args, kwargs, result):
        tracer.count("circuits.two_qudit_gates", result.two_qudit_count())

    return {
        "linalg.rref": rref,
        "sim.apply_gate": apply_gate,
        "sim.basis_state": basis_state,
        "circuits.plan_reconstruction": plan,
        "circuits.synthesize_reconstruction": synthesize,
    }
